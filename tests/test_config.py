import dataclasses
import math
import random
import re

import pytest

from profforce.cli import main
from profforce.config import (
    MODE_ALIASES,
    MODES,
    PRESETS,
    ConfigError,
    TrainConfig,
    build_config,
    canonical_text,
    config_from_mapping,
    config_from_text,
    parse_kv_text,
    validate_config,
)
from profforce.data import RASTER_FAMILIES
from profforce.trainer import Trainer


class TestParseKvText:
    def test_basic_pairs(self):
        assert parse_kv_text("a=1\nb = two \n") == {"a": "1", "b": "two"}

    def test_comments_and_blanks(self):
        text = "# header\n\nseed=3  # trailing\n   \nlr=0.5\n"
        assert parse_kv_text(text) == {"seed": "3", "lr": "0.5"}

    def test_value_may_contain_equals(self):
        assert parse_kv_text("k=a=b") == {"k": "a=b"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_kv_text("a=1\nbroken line\n")


class TestCoercion:
    def test_types(self):
        cfg = config_from_text(
            "seed=3\nlr=0.5\nuse_ct=true\nfreeze_discriminator=no\n"
            "max_steps=20\ntask=raster\n")
        assert cfg.seed == 3 and isinstance(cfg.seed, int)
        assert cfg.lr == 0.5
        assert cfg.use_ct is True
        assert cfg.freeze_discriminator is False
        assert cfg.max_steps == 20
        assert cfg.task == "raster"

    def test_optional_none(self):
        cfg = config_from_text("corpus_path=none\nseed=1\n")
        assert cfg.corpus_path is None

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_text("learning_rate=0.1\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            config_from_text("max_steps=many\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            config_from_text("use_ct=maybe\n")

    @pytest.mark.parametrize("pair", ["seed=\u0663", "max_steps=1_0", "gen_hidden=+8",
                                      "lr=1_0e-3", "adversarial_weight=\u0661.5"])
    def test_numbers_only_as_plain_ascii_decimal_text(self, tmp_path, capsys, pair):
        # int() and float() also read '_' separators, a sign '+' and non-ASCII digits
        key, raw = pair.split("=")
        with pytest.raises(ConfigError, match=re.escape(f"{key!r}: cannot parse {raw!r}")):
            config_from_text(pair)
        out = tmp_path / "run"
        sets = ["seed=1", "max_steps=1", "seq_len=8", "gen_hidden=4", "disc_hidden=4", pair]
        assert main(["train", "--out", str(out), *(a for p in sets for a in ("--set", p))]) == 2
        assert f"cannot parse {raw!r}" in capsys.readouterr().err
        assert not out.exists()


class TestCanonicalText:
    def test_round_trip(self):
        cfg = TrainConfig(seed=7, lr=3e-4, use_ct=True, task="copy", copy_count=12)
        again = config_from_text(canonical_text(cfg))
        assert again == cfg

    def test_sorted_and_omits_none(self):
        cfg = TrainConfig(seed=1)
        text = canonical_text(cfg)
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert keys == sorted(keys)
        assert "corpus_path" not in keys and "vocab_symbols" not in keys

    def test_float_precision_survives(self):
        cfg = TrainConfig(seed=1, lr=1e-4 * (1 + 1e-12))
        assert config_from_text(canonical_text(cfg)).lr == cfg.lr

    def test_stable_between_calls(self):
        cfg = TrainConfig(seed=9)
        assert canonical_text(cfg) == canonical_text(cfg)


class TestBuildConfig:
    def test_defaults_alone(self):
        cfg = build_config()
        assert cfg == TrainConfig()

    def test_precedence_file_over_preset(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("gen_hidden=32\nseed=2\n")
        cfg = build_config(config_path=f, preset="desk-copy")
        assert cfg.gen_hidden == 32          # file wins
        assert cfg.task == "copy"            # preset supplies the rest
        assert cfg.max_steps == 2000

    def test_precedence_sets_over_file(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("gen_hidden=32\nseed=2\n")
        cfg = build_config(config_path=f, sets=["gen_hidden=16", "lr=0.01"])
        assert cfg.gen_hidden == 16 and cfg.lr == 0.01

    def test_precedence_flags_over_sets(self):
        cfg = build_config(sets=["seed=1", "max_steps=5"],
                           flag_overrides={"seed": 99, "max_steps": None})
        assert cfg.seed == 99
        assert cfg.max_steps == 5  # a None flag never overrides

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_config(preset="galaxy")

    def test_malformed_set(self):
        with pytest.raises(ConfigError, match="--set"):
            build_config(sets=["gen_hidden"])


class TestPresets:
    def test_names(self):
        assert set(PRESETS) == {"desk-copy", "desk-raster", "paper-char-lm"}

    def test_large_scale_preset_is_recorded_not_run(self):
        big = PRESETS["paper-char-lm"]
        assert big["gen_hidden"] == 1024
        assert big["disc_hidden"] == 2048
        assert big["seq_len"] == 500

    def test_presets_parse_clean(self):
        for name in PRESETS:
            cfg = build_config(preset=name, flag_overrides={"seed": 1})
            assert cfg.seed == 1

    def test_mode_aliases(self):
        assert MODE_ALIASES == {"tf": "teacher_forcing", "pf": "professor_forcing",
                                "ss": "scheduled_sampling"}
        assert set(MODE_ALIASES.values()) == set(MODES)


class TestValidate:
    def _ok(self):
        return TrainConfig(seed=1)

    def test_valid_default_with_seed(self):
        validate_config(self._ok())

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(TrainConfig())

    @pytest.mark.parametrize("field,value,msg", [
        ("task", "poetry", "unknown task"),
        ("mode", "listener_forcing", "unknown mode"),
        ("seq_len", 0, "positive"),
        ("batch_n", -1, "positive"),
        ("ss_start", 1.5, "probabilities"),
        ("ss_end", -0.1, "probabilities"),
        ("ss_ramp_steps", 0, "positive"),
        ("lr", 0.0, "positive"),
        ("temperature", -1.0, "positive"),
        ("adversarial_weight", -0.5, "nonnegative"),
        ("val_every", -1, "nonnegative"),
        ("copy_count", 0, "copy_count must be positive"),
        ("raster_count", 0, "raster_count must be positive"),
        ("val_count", -1, "val_count must be nonnegative"),
        ("seed", -1, "seed must be nonnegative, got -1"),
        # a value its checkpoint's config text would read back as another
        ("corpus_path", "we#ird/c.txt", "'corpus_path': 'we#ird/c.txt' does not read back"),
        ("corpus_path", "a\nb", "'corpus_path': 'a\\\\nb' does not read back"),
        ("raster_family", " rect", "'raster_family': ' rect' does not read back"),
    ])
    def test_rejections(self, field, value, msg):
        cfg = self._ok()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=msg):
            validate_config(cfg)

    # The kernels trust their caller, so this check is the only guard left on
    # each value: the id names the kernel check that re-checked it once.
    @pytest.mark.parametrize("overrides,msg", [
        pytest.param(dict(copy_pattern_len=0), "copy_pattern_len", id="copy_pattern"),
        pytest.param(dict(vocab_size=1), "copy task needs at least two symbols",
                     id="copy_vocab"),
        pytest.param(dict(task="raster", raster_width=3), "raster_width must be at least 4",
                     id="raster_width"),
        pytest.param(dict(task="raster", raster_height=3), "raster_height must be at least 4",
                     id="raster_height"),
        pytest.param(dict(task="raster", raster_family="blob"), "unknown raster_family",
                     id="raster_family"),
        pytest.param(dict(gen_hidden=0), "gen_hidden must be positive", id="gru_hidden"),
        pytest.param(dict(gen_embed=0), "gen_embed must be positive", id="gru_input"),
        pytest.param(dict(gen_layers=0), "gen_layers must be positive", id="generator_layers"),
        pytest.param(dict(disc_hidden=0), "disc_hidden must be positive",
                     id="discriminator_hidden"),
        pytest.param(dict(temperature=0.0), "positive", id="unroll_temperature_zero"),
        pytest.param(dict(temperature=math.nan), "finite", id="unroll_temperature_nan"),
        pytest.param(dict(temperature=math.inf), "finite", id="unroll_temperature_inf"),
        pytest.param(dict(lr=-1.0), "positive", id="adam_lr_negative"),
        pytest.param(dict(lr=math.nan), "finite", id="adam_lr_nan"),
    ])
    def test_refuses_what_the_kernels_no_longer_check(self, overrides, msg):
        cfg = dataclasses.replace(self._ok(), **overrides)
        with pytest.raises(ConfigError, match=msg):
            validate_config(cfg)

    def test_copy_pattern_bound(self):
        cfg = self._ok()
        cfg.copy_pattern_len = cfg.seq_len + 1
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_corpus_needs_path(self):
        cfg = self._ok()
        cfg.task = "corpus"
        with pytest.raises(ConfigError, match="corpus_path"):
            validate_config(cfg)


class TestMappingsFailOnlyAsConfigError:
    """Every mapping, of text or typed values, gives a config that sets up a
    ``Trainer`` or fails as ``ConfigError``."""

    # keys that size an allocation, drawn from -2..12 so no case holds more than a few MB
    SIZES = {"seq_len", "vocab_size", "copy_pattern_len", "copy_count", "raster_width",
             "raster_height", "raster_count", "val_count", "gen_hidden", "gen_embed",
             "gen_layers", "disc_hidden", "batch_n"}
    WORDS = {"task": ["copy", "raster", "corpus", "poetry", ""],
             "mode": [*MODES, "pf"],
             "raster_family": [*RASTER_FAMILIES, "blob"],
             "vocab_symbols": ["97,98", "x", ""]}

    @classmethod
    def _value(cls, rng, field):
        """A value for ``field``: of its type or not, typed or as text."""
        base = str(field.type).replace(" | None", "")
        if field.name in cls.WORDS:
            v = rng.choice(cls.WORDS[field.name])
        elif base == "bool":
            v = rng.choice([True, False, "yes", "no", "maybe", 0, 1, 2, 1.0])
        elif base == "float":
            v = rng.choice([rng.uniform(-2.0, 2.0), 1e-4, 0.0, -1.0, math.nan, math.inf, 2])
        elif field.name in cls.SIZES:
            v = rng.randint(-2, 12)
        else:   # seed, max_steps, val_every, ss_ramp_steps
            v = rng.choice([rng.randint(-3, 50), 2**64])
        v = rng.choice([v, v, v, float(v) if isinstance(v, int) else v, True, None, "x"])
        return rng.choice([v, v, str(v), f" {v} "])

    def test_fuzzed_mappings(self, tmp_path):
        rng = random.Random(2411)
        fields = [f for f in dataclasses.fields(TrainConfig)
                  if f.name != "corpus_path"]   # a missing file is an OSError
        escapes, accepted = [], 0
        for case in range(600):
            values = {f.name: self._value(rng, f) for f in rng.sample(fields, rng.randint(1, 6))}
            if rng.random() < 0.8:
                values["seed"] = rng.randint(0, 9)
            try:
                if case % 2:   # text through --set pairs, typed values as flags
                    text = {k: v for k, v in values.items() if isinstance(v, str)}
                    cfg = build_config(sets=[f"{k}={v}" for k, v in text.items()],
                                       flag_overrides={k: v for k, v in values.items()
                                                       if k not in text})
                else:
                    cfg = config_from_mapping(values)
                Trainer(cfg, tmp_path / "run")
                accepted += 1
            except ConfigError:
                pass
            except Exception as e:   # any other type is the failure
                escapes.append((values, repr(e)))
        assert escapes == []
        assert accepted >= 40   # the cases reach set-up, not only the parser

    REFUSED_NUMBERS = ["1_0", "+3", "\u0663", "1_0e-3", "\u0661.5", " 2", "3 "]
    UNWRITABLE = ["7#8", "rect#x", "a\nb", "x\nseed=3", "copy\n"]   # '#' or a line break

    def test_fuzzed_refused_forms(self, tmp_path):
        # mappings holding a number not in plain decimal text or a value config
        # text cannot hold; whatever sets up a Trainer reads back from its text
        rng = random.Random(2517)
        fields = [f for f in dataclasses.fields(TrainConfig) if f.name != "corpus_path"]
        escapes, accepted = [], 0
        for case in range(200):
            values = {f.name: self._value(rng, f) for f in rng.sample(fields, rng.randint(0, 2))}
            values["seed"] = rng.randint(0, 9)
            for name in rng.sample([f.name for f in fields] + ["corpus_path"], rng.randint(1, 2)):
                values[name] = rng.choice(self.UNWRITABLE if name == "corpus_path"   # no file
                                          else self.REFUSED_NUMBERS + self.UNWRITABLE)
            try:
                if case % 2:
                    cfg = build_config(sets=[f"{k}={v}" for k, v in values.items()])
                else:
                    cfg = config_from_mapping(values)
                Trainer(cfg, tmp_path / "run")
                assert config_from_text(canonical_text(cfg)) == cfg
                accepted += 1
            except ConfigError:
                pass
            except Exception as e:   # any other type is the failure
                escapes.append((values, repr(e)))
        assert escapes == []
        assert accepted >= 5   # such text in a free-text field, raster_family in a copy run

    @pytest.mark.parametrize("values, msg", [
        ({"gen_hidden": 3.0}, "'gen_hidden': cannot parse '3.0' as int"),
        ({"vocab_size": 2.0}, "'vocab_size': cannot parse '2.0' as int"),
        ({"seed": True}, "'seed': cannot parse 'True' as int"),
        ({"vocab_size": "1"}, "vocab_size 1: copy task needs at least two symbols"),
    ])
    def test_escapes_the_fuzz_found(self, tmp_path, values, msg):
        # the first two used to raise TypeError in set-up, the third to seed the run
        with pytest.raises(ConfigError, match=msg):
            Trainer(config_from_mapping({"seed": 1, **values}), tmp_path)
        with pytest.raises(ConfigError, match=msg):
            Trainer(build_config(flag_overrides={"seed": 1, **values}), tmp_path)

import pytest

from profforce.config import (
    MODE_ALIASES,
    MODES,
    PRESETS,
    ConfigError,
    TrainConfig,
    build_config,
    canonical_text,
    config_from_text,
    parse_kv_text,
    validate_config,
)


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
    ])
    def test_rejections(self, field, value, msg):
        cfg = self._ok()
        setattr(cfg, field, value)
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

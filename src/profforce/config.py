"""Training configuration: a flat key=value format with typed fields.

Precedence when assembling a config is command-line flags over file
values over defaults.  ``canonical_text`` renders a config in sorted
key order so snapshots embedded in checkpoints are stable.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .data import RASTER_FAMILIES

__all__ = [
    "TrainConfig",
    "ConfigError",
    "MODES",
    "MODE_ALIASES",
    "PRESETS",
    "parse_kv_text",
    "config_from_mapping",
    "config_from_text",
    "canonical_text",
    "build_config",
    "validate_config",
]

MODES = ("teacher_forcing", "professor_forcing", "scheduled_sampling")
MODE_ALIASES = {"tf": "teacher_forcing", "pf": "professor_forcing",
                "ss": "scheduled_sampling"}


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    # task
    task: str = "copy"
    corpus_path: str | None = None
    seq_len: int = 50
    vocab_size: int = 8                 # copy only: raster has 2, corpus its file's count
    vocab_symbols: str | None = None    # comma-separated codepoints; corpus: the file's own
    copy_pattern_len: int = 5
    copy_count: int = 32
    raster_width: int = 10
    raster_height: int = 10
    raster_family: str = "rect"
    raster_count: int = 64
    val_count: int = 8                  # synthetic tasks; corpus uses its split
    # model
    gen_hidden: int = 64
    gen_embed: int = 16
    gen_layers: int = 1
    disc_hidden: int = 128
    include_outputs_in_behavior: bool = False
    # training
    mode: str = "professor_forcing"
    use_ct: bool = False
    adversarial_weight: float = 1.0
    freeze_discriminator: bool = False
    ss_start: float = 0.0
    ss_end: float = 0.25
    ss_ramp_steps: int | None = None   # frozen to max_steps when an ss run starts
    lr: float = 1e-4
    batch_n: int = 8
    max_steps: int = 200
    seed: int | None = None
    temperature: float = 1.0
    bias: float = 0.0
    val_every: int = 100


# Reference sizes. The large row is recorded for orientation only; this
# package is meant for desk-scale runs and makes no attempt to train at
# these widths in reasonable time.
PRESETS: dict[str, dict] = {
    "desk-copy": dict(task="copy", vocab_size=8, seq_len=50, copy_pattern_len=5,
                      gen_hidden=64, disc_hidden=64, batch_n=8, lr=1e-4,
                      mode="professor_forcing", max_steps=2000),
    "desk-raster": dict(task="raster", seq_len=100, raster_width=10, raster_height=10,
                        gen_hidden=64, disc_hidden=64, batch_n=8, lr=1e-4,
                        mode="professor_forcing", max_steps=2000),
    "paper-char-lm": dict(task="corpus", seq_len=500, gen_hidden=1024, gen_embed=128,
                          disc_hidden=2048, lr=1e-4, mode="professor_forcing",
                          batch_n=32),
}

_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}
_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def parse_kv_text(text: str) -> dict[str, str]:
    """Flat ``key=value`` lines; blank lines and ``#`` comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(name: str, raw: str):
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"unknown config key {name!r}")
    ftype = field.type
    optional = "None" in str(ftype)
    base = str(ftype).replace(" ", "").replace("|None", "")
    if optional and raw.lower() in ("none", ""):
        return None
    try:   # numbers only as plain ASCII decimal text: no '_', sign '+', spaces or other digits
        if base == "int" and str(int(raw)) == raw:
            return int(raw)
        if base == "float" and raw.isascii() and "_" not in raw and raw == raw.strip():
            return float(raw)
    except ValueError:
        pass
    if base == "bool" and raw.lower() in _BOOL_WORDS:
        return _BOOL_WORDS[raw.lower()]
    if base == "str":
        return raw
    raise ConfigError(f"config key {name!r}: cannot parse {raw!r} as {base}")


def config_from_mapping(values: dict) -> TrainConfig:
    """A config from ``values``, each read as its text (``str(value)``)."""
    cfg = TrainConfig()
    for key, value in values.items():
        setattr(cfg, key, _coerce(key, str(value)))
    return cfg


def config_from_text(text: str) -> TrainConfig:
    return config_from_mapping(parse_kv_text(text))


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def canonical_text(cfg: TrainConfig) -> str:
    """Sorted key=value rendering; None-valued keys are omitted."""
    return "".join(f"{name}={_text(getattr(cfg, name))}\n" for name in sorted(_FIELDS)
                   if getattr(cfg, name) is not None)


def build_config(config_path=None, preset: str | None = None,
                 sets: list[str] | None = None,
                 flag_overrides: dict | None = None) -> TrainConfig:
    """Assemble a config: defaults, then preset, file, --set pairs, flags."""
    values: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        values.update(PRESETS[preset])
    if config_path is not None:
        values.update(parse_kv_text(Path(config_path).read_text()))
    for pair in sets or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        values[key.strip()] = value.strip()
    values.update((k, v) for k, v in (flag_overrides or {}).items() if v is not None)
    return config_from_mapping(values)


def check_bias(bias: float) -> float:
    """Return ``bias`` if the temperature 1 / (1 + bias) it gives is usable."""
    if not math.isfinite(bias) or bias <= -1.0:
        raise ConfigError(f"bias must be a finite number greater than -1, got {bias}")
    return bias


def check_vocab_symbols(symbols: str | None, vocab_size: int) -> None:
    """Refuse ``symbols`` unless it decodes ``vocab_size`` ids: as many comma-separated
    plain ASCII decimals, each a code point (so of at most 7 digits; int() stops at 4300)."""
    points = [] if symbols is None else symbols.split(",")   # None: ids print as numbers
    if points and (len(points) != vocab_size or not all(
            p.isascii() and p.isdigit() and len(p) <= 7 and int(p) <= 0x10FFFF for p in points)):
        raise ConfigError(f"vocab_symbols must be {vocab_size} comma-separated code points "
                          f"(ASCII decimals up to {0x10FFFF}), got {symbols!r}")


def validate_config(cfg: TrainConfig) -> None:
    if cfg.seed is None:
        raise ConfigError("seed is required")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.task not in ("corpus", "copy", "raster"):
        raise ConfigError(f"unknown task {cfg.task!r}")
    if cfg.task == "corpus" and not cfg.corpus_path:
        raise ConfigError("corpus task needs corpus_path")
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; expected one of {MODES}")
    for name in ("seq_len", "gen_hidden", "gen_embed", "gen_layers", "disc_hidden",
                 "batch_n", "max_steps", "copy_count", "raster_count"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be positive")
    if cfg.task == "copy" and not 1 <= cfg.copy_pattern_len <= cfg.seq_len:
        raise ConfigError("need 1 <= copy_pattern_len <= seq_len")
    if cfg.task == "copy" and cfg.vocab_size < 2:   # build_datasets sets the others' vocabulary
        raise ConfigError(f"vocab_size {cfg.vocab_size}: copy task needs at least two symbols")
    if cfg.task != "corpus":   # build_datasets judges a corpus run's against its file
        check_vocab_symbols(cfg.vocab_symbols, 2 if cfg.task == "raster" else cfg.vocab_size)
    if cfg.task == "raster" and cfg.raster_family not in RASTER_FAMILIES:
        raise ConfigError(f"unknown raster_family {cfg.raster_family!r}; have {RASTER_FAMILIES}")
    for name in ("raster_width", "raster_height"):
        if cfg.task == "raster" and getattr(cfg, name) < 4:
            raise ConfigError(f"{name} must be at least 4")
    if not 0.0 <= cfg.ss_start <= 1.0 or not 0.0 <= cfg.ss_end <= 1.0:
        raise ConfigError("scheduled-sampling probabilities must lie in [0, 1]")
    if cfg.ss_ramp_steps is not None and cfg.ss_ramp_steps < 1:
        raise ConfigError("ss_ramp_steps must be positive")
    for name in ("lr", "temperature", "adversarial_weight"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be a finite number, got {getattr(cfg, name)}")
    check_bias(cfg.bias)
    if cfg.lr <= 0.0 or cfg.temperature <= 0.0:
        raise ConfigError("lr and temperature must be positive")
    if cfg.adversarial_weight < 0.0:
        raise ConfigError("adversarial_weight must be nonnegative")
    for name in ("val_every", "val_count"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be nonnegative")
    for name, value in vars(cfg).items():   # as canonical_text writes it for a checkpoint
        try:
            ok = value is None or getattr(config_from_text(f"{name}={_text(value)}"), name) == value
        except ConfigError:   # a line break left a line without '='
            ok = False
        if not ok:
            raise ConfigError(f"config key {name!r}: {value!r} does not read back from config "
                              "text (a '#', a line break or edge spaces)")

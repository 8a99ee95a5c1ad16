"""Command-line front end: train, sample, diagnose, inspect-checkpoint."""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import MAGIC, CheckpointError, load_checkpoint
from .config import MODE_ALIASES, ConfigError, build_config, check_bias
from .diagnostics import (
    centroid_distance,
    collect_state_clouds,
    mean_cross_distance,
    write_cloud_csv,
    write_projection_csv,
)
from .engine import unroll_free_running
from .trainer import (
    Trainer,
    TrainingDiverged,
    _keep_freed_memory,
    build_datasets,
    generator_from_checkpoint,
)

# The standard level names of the logging module, accepted in any case.
_LOG_LEVELS = {name.lower(): getattr(logging, name)
               for name in ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG", "NOTSET")}


def _setup_logging() -> None:
    name = os.environ.get("PF_LOG_LEVEL", "info").lower()
    if name not in _LOG_LEVELS:
        print(f"PF_LOG_LEVEL must be one of {sorted(_LOG_LEVELS)}, got {name!r}", file=sys.stderr)
        raise SystemExit(2)
    logging.basicConfig(level=_LOG_LEVELS[name], format="%(levelname)s %(name)s: %(message)s")


@functools.cache   # built once per process; parse_args keeps no state in it
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="profforce")
    sub = p.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a generator (and discriminator)")
    train.add_argument("--config", type=Path, default=None, help="key=value config file")
    train.add_argument("--preset", default=None, help="named preset to start from")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--out", type=Path, default=Path("run"))
    train.add_argument("--steps", type=int, default=None, help="override max_steps")
    train.add_argument("--mode", choices=sorted(MODE_ALIASES), default=None)
    train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key; repeatable")
    train.add_argument("--resume", type=Path, default=None,
                       help="continue from a checkpoint (only --steps/--out apply)")

    sample = sub.add_parser("sample", help="generate sequences from a checkpoint")
    sample.add_argument("checkpoint", type=Path)
    sample.add_argument("--length", type=int, default=None,
                        help="steps to generate (default: training seq_len)")
    sample.add_argument("--count", type=int, default=1)
    sample.add_argument("--bias", type=float, default=None,
                        help="sampling bias b; temperature becomes 1/(1+b)")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", type=Path, default=None, help="write here instead of stdout")

    diag = sub.add_parser("diagnose", help="compare teacher-forced vs free-running states")
    diag.add_argument("checkpoint", type=Path)
    diag.add_argument("--timestep", type=int, default=None, help="1-based; default last")
    diag.add_argument("--count", type=int, default=64, help="sequences per cloud")
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--out", type=Path, default=None,
                      help="directory for clouds.csv and projection.csv")

    insp = sub.add_parser("inspect-checkpoint", help="describe a checkpoint file")
    insp.add_argument("checkpoint", type=Path)
    return p


def cmd_train(args) -> int:
    if args.resume is not None:
        ignored = [f"--{name}" for name in ("config", "preset", "set", "mode", "seed")
                   if getattr(args, name) not in (None, [])]
        if ignored:
            raise ConfigError(f"--resume continues the checkpoint's own config: "
                              f"{', '.join(ignored)} would be ignored (only --steps and "
                              f"--out apply)")
        trainer = Trainer.resume(args.resume, args.out, max_steps=args.steps)
    else:
        flag_overrides = {"seed": args.seed, "max_steps": args.steps,
                          "mode": MODE_ALIASES.get(args.mode)}
        cfg = build_config(args.config, args.preset, list(args.set), flag_overrides)
        trainer = Trainer(cfg, args.out)
    rows = trainer.run()
    last = rows[-1] if rows else None
    if last:
        print(f"trained {trainer.step} steps; final nll/step "
              f"{last['nll_per_step']:.4f} ({last['bpc']:.4f} bpc); "
              f"outputs in {trainer.out_dir}")
    return 0


def _decode_rows(rows: np.ndarray, vocab_symbols: str | None) -> list[str]:
    """Each row once as a Python list, each symbol through a string table."""
    if vocab_symbols:
        table, sep = [chr(int(c)) for c in vocab_symbols.split(",")], ""
    else:
        table, sep = [str(i) for i in range(int(rows.max(initial=0)) + 1)], " "
    return [sep.join([table[i] for i in row]) for row in rows.tolist()]


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def cmd_sample(args) -> int:
    g, cfg = generator_from_checkpoint(load_checkpoint(args.checkpoint))
    length = args.length if args.length is not None else cfg.seq_len
    for flag, value in (("--length", length), ("--count", args.count)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    bias = check_bias(args.bias if args.bias is not None else cfg.bias)
    temperature = 1.0 / (1.0 + bias)
    rng = _seeded_rng(args.seed)
    res = unroll_free_running(g, length, rng, temperature=temperature, batch=args.count)
    text = "\n".join(_decode_rows(res.sampled, cfg.vocab_symbols)) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_diagnose(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    g, cfg = generator_from_checkpoint(load_checkpoint(args.checkpoint))
    train_set, val_set = build_datasets(cfg)
    pool = val_set if val_set is not None and len(val_set) >= args.count else train_set
    seqs = pool.sequences[:args.count]
    timestep = args.timestep if args.timestep is not None else seqs.shape[1]
    if not 1 <= timestep <= seqs.shape[1]:
        raise ConfigError(f"--timestep must lie in 1..{seqs.shape[1]}, got {timestep}")
    if args.out is not None and g.hidden_size < 2:   # its projection takes two directions
        raise ConfigError(f"--out needs a generator of hidden size at least 2, "
                          f"got {g.hidden_size}")
    rng = _seeded_rng(args.seed)
    clouds = collect_state_clouds(g, seqs, timestep, rng, temperature=cfg.temperature)
    if args.out is not None:   # before the report, so a bad --out prints none
        args.out.mkdir(parents=True, exist_ok=True)
    print(f"timestep={timestep}")
    print(f"centroid_distance={centroid_distance(*clouds)!r}")
    print(f"mean_cross_distance={mean_cross_distance(*clouds)!r}")
    print(f"n_tf={len(clouds[0])}")
    print(f"n_fr={len(clouds[1])}")
    if args.out is not None:
        write_cloud_csv(clouds, timestep, args.out / "clouds.csv")
        write_projection_csv(clouds, args.out / "projection.csv")
        print(f"wrote {args.out / 'clouds.csv'} and {args.out / 'projection.csv'}")
    return 0


def cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    # load_checkpoint accepts no other format version than this one.
    print(f"format: {MAGIC.decode('ascii')}")
    print(f"step: {ckpt.state.get('step', '?')}")
    print("config:")
    for line in ckpt.config_text.strip().splitlines():
        print(f"  {line}")
    print(f"tensors ({len(ckpt.tensors)}):")
    for name in sorted(ckpt.tensors):
        arr = ckpt.tensors[name]
        print(f"  {name}  shape={tuple(arr.shape)}")
    return 0


def main(argv=None) -> int:
    _keep_freed_memory()   # every command, not only those that build a Trainer
    _setup_logging()
    args = _parser().parse_args(argv)
    handlers = {"train": cmd_train, "sample": cmd_sample,
                "diagnose": cmd_diagnose, "inspect-checkpoint": cmd_inspect}
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckpointError, OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

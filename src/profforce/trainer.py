"""The training loop shared by all three modes.

The engine reads the run's settings from its config; the modes differ
only in the models :func:`build_models` makes and in the sampling ramp.
Teacher forcing and scheduled sampling build no discriminator, so each
step runs as professor forcing with a zero adversarial weight and a
frozen discriminator, whatever those keys say; their checkpoints hold
the generator alone, and a resume refuses one holding any other tensor.
Scheduled sampling ramps its sampling probability over ``ss_ramp_steps``.

Determinism contract: given one config (seed included), the metrics
rows, final parameters and checkpoints are bit-identical between runs,
except for the wallclock column.  Resuming from a checkpoint continues
the exact same trajectory because a step's batch and its draws are pure
functions of (seed, step), so a checkpoint stores no sampler state.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import platform
import time
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .config import (ConfigError, TrainConfig, canonical_text, check_vocab_symbols,
                     config_from_text, validate_config)
from .data import (
    SequenceDataset,
    chunk_sequences,
    load_corpus,
    synth_copy_task,
    synth_raster_task,
)
from .engine import (
    DiscriminatorParams,
    GeneratorParams,
    train_step,
    unroll_teacher_forced,
)
from .optim import AdamState

__all__ = ["Trainer", "TrainingDiverged", "generator_from_checkpoint"]

log = logging.getLogger("profforce")

_VAL_CHUNK = 64

CURVE_COLUMNS = ("step", "nll_per_step", "bpc", "c_d", "c_f", "c_t",
                 "disc_acc", "gate_gen", "gate_disc", "wallclock_ms")
VAL_COLUMNS = ("step", "val_nll_per_step", "val_bpc")


class TrainingDiverged(RuntimeError):
    pass


def _format_value(key: str, value) -> str:
    if key in ("step", "gate_gen", "gate_disc"):   # an int, or a bool as 0 or 1
        return str(int(value))
    return repr(float(value))


def format_curve_row(row: dict, columns: tuple[str, ...]) -> str:
    """One CSV row of ``row``'s ``columns``; floats keep full round-trip precision."""
    return ",".join(_format_value(k, row[k]) for k in columns)


def _earlier_rows(path: Path, header: str, last_step: int) -> list[str]:
    """``header`` and the rows of the CSV at ``path`` whose step is at most ``last_step``.

    A missing file, or one with another header, contributes no rows.
    """
    lines = path.read_text().splitlines() if path.exists() else []
    kept = [header]
    if lines[:1] == [header]:
        for line in lines[1:]:
            step = line.split(",", 1)[0]
            if step.isdigit() and int(step) <= last_step:
                kept.append(line)
    return kept


def _environment() -> dict[str, str]:
    """What a run's bits depend on besides its config: the BLAS library, its
    effective thread setting, numpy and Python.  Checkpoints record it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {"blas": blas, "blas_threads": threads or str(os.cpu_count()),
            "numpy": np.__version__, "python": platform.python_version()}


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse: trim the heap only past 1 GiB
    free and serve arrays up to 32 MiB (its 64-bit maximum) from it, so a
    step's arrays are not faulted in afresh every step.  Elsewhere a no-op."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):   # no C library, or no mallopt in it
        return
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def build_models(cfg: TrainConfig) -> tuple[GeneratorParams, DiscriminatorParams | None]:
    """The generator, and the discriminator in professor forcing only."""
    g = GeneratorParams.create(cfg.vocab_size, cfg.gen_embed, cfg.gen_hidden,
                               cfg.gen_layers, np.random.default_rng([cfg.seed, 11]))
    if cfg.mode != "professor_forcing":
        return g, None
    width = g.hidden_size + (g.vocab_size if cfg.include_outputs_in_behavior else 0)
    d_rng = np.random.default_rng([cfg.seed, 12])
    return g, DiscriminatorParams.create(width, cfg.disc_hidden, d_rng)


def build_datasets(cfg: TrainConfig) -> tuple[SequenceDataset, SequenceDataset | None]:
    """Training and validation sequences.  Sets a raster run's vocabulary and seq_len,
    and a corpus run's from its file, which a ``vocab_symbols`` already set must match."""
    if cfg.task == "copy":
        rng = np.random.default_rng([cfg.seed, 21])
        train = synth_copy_task(cfg.vocab_size, cfg.copy_pattern_len, cfg.seq_len,
                                cfg.copy_count, rng)
        val = (synth_copy_task(cfg.vocab_size, cfg.copy_pattern_len, cfg.seq_len,
                               cfg.val_count, rng) if cfg.val_count else None)
        return train, val
    if cfg.task == "raster":
        rng = np.random.default_rng([cfg.seed, 21])
        train = synth_raster_task(cfg.raster_width, cfg.raster_height,
                                  cfg.raster_family, cfg.raster_count, rng)
        val = (synth_raster_task(cfg.raster_width, cfg.raster_height,
                                 cfg.raster_family, cfg.val_count, rng)
               if cfg.val_count else None)
        cfg.vocab_size, cfg.seq_len = 2, cfg.raster_width * cfg.raster_height
        return train, val
    corpus = load_corpus(cfg.corpus_path)
    symbols = ",".join(str(ord(ch)) for ch in corpus.vocab)
    if corpus.vocab_size < 2:
        raise ConfigError(f"corpus_path {cfg.corpus_path} holds {corpus.vocab_size} distinct "
                          "symbols; a corpus task needs at least two")
    if cfg.vocab_symbols not in (None, symbols):   # a checkpoint's, or the user's
        raise ConfigError(f"vocab_symbols {cfg.vocab_symbols} are not the symbols of "
                          f"corpus_path {cfg.corpus_path} ({symbols})")
    cfg.vocab_size, cfg.vocab_symbols = corpus.vocab_size, symbols
    train = chunk_sequences(corpus.train_ids, cfg.seq_len)
    val = chunk_sequences(corpus.valid_ids, cfg.seq_len)
    if len(train) == 0:
        raise ConfigError(f"corpus too small for one sequence of seq_len {cfg.seq_len}")
    if len(val) == 0:
        val = None
    return train, val


def _load_tensors(own: dict[str, np.ndarray], tensors: dict[str, np.ndarray]) -> None:
    """Copy each checkpoint tensor into the array of ``own`` of its name and shape;
    every array of ``own`` must be filled."""
    for name, arr in tensors.items():
        if name not in own:
            raise CheckpointError(f"checkpoint tensor {name!r} has no destination")
        if own[name].shape != arr.shape:
            raise CheckpointError(f"tensor {name!r}: shape {arr.shape} != {own[name].shape}")
        own[name][...] = arr
    missing = set(own) - set(tensors)
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)[:4]} ...")


def generator_from_checkpoint(ckpt: Checkpoint) -> tuple[GeneratorParams, TrainConfig]:
    """The generator, for ``sample`` and ``diagnose``, of a config that ``train`` accepts."""
    cfg = config_from_text(ckpt.config_text)
    validate_config(cfg)
    if cfg.task == "corpus" and cfg.vocab_symbols is None:   # else diagnose takes the file's
        raise CheckpointError("corpus checkpoint has no vocab_symbols")
    check_vocab_symbols(cfg.vocab_symbols, cfg.vocab_size)   # sample reads no corpus file
    g = GeneratorParams.create(cfg.vocab_size, cfg.gen_embed, cfg.gen_hidden,
                               cfg.gen_layers, np.random.default_rng(0))   # for the shapes
    _load_tensors({"g." + name: t for name, t in g.named_params()},
                  {name: arr for name, arr in ckpt.tensors.items() if name.startswith("g.")})
    return g, cfg


class Trainer:
    def __init__(self, cfg: TrainConfig, out_dir, resume: Checkpoint | None = None):
        validate_config(cfg)
        if cfg.mode == "scheduled_sampling" and cfg.ss_ramp_steps is None:
            cfg.ss_ramp_steps = cfg.max_steps   # kept in checkpoints: a resume continues it
        _keep_freed_memory()
        self.out_dir, self.cfg = Path(out_dir), cfg
        self.train_set, self.val_set = build_datasets(cfg)
        self.g, self.d = build_models(self.cfg)
        self.g_adam = AdamState.for_params(self.g.tensors(), lr=self.cfg.lr)
        self.d_adam = (None if self.d is None
                       else AdamState.for_params(self.d.tensors(), lr=self.cfg.lr))
        self.step, self._order = 0, (None, None)   # the last epoch's batch order
        self.best_val = math.inf
        if resume is not None:
            self._restore(resume)
        self.out_dir.mkdir(parents=True, exist_ok=True)   # once nothing above has failed

    # -- state and checkpoints ------------------------------------------------

    def _named_state_tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for key, net, adam in (("g", self.g, self.g_adam), ("d", self.d, self.d_adam)):
            if net is None:
                continue
            for (name, t), m, v in zip(net.named_params(), adam.m, adam.v):
                out[f"{key}.{name}"] = t
                out[f"adam_{key}.{name}.m"] = m
                out[f"adam_{key}.{name}.v"] = v
        return out

    def checkpoint(self) -> Checkpoint:
        """The run's state; its tensors are the live arrays, so save it before the next step."""
        state = {
            "step": str(self.step),
            "adam_g_t": str(self.g_adam.t),
            **({} if self.d_adam is None else {"adam_d_t": str(self.d_adam.t)}),
            "best_val": repr(self.best_val),
            **_environment(),
        }
        return Checkpoint(config_text=canonical_text(self.cfg), state=state,
                          tensors=self._named_state_tensors())

    def _restore(self, ckpt: Checkpoint) -> None:
        st = {}
        d_t = () if self.d is None else ("adam_d_t",)
        for name in ("step", "adam_g_t", *d_t, "best_val"):
            text = ckpt.state.get(name)
            try:
                st[name] = float(text) if name == "best_val" else int(text)
            except (TypeError, ValueError):
                st[name] = math.nan
            # only the writer's own text: str() of a float is its repr
            if str(st[name]) != text or not 0 <= st[name]:
                raise CheckpointError(f"checkpoint state field {name!r} is missing or "
                                      f"malformed: {text!r}")
        written = config_from_text(ckpt.config_text)   # flaws of the file's own
        if written.mode == "scheduled_sampling" and written.ss_ramp_steps is None:
            raise CheckpointError("scheduled-sampling checkpoint has no ss_ramp_steps")
        if written.task == "corpus" and written.vocab_symbols is None:   # the file's were taken
            raise CheckpointError("corpus checkpoint has no vocab_symbols")
        for limit, error in ((written.max_steps, CheckpointError),
                             (self.cfg.max_steps, ConfigError)):
            if limit < st["step"]:
                raise error(f"max_steps {limit} is below the checkpoint's step {st['step']}")
        _load_tensors(self._named_state_tensors(), ckpt.tensors)
        self.step, self.g_adam.t = st["step"], st["adam_g_t"]
        if self.d_adam is not None:
            self.d_adam.t = st["adam_d_t"]
        self.best_val = st["best_val"]
        env = _environment()
        notes = [f"{k} {ckpt.state.get(k, 'unknown')} -> {v}" for k, v in env.items()
                 if ckpt.state.get(k, "unknown") != v]
        notes += [f"{k} ignored" for k in sorted(ckpt.state.keys() - st.keys() - env.keys())]
        if notes:   # a warning, not an error: see the README's Determinism section
            log.warning("resuming where the checkpoint's environment or state keys differ "
                        "(%s); the run may not continue bit for bit", ", ".join(notes))

    @classmethod
    def resume(cls, checkpoint_path, out_dir, max_steps: int | None = None) -> "Trainer":
        ckpt = load_checkpoint(checkpoint_path)
        cfg = config_from_text(ckpt.config_text)
        if max_steps is not None:
            cfg.max_steps = max_steps
        return cls(cfg, out_dir, resume=ckpt)

    # -- data order -----------------------------------------------------------

    def _batch_for_step(self, step: int) -> np.ndarray:
        n = len(self.train_set)
        b = min(self.cfg.batch_n, n)
        epoch, k = divmod(step, math.ceil(n / b))
        if self._order[0] != epoch:   # built once per epoch, a pure function of (seed, epoch)
            self._order = (epoch, np.random.default_rng([self.cfg.seed, 31, epoch]).permutation(n))
        return self.train_set.sequences[self._order[1][k * b:(k + 1) * b]]

    def _p_sample(self, step: int) -> float:
        if self.cfg.mode != "scheduled_sampling":
            return 0.0
        span = max(self.cfg.ss_ramp_steps - 1, 1)
        frac = min(step, span) / span
        return self.cfg.ss_start + (self.cfg.ss_end - self.cfg.ss_start) * frac

    # -- evaluation -----------------------------------------------------------

    def validate(self) -> tuple[float, float]:
        """Teacher-forced nll (nats per step) and bpc, a mean over the validation rows."""
        assert self.val_set is not None
        total = 0.0
        seqs = self.val_set.sequences
        for start in range(0, len(seqs), _VAL_CHUNK):
            chunk = seqs[start:start + _VAL_CHUNK]
            res = unroll_teacher_forced(self.g, chunk)
            total += float(res.nll) * chunk.shape[0]
        nll_per_step = total / len(seqs)
        return nll_per_step, nll_per_step / math.log(2.0)

    # -- the loop -------------------------------------------------------------

    def run(self) -> list[dict]:
        """Train to ``max_steps``.  curves.csv and val.csv keep the rows an
        earlier run left in the out dir before the starting step (validation
        rows up to it), so resuming into the run's own directory appends."""
        cfg = self.cfg
        rows: list[dict] = []
        curves_path = self.out_dir / "curves.csv"
        val_path = self.out_dir / "val.csv"
        curves_lines = _earlier_rows(curves_path, ",".join(CURVE_COLUMNS), self.step - 1)
        val_lines = _earlier_rows(val_path, ",".join(VAL_COLUMNS), self.step)
        with open(curves_path, "w") as curves, open(val_path, "w") as valf:
            curves.write("".join(line + "\n" for line in curves_lines))
            valf.write("".join(line + "\n" for line in val_lines))
            while self.step < cfg.max_steps:
                step = self.step
                batch = self._batch_for_step(step)
                # a pure function of (seed, step), as the batch is: a resume needs no rng state
                rng = np.random.default_rng([cfg.seed, 41, step])
                with np.errstate(over="ignore", invalid="ignore"):   # reported by _check_finite
                    t0 = time.perf_counter()
                    metrics = train_step(self.g, self.d, batch, cfg, self._p_sample(step), rng,
                                         self.g_adam, self.d_adam)
                    wallclock_ms = (time.perf_counter() - t0) * 1e3
                row = {"step": step, **metrics, "wallclock_ms": wallclock_ms}
                rows.append(row)
                curves.write(format_curve_row(row, CURVE_COLUMNS) + "\n")
                curves.flush()
                self._check_finite(row)
                self.step = step + 1
                log.debug("step %d nll/step %.4f", step, row["nll_per_step"])
                if self.val_set is not None and cfg.val_every and (
                        self.step % cfg.val_every == 0 or self.step == cfg.max_steps):
                    val_nll, val_bpc = self.validate()
                    valf.write(format_curve_row({"step": self.step, "val_nll_per_step": val_nll,
                                                 "val_bpc": val_bpc}, VAL_COLUMNS) + "\n")
                    valf.flush()
                    log.info("step %d validation nll/step %.4f bpc %.4f",
                             self.step, val_nll, val_bpc)
                    if val_nll < self.best_val:
                        self.best_val = val_nll
                        save_checkpoint(self.checkpoint(), self.out_dir / "best.ckpt")
        save_checkpoint(self.checkpoint(), self.out_dir / "final.ckpt")
        return rows

    def _check_finite(self, row: dict) -> None:
        suspect = ["nll_per_step", "bpc"]
        if not math.isnan(row["disc_acc"]):   # nan exactly when no discriminator ran
            suspect += ["c_d", "c_f", "c_t", "disc_acc"]
        bad = [k for k in suspect if not math.isfinite(row[k])]
        if bad:
            raise TrainingDiverged(
                f"non-finite metrics {bad} at step {row['step']}; "
                "inspect the learning rate or the adversarial weight")

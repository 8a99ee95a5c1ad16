"""One benchmark workload, run in a process of its own.

Usage: ``python3 worker.py '<json spec>'``; ``run.py`` builds the spec
and sets ``OPENBLAS_NUM_THREADS=1`` before this process loads numpy.
The worker imports profforce from ``src/`` of the checkout it lives in,
drives it only through its public API, checks the outputs, and writes
its measurements as JSON to ``<out>/result.json``.

Spec keys: ``workload``, ``seed``, ``seconds``, ``trace`` (0/1), ``out``
(a directory), ``setup_only`` (stop once set-up is done).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracing import SpanSummary, Tracer

ROOT = Path(__file__).resolve().parent.parent

# Training workloads: the desk-copy preset sizes (B=8, T=50, gen_hidden=64,
# disc_hidden=64).  lr=1e-3 lets the discriminator reach the 0.75 gate
# within the first few steps for every seed, so the share of
# three-discriminator-call steps is comparable from seed to seed.
TRAIN_SETS = ("lr=1e-3", "val_every=20")
TRAIN_STEPS = 40
SUBRUNS = 4          # training runs per cycle, each from step 0 with its own seed
SAMPLE_LENGTH = 1000
SAMPLE_COUNT = 8
SAMPLE_CKPT_STEPS = 20
MIN_SAMPLES = 100    # so that p10 and p90 each have ten commands beyond them
PROBE_SEQS = 32      # state-gap probe, as in acceptance check A5

NAN_IN_TF = ("c_d", "c_f", "c_t", "disc_acc")  # adversarial columns, nan outside pf


def import_profforce():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import profforce
    import profforce.cli  # noqa: F401  (loads every module the tracer wraps)
    origin = Path(profforce.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"profforce imported from {origin}, not from {src}")
    return profforce


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def train_config(mode: str, seed: int, k: int, steps: int, sets=TRAIN_SETS):
    from profforce.config import build_config
    return build_config(None, "desk-copy", list(sets),
                        {"seed": 1000 * seed + k, "max_steps": steps, "mode": mode})


class Tally:
    """Attempted and failed operations and checks, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)
            print(f"check failed: {note}", file=sys.stderr)


# ---------------------------------------------------------------------------
# output checks


def check_curves(path: Path, steps: int, mode: str, tally: Tally) -> list[dict]:
    """One finite row per step; returns the parsed rows."""
    rows = []
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        tally.add(steps, steps, f"{path}: {e}")
        return rows
    header = lines[0].split(",") if lines else []
    bad = 0
    may_be_nan = NAN_IN_TF if mode != "professor_forcing" else ()
    for i, line in enumerate(lines[1:]):
        try:
            row = dict(zip(header, (float(v) for v in line.split(","))))
        except ValueError:
            row = {}
        if (len(row) != len(header) or row.get("step") != i
                or not all(math.isfinite(v) for k, v in row.items() if k not in may_be_nan)):
            bad += 1
        rows.append(row)
    missing = max(steps - len(rows), 0)
    tally.add(steps, min(bad + missing, steps),
              f"{path}: {bad} bad rows, {missing} missing of {steps}")
    return rows


def deterministic_digest(run_dir: Path) -> str:
    """Hash of curves.csv without its wallclock column, val.csv and final.ckpt."""
    h = hashlib.sha256()
    path = run_dir / "curves.csv"
    lines = path.read_text().splitlines() if path.exists() else []
    header = lines[0].split(",") if lines else []
    keep = [i for i, name in enumerate(header) if name != "wallclock_ms"]
    for line in lines:
        fields = line.split(",")
        h.update(",".join(fields[i] for i in keep if i < len(fields)).encode() + b"\n")
    for name in ("val.csv", "final.ckpt"):
        p = run_dir / name
        h.update(p.read_bytes() if p.exists() else b"missing")
    return h.hexdigest()


def check_checkpoint(path: Path, tally: Tally) -> None:
    """The checkpoint reloads (its CRC is checked) and saves again byte for byte."""
    from profforce.checkpoint import load_checkpoint, save_checkpoint
    again = path.with_name(path.name + ".resaved")
    try:
        save_checkpoint(load_checkpoint(path), again)
        same = again.read_bytes() == path.read_bytes()
    except Exception as e:  # any failure of the round trip is a failed check
        tally.add(1, 1, f"{path}: round trip raised {e!r}")
        return
    tally.add(1, 0 if same else 1, f"{path}: re-saved bytes differ")


def state_gap(pf, tracer, g, cfg) -> float:
    """TF/FR centroid distance at the last step on a fixed probe (the A5 measure)."""
    import numpy as np
    from profforce.data import synth_copy_task
    from profforce.diagnostics import centroid_distance
    with tracer.paused():
        probe = synth_copy_task(cfg.vocab_size, cfg.copy_pattern_len, cfg.seq_len,
                                PROBE_SEQS, np.random.default_rng([cfg.seed, 99]))
    tf_cloud, fr_cloud = pf.diagnostics.collect_state_clouds(
        g, probe.sequences, None, np.random.default_rng([cfg.seed, 98]))
    return centroid_distance(tf_cloud, fr_cloud)


# ---------------------------------------------------------------------------
# workloads


def training(pf, spec, tracer, tally: Tally, out: Path, mode: str) -> dict:
    seed, seconds = spec["seed"], spec["seconds"]
    cfgs = [train_config(mode, seed, k, TRAIN_STEPS) for k in range(SUBRUNS)]
    first = pf.trainer.Trainer(cfgs[0], out / "c0-r0")
    ready = time.monotonic()
    if spec["setup_only"]:
        return {"ready": ready}

    symbols = 0
    run_s = 0.0
    digests, final_nll, gate_gen, gate_disc, gaps = {}, [], [], [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        cycle_start = time.perf_counter()
        for k, cfg in enumerate(cfgs):
            run_dir = out / f"c{cycle}-r{k}"
            trainer = first if cycle == 0 and k == 0 else pf.trainer.Trainer(cfg, run_dir)
            t0 = time.perf_counter()
            try:
                trainer.run()
            except Exception:  # a failed run is counted below through its missing rows
                traceback.print_exc()
            run_s += time.perf_counter() - t0
            symbols += trainer.cfg.batch_n * trainer.cfg.seq_len * TRAIN_STEPS
            with tracer.paused():
                rows = check_curves(run_dir / "curves.csv", TRAIN_STEPS, mode, tally)
                check_checkpoint(run_dir / "final.ckpt", tally)
                digest = deterministic_digest(run_dir)
            if cycle == 0:
                digests[k] = digest
                final_nll.append(rows[-1].get("nll_per_step", math.nan) if rows else math.nan)
                gate_gen += [r.get("gate_gen", 0.0) for r in rows]
                gate_disc += [r.get("gate_disc", 0.0) for r in rows]
                gaps.append(state_gap(pf, tracer, trainer.g, trainer.cfg))
            else:
                tally.add(1, int(digest != digests[k]),
                          f"{run_dir}: outputs differ from the first run of the same config")
            shutil.rmtree(run_dir, ignore_errors=True)
        cycle += 1
        cycle_s = time.perf_counter() - cycle_start
        if time.perf_counter() - start + cycle_s > seconds:
            break
    return {
        "ready": ready,
        "symbols_per_s": symbols / run_s,
        "final_nll_per_step": sum(final_nll) / len(final_nll),
        "gate_gen_frac": sum(gate_gen) / max(len(gate_gen), 1),
        "gate_disc_frac": sum(gate_disc) / max(len(gate_disc), 1),
        "state_gap": sum(gaps) / len(gaps),
    }


def check_sample(path: Path, vocab: int, tally: Tally, rc: int) -> None:
    """``count`` lines of ``length`` ids, all inside the vocabulary."""
    ok = rc == 0
    if ok:
        try:
            lines = path.read_text().splitlines()
            ok = len(lines) == SAMPLE_COUNT and all(
                len(ids) == SAMPLE_LENGTH and all(0 <= i < vocab for i in ids)
                for ids in ([int(v) for v in line.split()] for line in lines))
        except (OSError, ValueError):
            ok = False
    tally.add(1, 0 if ok else 1, f"{path}: sample command exit {rc} or malformed output")


def sampling(pf, spec, tracer, tally: Tally, out: Path) -> dict:
    seed, seconds = spec["seed"], spec["seconds"]
    cfg = train_config("teacher_forcing", seed, 0, SAMPLE_CKPT_STEPS,
                       TRAIN_SETS[:1] + ("val_every=0",))
    trainer = pf.trainer.Trainer(cfg, out / "model")
    rows = trainer.run()
    ckpt = out / "model" / "final.ckpt"
    ready = time.monotonic()
    if spec["setup_only"]:
        return {"ready": ready}

    with tracer.paused():
        check_checkpoint(ckpt, tally)
    gap = state_gap(pf, tracer, trainer.g, trainer.cfg)
    sample_path = out / "sample.txt"
    start = time.perf_counter()
    k = 0
    while True:
        argv = ["sample", str(ckpt), "--length", str(SAMPLE_LENGTH),
                "--count", str(SAMPLE_COUNT), "--seed", str(1000 * seed + k),
                "--out", str(sample_path)]
        t0 = time.perf_counter()
        try:
            rc = pf.cli.main(argv)
        except Exception:  # counted as a failed command
            traceback.print_exc()
            rc = -1
        last_s = time.perf_counter() - t0
        check_sample(sample_path, trainer.cfg.vocab_size, tally, rc)
        sample_path.unlink(missing_ok=True)
        k += 1
        if k >= MIN_SAMPLES and time.perf_counter() - start + last_s > seconds:
            break
    run_s = sum(tracer.op_ms) / 1e3
    return {
        "ready": ready,
        "symbols_per_s": SAMPLE_LENGTH * SAMPLE_COUNT * len(tracer.op_ms) / run_s,
        "final_nll_per_step": rows[-1]["nll_per_step"],
        "gate_gen_frac": 0.0,
        "gate_disc_frac": 0.0,
        "state_gap": gap,
    }


# workload: (the operation's span name, its label, the loop)
WORKLOADS = {
    "pf-desk": ("engine.train_step", "train_step",
                functools.partial(training, mode="professor_forcing")),
    "tf-desk": ("engine.train_step", "train_step",
                functools.partial(training, mode="teacher_forcing")),
    "sample-long": ("cli.main", "sample command", sampling),
}


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def module_lines() -> dict[str, float]:
    out = {}
    for path in sorted((ROOT / "src" / "profforce").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        out[f"{name}.lines"] = float(len(path.read_text().splitlines()))
    out["src.lines"] = sum(out.values())
    return out


def layer_metrics(tracer, res: dict) -> dict[str, float]:
    s = SpanSummary(tracer)
    traced = [ms for ms, t in zip(tracer.op_ms, tracer.op_traced) if t]
    untraced = [ms for ms, t in zip(tracer.op_ms, tracer.op_traced) if not t]
    runs = max(s.count["trainer.Trainer.run"], 1)
    inits = max(s.count["trainer.Trainer.__init__"], 1)
    data_ms = sum(v for k, v in s.total.items() if k.startswith("data."))
    p50_t, p50_u = percentile(traced, 50), percentile(untraced, 50)
    training = tracer.op == "engine.train_step"
    m = repeatable(tracer, res)
    m.update({
        "tensor.backward_ms_per_step": s.per_op("tensor.backward"),
        "nets.bigru_encode_ms_per_step": s.per_op("nets.bigru_encode"),
        "nets.mlp_forward_ms_per_step": s.per_op("nets.mlp_forward"),
        "engine.ss_unroll_ms_per_step": s.per_op("engine.scheduled_sampling_unroll"),
        "engine.fr_unroll_ms_per_step": (s.per_op("engine.unroll_free_running")
                                         if training else 0.0),
        "engine.fr_unroll_ms_per_call": s.mean_in_op("engine.unroll_free_running"),
        "engine.discriminate_ms_per_step": s.per_op("engine.discriminate", self_time=True),
        "engine.train_step_self_ms": s.per_op("engine.train_step", self_time=True),
        "optim.adam_ms_per_step": s.per_op("optim.adam_step"),
        "trainer.init_ms": s.mean("trainer.Trainer.__init__"),
        "trainer.validate_ms": s.total["trainer.Trainer.validate"] / runs,
        "trainer.validate_calls": s.count["trainer.Trainer.validate"] / runs,
        "trainer.loop_self_ms_per_step": (s.self_time["trainer.Trainer.run"] / len(tracer.op_ms)
                                          if training and tracer.op_ms else 0.0),
        "checkpoint.save_ms": s.mean("checkpoint.save_checkpoint"),
        "checkpoint.saves": s.count["checkpoint.save_checkpoint"] / runs,
        "checkpoint.bytes": (sum(tracer.saved_bytes) / len(tracer.saved_bytes)
                             if tracer.saved_bytes else 0.0),
        "checkpoint.load_ms": s.mean("checkpoint.load_checkpoint"),
        "cli.sample_self_ms_per_call": (0.0 if training
                                        else s.per_op("cli.main", self_time=True)),
        "data.build_ms": data_ms / inits,
        "diagnostics.collect_ms": s.mean("diagnostics.collect_state_clouds"),
        "trace.op_ms_p50_traced": p50_t,
        "trace.op_ms_p50_untraced": p50_u,
        "trace.overhead_frac": p50_t / p50_u - 1.0 if p50_u else 0.0,
    })
    m.update(module_lines())
    return m


def repeatable(tracer, res: dict) -> dict[str, float]:
    """Work-mix counts and the state gap; for one seed they repeat exactly."""
    return {
        "tensor.tape_nodes_per_step": tracer.tape_nodes_in_op / max(len(tracer.op_ms), 1),
        "tensor.backward_calls_per_step": tracer.count_per_op("tensor.backward"),
        "engine.discriminate_calls_per_step": tracer.count_per_op("engine.discriminate"),
        "optim.adam_calls_per_step": tracer.count_per_op("optim.adam_step"),
        "engine.gate_gen_frac": res["gate_gen_frac"],
        "engine.gate_disc_frac": res["gate_disc_frac"],
        "diagnostics.state_gap": res["state_gap"],
    }


def main(spec: dict) -> int:
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    try:
        pf = import_profforce()
    except ImportError as e:
        print(f"perfbench: cannot import profforce from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    op, op_label, run = WORKLOADS[spec["workload"]]
    tracer = Tracer(op, spans=bool(spec["trace"]))
    tracer.install()
    tally = Tally()
    res = run(pf, spec, tracer, tally, out)
    result = {"ready": res["ready"]}
    if not spec["setup_only"]:
        ms = tracer.op_ms
        result.update({
            "op": op_label,
            "ops": len(ms),
            "op_ms": ms,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "notes": tally.notes[:20],
            "absent": tracer.absent,
            "env": environment(spec["seed"]),
            "e2e": {
                "op_ms.p10": percentile(ms, 10),
                "op_ms.p50": percentile(ms, 50),
                "op_ms.p90": percentile(ms, 90),
                "symbols_per_s": res["symbols_per_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "final_nll_per_step": res["final_nll_per_step"],
            },
            "repeatable": repeatable(tracer, res),
        })
        if spec["trace"]:
            result["per_layer"] = layer_metrics(tracer, res)
            tracer.write_spans(out / "spans.csv")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))

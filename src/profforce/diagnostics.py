"""Quantitative views of how far the two unroll regimes drift apart.

The central object is a state cloud: the top-layer hidden state at a
chosen timestep, one point per sequence, collected once under teacher
forcing and once free running.  Closer clouds mean the closed-loop
dynamics stayed in the region the network was trained in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import GeneratorParams, Mode, unroll_free_running, unroll_teacher_forced
from .tensor import stop_recording

__all__ = [
    "StateCloud",
    "DivergenceReport",
    "Projection",
    "centroid_distance",
    "mean_cross_distance",
    "divergence_report",
    "project_2d",
    "collect_state_clouds",
    "CURVE_COLUMNS",
    "write_cloud_csv",
    "write_projection_csv",
]


@dataclass
class StateCloud:
    """Hidden-state points [n, d] from one unroll regime."""

    points: np.ndarray
    mode: Mode

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("a state cloud is a nonempty [n, d] array")


@dataclass(frozen=True)
class DivergenceReport:
    centroid_distance: float
    mean_cross_distance: float
    n_tf: int
    n_fr: int


def _check_pair(a: StateCloud, b: StateCloud) -> None:
    if a.points.shape[1] != b.points.shape[1]:
        raise ValueError(f"cloud dims differ: {a.points.shape[1]} vs {b.points.shape[1]}")


def centroid_distance(a: StateCloud, b: StateCloud) -> float:
    """Euclidean distance between the cloud means."""
    _check_pair(a, b)
    return float(np.linalg.norm(a.points.mean(axis=0) - b.points.mean(axis=0)))


def mean_cross_distance(a: StateCloud, b: StateCloud) -> float:
    """Mean over all cross pairs of the pointwise Euclidean distance.

    By Jensen's inequality this is never below the centroid distance.
    """
    _check_pair(a, b)
    diff = a.points[:, None, :] - b.points[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=-1)).mean())


def divergence_report(a: StateCloud, b: StateCloud) -> DivergenceReport:
    return DivergenceReport(centroid_distance=centroid_distance(a, b),
                            mean_cross_distance=mean_cross_distance(a, b),
                            n_tf=a.points.shape[0], n_fr=b.points.shape[0])


@dataclass
class Projection:
    coords: np.ndarray    # [n, 2]
    variance: np.ndarray  # per-component variance, descending


def project_2d(points: np.ndarray) -> Projection:
    """Project onto the top two principal directions (``eigh`` of the covariance).

    Each direction is signed so that its largest-magnitude entry is
    positive, so the projection is deterministic.  An all-identical
    cloud reports zero variance and all-zero coordinates.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ValueError("project_2d needs at least 2 points of dimension >= 2")
    centered = x - x.mean(axis=0)
    if not centered.any():
        return Projection(coords=np.zeros((x.shape[0], 2)), variance=np.zeros(2))
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    evals, vecs = np.linalg.eigh(cov)
    top = vecs[:, :-3:-1]   # eigenvalues ascend: the last two, largest first
    top *= np.sign(top[np.abs(top).argmax(axis=0), [0, 1]])
    return Projection(coords=centered @ top, variance=evals[:-3:-1].clip(min=0.0))


def collect_state_clouds(g: GeneratorParams, y_sample, timestep: int | None,
                         rng: np.random.Generator,
                         temperature: float = 1.0) -> tuple[StateCloud, StateCloud]:
    """Hidden states at one timestep (1-based; default last) for both regimes.

    Both unroll only to that step and keep no per-step outputs: teacher
    forced over the given sequences, free running as many rows, which
    draw there what a full-length unroll draws (uniforms go in step order).
    """
    ids = np.asarray(y_sample, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError("y_sample must be [n, T]")
    n, t_len = ids.shape
    t = t_len if timestep is None else int(timestep)
    if not 1 <= t <= t_len:
        raise ValueError(f"timestep {t} outside 1..{t_len}")
    with stop_recording():
        tf = unroll_teacher_forced(g, ids[:, :t], keep_outputs=False)
        fr = unroll_free_running(g, t, rng, batch=n, temperature=temperature, keep_outputs=False)
    return (StateCloud(tf.hidden.data[0], Mode.TEACHER_FORCED),
            StateCloud(fr.hidden.data[0], Mode.FREE_RUNNING))


# ---------------------------------------------------------------------------
# CSV output

CURVE_COLUMNS = ("step", "nll_per_step", "bpc", "c_d", "c_f", "c_t",
                 "disc_acc", "gate_gen", "gate_disc", "wallclock_ms")


def _format_value(key: str, value) -> str:
    if key == "step":
        return str(int(value))
    if key in ("gate_gen", "gate_disc"):
        return str(int(bool(value)))
    return repr(float(value))


def format_curve_row(row: dict) -> str:
    """One curves.csv row; floats keep full round-trip precision."""
    return ",".join(_format_value(k, row[k]) for k in CURVE_COLUMNS)


def write_cloud_csv(clouds: list[StateCloud], timestep: int, path) -> None:
    """One row per point: mode, timestep, point index, then the coordinates."""
    lines = ["mode,t,index," + ",".join(f"h{i}" for i in range(clouds[0].points.shape[1]))]
    for cloud in clouds:
        for i, pt in enumerate(cloud.points):
            lines.append(f"{cloud.mode.value},{timestep},{i},"
                         + ",".join(repr(float(v)) for v in pt))
    Path(path).write_text("\n".join(lines) + "\n")


def write_projection_csv(clouds: list[StateCloud], path) -> Projection:
    """Project the union of the clouds to 2D and dump mode,x,y rows."""
    stacked = np.concatenate([c.points for c in clouds], axis=0)
    proj = project_2d(stacked)
    lines = ["mode,x,y"]
    offset = 0
    for cloud in clouds:
        for pt in proj.coords[offset:offset + cloud.points.shape[0]]:
            lines.append(f"{cloud.mode.value},{float(pt[0])!r},{float(pt[1])!r}")
        offset += cloud.points.shape[0]
    Path(path).write_text("\n".join(lines) + "\n")
    return proj

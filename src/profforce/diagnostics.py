"""Quantitative views of how far the two unroll regimes drift apart.

The central object is a state cloud: the top-layer hidden state at a
chosen timestep, one point per sequence, collected once under teacher
forcing and once free running.  Closer clouds mean the closed-loop
dynamics stayed in the region the network was trained in.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .engine import GeneratorParams, unroll_free_running, unroll_teacher_forced

__all__ = [
    "centroid_distance",
    "mean_cross_distance",
    "project_2d",
    "collect_state_clouds",
    "write_cloud_csv",
    "write_projection_csv",
]


def centroid_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between the means of two [n, d] clouds."""
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))


def mean_cross_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over all cross pairs of the pointwise Euclidean distance.

    By Jensen's inequality this is never below the centroid distance.
    """
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=-1)).mean())


def project_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project onto the top two principal directions (``eigh`` of the covariance).

    Returns the [n, 2] coordinates and the two variances, largest first.
    Each direction is signed so that its largest-magnitude entry is
    positive, so the projection is deterministic.  An all-identical
    cloud reports zero variance and all-zero coordinates.  The caller
    gives at least 2 points of dimension at least 2.
    """
    x = np.asarray(points, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    evals, vecs = np.linalg.eigh(cov)
    top = vecs[:, :-3:-1]   # eigenvalues ascend: the last two, largest first
    top *= np.sign(top[np.abs(top).argmax(axis=0), [0, 1]])
    return centered @ top, evals[:-3:-1].clip(min=0.0)


def collect_state_clouds(g: GeneratorParams, y_sample, timestep: int | None,
                         rng: np.random.Generator,
                         temperature: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Hidden states [n, H] at one timestep (1-based, within the sequences;
    None: the last) for both regimes, teacher forced first.

    Both unroll only to that step and keep no per-step outputs: teacher
    forced over the given sequences, free running as many rows, which
    draw there what a full-length unroll draws (noise is read in step order).
    """
    ids = np.asarray(y_sample, dtype=np.int64)
    t = ids.shape[1] if timestep is None else timestep
    tf = unroll_teacher_forced(g, ids[:, :t])
    fr = unroll_free_running(g, t, rng, batch=ids.shape[0], temperature=temperature)
    return tf.hidden[0], fr.hidden[0]


# ---------------------------------------------------------------------------
# CSV output

CLOUD_MODES = ("teacher_forced", "free_running")


def write_cloud_csv(clouds: tuple[np.ndarray, np.ndarray], timestep: int, path) -> None:
    """One row per point of the (teacher forced, free running) pair: mode,
    timestep, point index, then the coordinates."""
    lines = ["mode,t,index," + ",".join(f"h{i}" for i in range(clouds[0].shape[1]))]
    for mode, points in zip(CLOUD_MODES, clouds):
        for i, pt in enumerate(points):
            lines.append(f"{mode},{timestep},{i}," + ",".join(repr(float(v)) for v in pt))
    Path(path).write_text("\n".join(lines) + "\n")


def write_projection_csv(clouds: tuple[np.ndarray, np.ndarray], path):
    """Project the union of the (teacher forced, free running) pair to 2D,
    dump mode,x,y rows and return ``project_2d``'s (coords, variance)."""
    coords, variance = project_2d(np.concatenate(clouds, axis=0))
    lines = ["mode,x,y"]
    for mode, rows in zip(CLOUD_MODES, np.split(coords, [len(clouds[0])])):
        lines += [f"{mode},{float(x)!r},{float(y)!r}" for x, y in rows]
    Path(path).write_text("\n".join(lines) + "\n")
    return coords, variance

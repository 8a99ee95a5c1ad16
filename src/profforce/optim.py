"""Adam with bias correction.

    m <- b1 m + (1-b1) g          v <- b2 v + (1-b2) g^2
    m_hat = m / (1 - b1^t)        v_hat = v / (1 - b2^t)
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-4
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray], lr: float = 1e-4) -> "AdamState":
        return cls(lr=lr, t=0,
                   m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
    """One in-place update; the step counter advances exactly once per call."""
    if not (len(params) == len(grads) == len(state.m)):
        raise ValueError("params, grads and optimizer state must align")
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)

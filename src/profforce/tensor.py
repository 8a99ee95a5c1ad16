"""Dense float64 parameter tensors and the numpy softmax kernels.

A :class:`Tensor` is one parameter of a player of
:mod:`profforce.engine`: a float64 array that Adam updates in place and
the checkpoint stores under the parameter's name.  There is no autodiff
engine.  Each kernel a training step runs (the generator unroll and the
discriminator's encoder, MLP, head and c_d) returns its value together
with its backward closure, and :func:`profforce.engine.train_step` calls
those closures itself, in the reverse of the order it ran the kernels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor"]


class Tensor:
    """A float64 array, held uncopied if given as one."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def _stable_softmax(x: np.ndarray, out: np.ndarray | None = None,
                    col: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, written into ``out`` if given (``x`` may be
    it); both row reductions go into ``col`` ``[..., 1]`` if given."""
    out = np.subtract(x, np.maximum.reduce(x, -1, None, col, True), out)
    np.exp(out, out)
    out /= np.add.reduce(out, -1, None, col, True)
    return out


def _cross_entropy_rows(x: np.ndarray, t: np.ndarray):
    """Numpy cross entropy of each row of ``x`` [M, V] against its target.

    Returns the M losses with ``exp(x - max)`` and its row sums, from
    which the backward forms the softmax.
    """
    m = np.max(x, axis=-1)
    e = np.exp(x - m[:, None])
    s = np.sum(e, axis=-1)
    return m + np.log(s) - x[np.arange(x.shape[0]), t], e, s

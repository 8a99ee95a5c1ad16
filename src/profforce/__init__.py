"""Adversarial matching of teacher-forced and free-running GRU dynamics.

A self-contained float64 implementation whose parameters are plain numpy
arrays: kernels that return their backward closures (``profforce.nets``),
GRU generator and bidirectional-GRU discriminator with the gated
adversarial training step (``profforce.engine``), Adam
(``profforce.optim``), the training loop and checkpoint reading
(``profforce.trainer``), synthetic tasks, divergence diagnostics and a CLI.
Each name is imported from the module that defines it.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

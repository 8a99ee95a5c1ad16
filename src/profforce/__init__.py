"""Adversarial matching of teacher-forced and free-running GRU dynamics.

A self-contained float64 implementation: a small reverse-mode tape, GRU
generator and bidirectional-GRU discriminator, the gated adversarial
training step, synthetic tasks, divergence diagnostics and a CLI.
"""

from .engine import (
    DiscriminatorParams,
    GateState,
    GeneratorParams,
    discriminate,
    gate,
    loss_discriminator,
    loss_fool_free_running,
    loss_match_teacher_forced,
    train_step,
    unroll_free_running,
    unroll_teacher_forced,
)
from .optim import AdamState, adam_step
from .tensor import Tape, Tensor, backward, grad_check, stop_recording

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Tensor",
    "Tape",
    "backward",
    "grad_check",
    "stop_recording",
    "AdamState",
    "adam_step",
    "GateState",
    "GeneratorParams",
    "DiscriminatorParams",
    "gate",
    "discriminate",
    "loss_discriminator",
    "loss_fool_free_running",
    "loss_match_teacher_forced",
    "unroll_teacher_forced",
    "unroll_free_running",
    "train_step",
]

"""Training control: grouped Adam, gradient clipping, plateau LR schedule
and early stopping.

Two learning-rate groups exist: ``standard`` for weights and biases and
``novel`` for the parameters the aggregation layers tag ``NOVEL``, which
train ten times faster by default.  One "best value, stale count"
tracker, :class:`EarlyStopper`, drives both early stopping and the plateau
schedule.  It counts the very first observed metric as a non-improving
epoch, so a completely flat trace of length patience+1 triggers on
exactly that epoch.
"""

from __future__ import annotations

import numpy as np

from .layers import NOVEL, Parameter, STANDARD

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NonFiniteGradient(RuntimeError):
    """A NaN or Inf gradient reached the optimizer; the step is aborted."""


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale all gradients by max_norm/g when the global L2 norm g exceeds it.

    Never mutates its inputs: at or below the norm it returns the input
    arrays themselves, above it scaled copies.  Non-finite gradients, and
    finite ones whose norm overflows (a scale of max_norm / inf would
    zero them), abort with :class:`NonFiniteGradient` before any scaling.
    """
    total = 0.0
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in tensor {i}")
        with np.errstate(over="ignore"):
            total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if not np.isfinite(norm):
        raise NonFiniteGradient(f"global gradient norm overflows: {norm}")
    if norm <= max_norm:
        return list(grads)
    scale = max_norm / norm
    return [g * scale for g in grads]


class ParamGroup:
    """Parameters sharing one learning rate."""

    def __init__(self, tag: str, learning_rate: float, params: list[Parameter]):
        if learning_rate < 0:
            raise ValueError("learning rate must be non-negative")
        self.tag = tag
        self.learning_rate = learning_rate
        self.params = params


def build_param_groups(params: list[Parameter], lr_standard: float, lr_novel: float):
    """Partition parameters by tag into the two learning-rate groups.

    Membership is checked to be exhaustive and disjoint: every parameter
    appears once and carries one of the two known tags.
    """
    seen = set()
    for p in params:
        if id(p) in seen:
            raise ValueError(f"parameter {p.name} appears twice")
        seen.add(id(p))
        if p.tag not in (STANDARD, NOVEL):
            raise ValueError(f"unknown parameter tag {p.tag!r} on {p.name}")
    standard = [p for p in params if p.tag == STANDARD]
    novel = [p for p in params if p.tag == NOVEL]
    return [
        ParamGroup(STANDARD, lr_standard, standard),
        ParamGroup(NOVEL, lr_novel, novel),
    ]


class Adam:
    """Bias-corrected Adam over parameter groups, with the standard moment
    decays ``BETA1``, ``BETA2`` and denominator guard ``ADAM_EPS``.

    One shared step counter; per-parameter first/second moments.  Group
    learning rates are read at step time so the scheduler can rescale
    them in place.
    """

    def __init__(self, groups: list[ParamGroup]):
        self.step_count = 0
        self._state = [(g, p, np.zeros_like(p.data), np.zeros_like(p.data))
                       for g in groups for p in g.params]

    def step(self, clip_norm: float):
        """Apply one update using each parameter's current ``.grad``, after
        clipping the global norm across all groups to ``clip_norm``."""
        grads = clip_global_norm([p.grad for _, p, _, _ in self._state], clip_norm)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for (group, p, m, v), grad in zip(self._state, grads):
            if grad.shape != p.data.shape:
                raise ValueError(f"gradient shape {grad.shape} != {p.data.shape} for {p.name}")
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            mhat = m / bc1
            vhat = v / bc2
            p.data -= group.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)


class EarlyStopper:
    """Signal a stop after ``patience`` epochs without improvement and
    remember which epoch was best.

    An improvement is a decrease of more than ``min_delta`` below the best
    metric seen so far.
    """

    def __init__(self, patience=10, min_delta=1e-4):
        self.patience = patience
        self.min_delta = min_delta
        self.best = None
        self.best_epoch = None
        self.stale = 0
        self.epoch = 0

    def step(self, metric: float) -> bool:
        """Feed one epoch's validation metric; True means stop now."""
        if not np.isfinite(metric):
            raise ValueError("metric must be finite")
        self.epoch += 1
        if self.best is not None and metric < self.best - self.min_delta:
            self.best = metric
            self.best_epoch = self.epoch
            self.stale = 0
            return False
        if self.best is None:
            self.best = metric
            self.best_epoch = self.epoch
        self.stale += 1
        return self.stale > self.patience


class PlateauScheduler:
    """Halve all group learning rates after ``patience`` epochs without
    improvement, never below ``min_lr``; the plateau is tracked by an
    :class:`EarlyStopper` whose stale count restarts at each reduction."""

    def __init__(self, groups, factor=0.5, patience=5, min_delta=1e-4, min_lr=1e-6):
        self.groups = groups
        self.factor = factor
        self.min_lr = min_lr
        self.plateau = EarlyStopper(patience, min_delta)

    def step(self, metric: float) -> bool:
        """Feed one epoch's validation metric; True if rates were reduced."""
        if not self.plateau.step(metric):
            return False
        for g in self.groups:
            # rates at or under the floor stay put (a zero rate must not
            # be raised to min_lr)
            if g.learning_rate > self.min_lr:
                g.learning_rate = max(g.learning_rate * self.factor, self.min_lr)
        self.plateau.stale = 0
        return True

"""Gradient verification against central finite differences.

Finite differences live only here: ``numerical_gradient`` and ``relative_error`` feed
the one engine, ``_worst_errors``, behind ``grad_check`` and the tests' ``check_gradients``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, TimeMask, backward
from .errors import check_int, check_real
from .models import ModelSpec, build_model
from .training import bce_loss

FD_STEP = 1e-4
# refinement ladder for coordinates whose difference interval straddles a
# ReLU kink: a genuine gradient bug stays wrong as the step shrinks, while
# a kink straddle converges to the analytic value
FD_REFINE_STEPS = (1e-5, 1e-6)
GC_BATCH, GC_TIME = 2, 4  # the fixed random batch grad_check differentiates


@dataclass
class BlockReport:
    name: str
    worst_error: float
    passed: bool


@dataclass
class GradCheckReport:
    blocks: list
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.blocks)

    @property
    def worst(self) -> float:
        return max(b.worst_error for b in self.blocks)

    def lines(self):
        for b in self.blocks:
            yield f"{b.name}\t{b.worst_error:.3e}\t{'ok' if b.passed else 'FAIL'}"


def numerical_gradient(f, tensor: Tensor, step: float = 1e-5, indices=None) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. ``tensor``, at the flat
    ``indices`` only when given (0 elsewhere). ``f`` takes no arguments, re-reads
    ``tensor.data`` on each call and runs outside a ``Tape``, so it records nothing."""
    grad = np.zeros(tensor.data.size)
    coords = range(tensor.data.size) if indices is None else indices
    for i in coords:
        pos = np.unravel_index(i, tensor.data.shape)
        orig = tensor.data[pos]
        tensor.data[pos] = orig + step
        hi = float(f())
        tensor.data[pos] = orig - step
        lo = float(f())
        tensor.data[pos] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(tensor.data.shape)


def relative_error(analytic: float, numeric: float) -> float:
    """|a - n| / max(|a|, |n|, 1e-5): relative, but absolute near zero."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-5)


def _worst_errors(f, named_params, step, samples_per_block, rng, tolerance=0.0, refine_steps=()):
    """``{name: worst relative error}`` of analytic against numeric gradients.

    ``f`` rebuilds the forward pass and returns the scalar loss tensor. Each
    block is differenced at ``samples_per_block`` coordinates drawn from
    ``rng`` (all of them when None or not fewer than the block size). A
    coordinate whose error is not below ``tolerance`` is retried at each
    step of ``refine_steps`` in turn and keeps its smallest error.
    """
    named_params = list(named_params)
    for _, p in named_params:
        p.zero_grad()
    with Tape():
        backward(f())
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros(p.data.shape))
        for name, p in named_params
    }
    worst = {}
    for name, p in named_params:
        n = p.data.size
        if samples_per_block is None or samples_per_block >= n:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=samples_per_block, replace=False)
        a = analytic[name].reshape(-1)
        numeric = numerical_gradient(lambda: f().data, p, step=step, indices=idx).reshape(-1)
        errors = []
        for i in idx:
            err = relative_error(a[i], numeric[i])
            for fine in refine_steps:
                if err < tolerance:
                    break
                refined = numerical_gradient(lambda: f().data, p, step=fine, indices=[i])
                err = min(err, relative_error(a[i], refined.reshape(-1)[i]))
            errors.append(err)
        worst[name] = max(errors)
    return worst


def toy_spec(kind: str, seed: int = 0) -> ModelSpec:
    """A spec small enough for finite differencing in seconds."""
    return ModelSpec(
        kind=kind,
        vocab_size=5,
        visual_dim=9,
        audio_dim=4,
        hidden_size=6,
        depth=3,  # only the deep stacks read it
        trb_count=2,
        trb_filters=8,
        fc_sizes=(8, 5),
        vlad_clusters=4,
        seed=seed,
    )


def grad_check(
    spec: ModelSpec, sample_count: int = 6, tolerance: float = 1e-4, seed: int = 0
) -> GradCheckReport:
    """Check analytic gradients of every parameter block of a model.

    Builds the model at the spec's dimensions, runs a train-mode forward on
    a fixed random batch of ``GC_BATCH`` videos of at most ``GC_TIME`` frames
    with a binary cross-entropy loss, and compares the analytic gradient of
    ``sample_count`` coordinates per block (capped by block size) with
    central differences of step 1e-4. Failures are reported, never raised;
    a ``tolerance`` that is not finite and positive is.
    """
    sample_count, seed = check_int("sample_count", sample_count, 1), check_int("seed", seed, 0)
    tolerance = check_real("tolerance", tolerance, positive=True)
    rng = np.random.default_rng(seed)
    model = build_model(spec)
    if spec.kind == "vlad_mlp":
        centers = model.tensors["codebook.centers"].data
        centers[...] = rng.normal(size=centers.shape)
    visual = Tensor(rng.normal(size=(GC_BATCH, spec.visual_dim, GC_TIME)))
    audio = Tensor(rng.normal(size=(GC_BATCH, spec.audio_dim, GC_TIME)))
    lengths = rng.integers(1, GC_TIME + 1, size=GC_BATCH)
    lengths[0] = GC_TIME
    mask = TimeMask(GC_BATCH, GC_TIME, lengths)
    targets = (rng.random(size=(GC_BATCH, spec.vocab_size)) < 0.4).astype(np.float64)

    def loss_fn():
        return bce_loss(model.forward(visual, audio, mask, train=True), targets)

    worst = _worst_errors(
        loss_fn, model.named_parameters(), FD_STEP, sample_count, rng, tolerance, FD_REFINE_STEPS
    )
    blocks = [BlockReport(name, err, err < tolerance) for name, err in worst.items()]
    return GradCheckReport(blocks, tolerance)

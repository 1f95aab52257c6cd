"""The tests' gradient check: tape gradients against central differences.

The package has no caller of a gradient check, so it lives here, beside
the tests that run it on every op, the decoder, TAN and the losses.
`grad_check` takes float64 leaves only: central differences need double
precision.
"""

from dataclasses import dataclass, field

import numpy as np

from querytrack.autodiff import GradientError, Tape, Tensor


@dataclass
class GradCheckReport:
    """Per-input relative errors between tape and central-difference gradients.

    The error measure is |a - n| / max(|a|, |n|, 1): absolute near zero,
    relative at scale.
    """

    passed: bool
    max_rel_err: float
    tol: float
    rel_errs: list = field(repr=False, default_factory=list)


def grad_check(f, inputs, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of the scalar f(*inputs) with central differences.

    `inputs` tensors are used as the differentiation leaves; each cell of
    their data is perturbed in place (and restored) for the numeric side,
    whatever the array's layout, so a leaf that views another array (say
    `Tensor(a.T)`) is perturbed where f reads it. Every leaf must be
    float64: in float32 the rounding of f swamps a difference at eps.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    if isinstance(inputs, Tensor):
        inputs = [inputs]
    for i, t in enumerate(inputs):
        if t.data.dtype != np.float64:
            raise TypeError(
                f"grad_check input {i} {t!r} is {t.data.dtype}; gradient checks need float64"
            )
    for t in inputs:
        t.requires_grad = True
        t.reset_grad()

    with Tape() as tape:
        out = f(*inputs)
    if out.data.shape != ():
        raise GradientError(f"grad_check needs a scalar function, got {out.shape}")
    tape.backward(out)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    rel_errs = []
    worst = 0.0
    for t, a in zip(inputs, analytic):
        data = t.data
        err = np.zeros(data.shape)
        for k in np.ndindex(data.shape):
            keep = data[k]
            data[k] = keep + eps
            f_plus = f(*inputs).item()
            data[k] = keep - eps
            f_minus = f(*inputs).item()
            data[k] = keep
            n = (f_plus - f_minus) / (2.0 * eps)
            err[k] = abs(a[k] - n) / max(abs(a[k]), abs(n), 1.0)
        rel_errs.append(err)
        if err.size:
            worst = max(worst, float(err.max()))
    return GradCheckReport(passed=worst < tol, max_rel_err=worst, tol=tol, rel_errs=rel_errs)

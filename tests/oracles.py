"""Reference functions that only the tests use."""

import numpy as np

from tailcens import MdpdWindow, OrderedSample, TailConfig


def mdpd_residual(gamma1: float, sample: OrderedSample, config: TailConfig) -> float:
    """Residual of the MDPD estimating equation at gamma1, alpha > 0."""
    if gamma1 <= 0:
        raise ValueError(f"gamma1={gamma1} must be > 0")
    config.check_against(sample.n)
    return MdpdWindow(sample, config.k).residual(gamma1, config.alpha)


def phi(x, alpha: float, gamma1: float):
    """Bias kernel (alpha/gamma1^(alpha+3)) (A - B log x) x^-c on x >= 1.

    A = gamma1 (1 + alpha + alpha gamma1), B = alpha (1 + gamma1) and
    c = (alpha + gamma1 + alpha gamma1) / gamma1.  Vectorized over x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1):
        raise ValueError("phi domain is x >= 1")
    a_lin = gamma1 * (1.0 + alpha + alpha * gamma1)
    b_lin = alpha * (1.0 + gamma1)
    decay = (alpha + gamma1 + alpha * gamma1) / gamma1
    out = alpha / gamma1 ** (alpha + 3) * (a_lin - b_lin * np.log(x)) * x ** (-decay)
    return float(out) if out.ndim == 0 else out

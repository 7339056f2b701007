"""Exact Gaussian mutual informations over the aligned extended channel.

All quantities are log-det expressions in bits (base-2) over the F-slot
extension. The primary evaluator takes two scaled Cholesky log-dets; an
independent Schur-complement path is kept alongside as a cross-check oracle.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "MiValue",
    "SlopeEstimate",
    "McEstimate",
    "receiver_gains",
    "mi_from_gains",
    "mi_schur",
    "estimate_slope",
    "expectation",
    "DEFAULT_RHO_GRID",
]

DEFAULT_RHO_GRID = (1e4, 1e6, 1e8, 1e10, 1e12)


class NumericalError(RuntimeError):
    """A factorization failed; carries the offending condition number."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


@dataclass
class MiValue:
    bits: float
    condition_hint: float = 0.0


@dataclass
class SlopeEstimate:
    """High-SNR slope in bits per log2(rho), fit on the top half of the grid."""

    slope: float
    intercept: float
    grid: tuple
    residual: float
    points_used: int


@dataclass
class McEstimate:
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    std_err: np.ndarray
    trials: int

    @property
    def ci_halfwidth(self):
        return self.ci_high - self.mean


def receiver_gains(net, aset, receiver):
    """Effective gain matrices H_{i,k} V_k for every transmitter at one receiver."""
    K = net.dims.K
    return [net.links[receiver][k].apply(aset.matrix(k)) for k in range(K)]


def _logdet2_eye_plus(acc, F):
    """log2 det(I + acc) via scaled Cholesky; acc must be PSD Hermitian."""
    t = 1.0 + float(np.trace(acc).real)
    if t <= 0:
        raise NumericalError(f"accumulated covariance has negative trace ({t - 1.0:.3e})")
    c = (np.eye(F) + acc) / t
    c = (c + c.conj().T) / 2.0
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(c))
        raise NumericalError(
            f"accumulated covariance not positive definite (cond {cond:.3e})",
            condition_number=cond,
        ) from exc
    diag = np.diag(chol).real
    hint = float((diag.max() / diag.min()) ** 2) if diag.min() > 0 else np.inf
    return float(F * np.log2(t) + 2.0 * np.sum(np.log2(diag))), hint


def _accumulate(gains, powers, users, F):
    acc = np.zeros((F, F), dtype=complex)
    for k in users:
        g = gains[k]
        acc += powers[k] * (g @ g.conj().T)
    return acc


def mi_from_gains(gains, powers, signal, conditioned=()):
    """Mutual information of the signal set given the conditioned set, in bits.

    Conditioned users are removed outright; remaining non-signal users stay in
    the noise covariance. Evaluates log2 det(I + Q_{S u N}) - log2 det(I + Q_N).
    The signal set must be nonempty and disjoint from the conditioned set.
    """
    K = len(gains)
    F = gains[0].shape[0]
    signal = set(signal)
    conditioned = set(conditioned)
    if not signal:
        raise ValueError("signal set must be nonempty")
    if signal & conditioned:
        raise ValueError("signal and conditioning sets must be disjoint")
    noise = [k for k in range(K) if k not in signal and k not in conditioned]
    top, hint_top = _logdet2_eye_plus(_accumulate(gains, powers, sorted(signal) + noise, F), F)
    bot, hint_bot = _logdet2_eye_plus(_accumulate(gains, powers, noise, F), F)
    bits = top - bot
    if bits < 0:
        # exact value is nonnegative; only rounding can push it below zero
        bits = max(bits, 0.0) if bits > -1e-6 * max(1.0, abs(top)) else bits
        if bits < 0:
            raise NumericalError(f"negative mutual information {bits}", condition_number=hint_top)
    return MiValue(bits=bits, condition_hint=max(hint_top, hint_bot))


def mi_schur(gains, powers, signal, conditioned=()):
    """Independent evaluation path: whiten by the noise covariance, then one log-det.

    Solves (I + Q_N) X = B for the stacked signal factor B and applies the
    determinant identity det(I + B^H X) = det(I + Q_{S u N}) / det(I + Q_N).
    """
    K = len(gains)
    F = gains[0].shape[0]
    signal = sorted(set(signal))
    conditioned = set(conditioned)
    noise = [k for k in range(K) if k not in signal and k not in conditioned]
    sigma = np.eye(F) + _accumulate(gains, powers, noise, F)
    b = np.hstack([np.sqrt(powers[k]) * gains[k] for k in signal])
    x = np.linalg.solve(sigma, b)
    small = np.eye(b.shape[1]) + b.conj().T @ x
    small = (small + small.conj().T) / 2.0
    sign, logdet = np.linalg.slogdet(small)
    if sign.real <= 0:
        raise NumericalError("Schur path lost positive definiteness")
    return float(logdet / np.log(2.0))


def estimate_slope(f, grid=DEFAULT_RHO_GRID):
    """Least-squares slope of f(rho) against log2(rho) on the top half of the grid.

    Regression over several top points suppresses the O(1/log rho) transients
    that two-point differencing would inherit.
    """
    grid = tuple(float(r) for r in grid)
    if len(grid) < 3:
        raise ValueError("need at least 3 grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid[-1] / grid[0] < 1e4:
        raise ValueError("grid must span at least 4 decades")
    values = np.array([float(f(r)) for r in grid])
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite evaluation on the rho grid")
    lo = len(grid) // 2
    x = np.log2(grid[lo:])
    y = values[lo:]
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fit = design @ np.array([slope, intercept])
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    return SlopeEstimate(
        slope=float(slope),
        intercept=float(intercept),
        grid=grid,
        residual=residual,
        points_used=len(x),
    )


def expectation(draw, statistic, trials, workers=1):
    """Monte Carlo mean with a normal-approximation 95% interval.

    `draw(t)` produces the t-th realization and `statistic` maps it to a
    scalar or 1-D vector. Trials may be evaluated concurrently; the reduction
    always runs in trial order, so the result is a pure function of the
    caller's seeding.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")

    def one(t):
        return np.atleast_1d(np.asarray(statistic(draw(t)), dtype=float))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, range(trials)))
    else:
        rows = [one(t) for t in range(trials)]
    data = np.stack(rows, axis=0)
    mean = data.mean(axis=0)
    std_err = data.std(axis=0, ddof=1) / np.sqrt(trials)
    half = 1.96 * std_err
    return McEstimate(
        mean=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        std_err=std_err,
        trials=trials,
    )

"""Exact Gaussian mutual informations over the aligned extended channel.

All quantities are log-det expressions in bits over the F-slot extension,
taken from the singular values s_j of a stacked factor B:
log2 det(I + e B B^H) = sum_j log1p(e s_j^2) / ln 2. Every user loads the same
scalar e = rho - eps onto its unit-power factor G_k sqrt(F / m_k) (a beam of
m_k unit columns spends m_k / F per slot at unit stream power), so one SVD
per (receiver, user set) gives the log-det at every rho. One layer serves
both rate rules: the unit-power factors of a row, the spectra of user sets,
and one rule I(X_S; Y | X_C) = ld(U - C) - ld(U - C - S) over a table of
log-dets keyed by user bitmask (user u is bit 1 << u), a user set's one form.
The confidential rule, the ergodic pass and its audit all read it.
The eigenvalues of the Gram B B^H would square its condition number (3.2e-4
relative error at rho = 1e12); the SVD stays within 1.3e-14 of a 60-digit
reference on every grid rho. `mi_from_gains` and a Schur-complement path
(`mi_schur`) are kept as independent cross-check oracles. Each takes one
network's effective gains or a stack of them, [T, F, m_k] per user, and
gives a stack one value per network, each with the bits a call on that
network alone would give. Every SVD of the package goes through one hub,
`_singular_values`, which runs those of fewer than 512 rows on one
OpenBLAS thread, so their values do not depend on OPENBLAS_NUM_THREADS.
"""

import collections
import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "MiValue",
    "SlopeEstimate",
    "receiver_gains",
    "mi_from_gains",
    "spectra_table",
    "mi_schur",
    "estimate_slope",
    "expectation",
    "DEFAULT_RHO_GRID",
]

DEFAULT_RHO_GRID = (1e4, 1e6, 1e8, 1e10, 1e12)

# Below this many rows an SVD runs faster on one OpenBLAS thread than on two.
# On a 2-core x86-64 host, ms per SVD of an F x 1.2F complex matrix, one
# thread against two: F=128 3.0-3.8 vs 6.4-6.6, F=275 18 vs 23-27, F=400
# 59-64 vs 58-62, F=550 157-165 vs 133-136, F=1000 880-911 vs 567-570. So
# the F = 33 and 275 points run on one thread; F = 1267 and 2049 keep the
# environment's count. A fixed rule, so records at F < 512 do not depend on
# OPENBLAS_NUM_THREADS.
_SINGLE_THREAD_ROWS = 512
# held across set, SVD and restore, so that concurrent runs never restore
# the count between another run's set and its SVD
_BLAS_LOCK = threading.Lock()
# (prefix, suffix) of OpenBLAS's thread-count functions, in the order tried
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
_OpenBlas = collections.namedtuple("_OpenBlas", "set get threads")


class NumericalError(RuntimeError):
    """A numerical evaluation broke down; a failed factorization carries its
    matrix's condition number."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


@dataclass
class MiValue:
    bits: float


@dataclass
class SlopeEstimate:
    """High-SNR slope in bits per log2(rho), fit on the top half of the grid."""

    slope: float
    residual: float


@dataclass
class McEstimate:
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    trials: int

    @property
    def ci_halfwidth(self):
        return self.ci_high - self.mean


def receiver_gains(net, aset, receiver):
    """Effective gain matrices H_{i,k} V_k for every transmitter at one receiver."""
    return aset.apply(net.gains[receiver])


@functools.cache
def _openblas():
    """The OpenBLAS numpy's linalg links: its thread-count functions and the count
    it reported at first use, the one every pinned call restores; None if none resolves.

    Resolved under the lock, so that no concurrent pinned call's count is read.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        for prefix, suffix in _OPENBLAS_NAMES:
            if hasattr(lib, f"{prefix}set_num_threads{suffix}"):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                with _BLAS_LOCK:
                    return _OpenBlas(getattr(lib, f"{prefix}set_num_threads{suffix}"), get, get())
    except (AttributeError, OSError):
        pass
    return None


@contextlib.contextmanager
def _blas_pinned(rows):
    """One OpenBLAS thread inside for fewer than `_SINGLE_THREAD_ROWS` rows, else a no-op."""
    blas = _openblas() if rows < _SINGLE_THREAD_ROWS else None
    if blas is None or blas.threads == 1:
        yield
        return
    with _BLAS_LOCK:
        blas.set(1)
        try:
            yield
        finally:
            blas.set(blas.threads)


def _singular_values(a):
    """The singular values of a, or of each matrix of a stack, descending: every SVD's one call."""
    with _blas_pinned(a.shape[-2]):
        return np.linalg.svd(a, compute_uv=False)


def _squared_singular_values(blocks):
    """Squared singular values of the column stack of `blocks` (none: empty).

    Blocks with leading batch axes give one stacked singular-value call.
    """
    if not blocks:
        return np.zeros(0)
    return _singular_values(np.concatenate(blocks, axis=-1)) ** 2


def _log2det(s2, load=1.0):
    """log2 det(I + load B B^H) from the squared singular values s2 of B.

    An array of loads gives one log-det per load, each summed as a scalar
    load's would be; spectra stacked along leading axes give one log-det (or
    one per load, on the last axis) per spectrum.
    """
    bits = np.log1p(np.multiply.outer(load, s2)).sum(axis=-1) / np.log(2.0)
    return float(bits) if np.ndim(bits) == 0 else np.moveaxis(bits, 0, -1)


def _mi_bits(top, bot):
    """top - bot for nested log-dets, elementwise; the exact value is nonnegative."""
    bits = np.subtract(top, bot)
    # only rounding can push it below zero
    wrong = bits < -1e-6 * np.fmax(1.0, np.abs(top))
    if wrong.any():
        raise NumericalError(f"negative mutual information {np.min(bits)}")
    return np.where(bits < 0, 0.0, bits)[()]


def mi_from_gains(gains, powers, signal, conditioned=()):
    """Mutual information of the signal set given the conditioned set, in bits.

    Conditioned users are removed outright; remaining non-signal users stay in
    the noise covariance. Evaluates log2 det(I + Q_{S u N}) - log2 det(I + Q_N)
    on the sqrt(P_k)-scaled stacked factors.
    The signal set must be nonempty and disjoint from the conditioned set.
    Gains stacked as [T, F, m_k] give one value per network, an array [T],
    each the bits of that network's gains alone; `powers` is shared.
    """
    K = len(gains)
    signal = set(signal)
    conditioned = set(conditioned)
    if not signal:
        raise ValueError("signal set must be nonempty")
    if signal & conditioned:
        raise ValueError("signal and conditioning sets must be disjoint")
    noise = [k for k in range(K) if k not in signal and k not in conditioned]
    scaled = {k: np.sqrt(powers[k]) * gains[k] for k in sorted(signal) + noise}
    top = _log2det(_squared_singular_values(list(scaled.values())))
    bot = _log2det(_squared_singular_values([scaled[k] for k in noise]))
    return MiValue(bits=_mi_bits(top, bot))


def _subsets(K, proper=False):
    """The nonempty sets of users 0..K-1 as user bitmasks, an int64 array.

    Ordered by size, then lexicographically; `proper` leaves out the full set.
    """
    masks = range(1, 2**K - 1 if proper else 2**K)
    return np.array(sorted(masks, key=lambda s: (s.bit_count(), _members(s))), dtype=np.int64)


def _members(mask):
    """The users of one bitmask, in increasing order: a list."""
    return [u for u in range(int(mask).bit_length()) if mask >> u & 1]


def _sizes(masks):
    """The number of users in each bitmask of `masks`, an int array of its shape."""
    return (np.asarray(masks)[..., None] >> np.arange(63) & 1).sum(axis=-1)


def _unit_factors(aset, row):
    """Unit-power factors B_k = G_k sqrt(F / m_k) of one row of diagonals.

    With every user at per-stream power P_k = load F / m_k (`stream_power`),
    a user set S has log2 det(I + Q_S) = sum_j log1p(load s_j^2) / ln 2 over
    the squared singular values s_j^2 of its stacked factor [B_k], k in S.
    A stacked `aset` and row give stacked factors.
    """
    return [g * np.sqrt(g.shape[-2] / g.shape[-1]) for g in aset.apply(row)]


def _set_spectra(factors, masks):
    """Squared singular values of each user set's factors, stacked in user order, by bitmask."""
    return {int(s): _squared_singular_values([factors[k] for k in _members(s)]) for s in masks}


def _receiver_spectra(gains, aset):
    """Per receiver i, the spectra of the others' and of all users' unit-power factors.

    `gains[..., i, k, :]` is the diagonal from transmitter k to receiver i,
    over any batch axes `aset` shares. Returns K pairs (others, all users),
    one SVD each, every set stacked in user order.
    """
    full = 2 ** gains.shape[-3] - 1
    units = (_unit_factors(aset, gains[..., i, :, :]) for i in range(gains.shape[-3]))
    return [tuple(_set_spectra(u, [full & ~(1 << i), full]).values()) for i, u in enumerate(units)]


def _log2dets(spectra, load, K):
    """The log-dets of `spectra` at `load`, a table [..., 2^K] whose column S is user bitmask S.

    The empty set reads exactly 0 and a set with no spectrum NaN. Stacked
    spectra, or an array of loads, give the leading axes `_log2det` gives.
    """
    lds = {mask: _log2det(s2, load) for mask, s2 in spectra.items()}
    table = np.full((*np.shape(next(iter(lds.values()))), 2**K), np.nan)
    table[..., 0] = 0.0
    for mask, ld in lds.items():
        table[..., mask] = ld
    return table


def _set_mi(ld, signal, conditioned=0):
    """I(X_S; Y | X_C) = ld(rest) - ld(rest - S) in bits, rest = all users - C.

    `ld` is a `_log2dets` table; S and C are user bitmasks, or int arrays
    of them that broadcast, giving one MI per entry on the table's last axis,
    each clamped as a scalar's would be.
    """
    signal, conditioned = np.broadcast_arrays(signal, conditioned)
    rest = (ld.shape[-1] - 1) & ~conditioned
    return _mi_bits(ld[..., rest], ld[..., rest & ~signal])


def spectra_table(net, aset, spectra=None):
    """Every receiver's spectra for the confidential rate rule; rho-independent.

    Per receiver i, one (sets, inflated) pair. `sets` holds the spectra of
    every user set that contains i, and of the others, keyed by user
    bitmask. `inflated` is the spectrum of all users with every other user's
    factor weighted by sqrt(m_k). Every set is stacked in user order. That
    is 2^(K-1) + 2 SVDs per receiver; those of the others and all users
    are `spectra` when given (`_receiver_spectra`, as the point's
    verification read).
    """
    K = net.dims.K
    if spectra is None:
        spectra = _receiver_spectra(net.gains, aset)
    table, full, proper = [], 2**K - 1, _subsets(K, proper=True)
    for i, (others_s2, everyone_s2) in enumerate(spectra):
        unit = _unit_factors(aset, net.gains[i])
        sets = _set_spectra(unit, proper[proper >> i & 1 == 1])
        sets.update({full & ~(1 << i): others_s2, full: everyone_s2})
        for k in _members(full & ~(1 << i)):  # weighted in place, once the sets' spectra are taken
            unit[k] *= np.sqrt(net.dims.streams[k])
        table.append((sets, _squared_singular_values(unit)))
    return table


def mi_schur(gains, powers, signal, conditioned=()):
    """Independent evaluation path: whiten by the noise covariance, then one log-det.

    Solves (I + Q_N) X = B for the stacked signal factor B and applies the
    determinant identity det(I + B^H X) = det(I + Q_{S u N}) / det(I + Q_N).
    Gains stacked as [T, F, m_k] give one value per network, an array [T];
    a failure reports the worst condition number of the failing networks'
    noise covariances.
    """
    K = len(gains)
    F = gains[0].shape[-2]
    signal = sorted(set(signal))
    conditioned = set(conditioned)
    noise = [k for k in range(K) if k not in signal and k not in conditioned]
    sigma = np.broadcast_to(np.eye(F, dtype=complex), (*gains[0].shape[:-2], F, F)).copy()
    for k in noise:
        sigma += powers[k] * (gains[k] @ gains[k].conj().swapaxes(-1, -2))
    b = np.concatenate([np.sqrt(powers[k]) * gains[k] for k in signal], axis=-1)
    x = np.linalg.solve(sigma, b)
    small = np.eye(b.shape[-1]) + b.conj().swapaxes(-1, -2) @ x
    small = (small + small.conj().swapaxes(-1, -2)) / 2.0
    sign, logdet = np.linalg.slogdet(small)
    lost = sign.real <= 0
    if lost.any():
        raise NumericalError(
            "Schur path lost positive definiteness",
            condition_number=float(np.max(np.linalg.cond(sigma[lost]))),
        )
    bits = logdet / np.log(2.0)
    return float(bits) if np.ndim(bits) == 0 else bits


def estimate_slope(values, grid=DEFAULT_RHO_GRID):
    """Least-squares slope of a curve against log2(rho) on the top half of the grid.

    `values` holds the curve at each grid rho, as a rate rule returns it.
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
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite evaluation on the rho grid")
    lo = len(grid) // 2
    x = np.log2(grid[lo:])
    y = values[lo:]
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.sqrt(np.mean((y - design @ coef) ** 2)))
    return SlopeEstimate(slope=float(coef[0]), residual=residual)


def expectation(rows, trials, batch):
    """Monte Carlo mean with a normal-approximation 95% interval.

    Trials come `batch` at a time, in trial order: `rows(r)` returns one row
    (a 1-D vector) per trial of the range r, as a 2-D array, so the result
    is a pure function of the caller's seeding.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    data = None
    for start in range(0, trials, batch):
        block = np.asarray(rows(range(start, min(start + batch, trials))), dtype=float)
        if data is None:  # each table lands in one preallocated array
            data = np.empty((trials, block.shape[1]))
        data[start : start + len(block)] = block
    mean = data.mean(axis=0)
    half = 1.96 * (data.std(axis=0, ddof=1) / np.sqrt(trials))
    return McEstimate(
        mean=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        trials=trials,
    )

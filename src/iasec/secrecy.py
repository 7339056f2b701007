"""Rate calculus for the confidential-messages model, as curves over the rho grid.

The common secrecy rate R and randomization rate Rx come from the aligned
channel's mutual informations: R trades the worst own-stream rate against the
worst leakage, Rx fills the smallest per-user share of any cross multiple
access region so the randomization indices saturate every eavesdropping
receiver. The equivocation deficit delta_hat tracks how far the scheme sits
from perfect secrecy at finite SNR. Each rule takes the whole grid at once:
every quantity is an array with one entry per grid point, the last axis.
"""

from dataclasses import dataclass

import numpy as np

from .gaussmi import _log2det, _log2dets, _set_mi, _sizes, _subsets, estimate_slope

__all__ = [
    "MAX_ENUM_USERS",
    "RateCurve",
    "EquivocationReport",
    "confidential_rates",
    "decodability_check",
    "randomization_region_check",
    "equivocation_deficit",
]

# Subset minima must be exact, so enumeration is exhaustive and capped.
MAX_ENUM_USERS = 6

_SLACK_TOL = 1e-9


@dataclass
class RateCurve:
    """Common secrecy/randomization rates in bits per frequency-time slot, per grid point.

    The per-receiver mutual informations the rates come from are kept, in
    bits over the F-slot extension, so every check reads them instead of
    recomputing them. G is the number of grid points and S the number of
    subsets of the others per receiver (`subset_masks`, all the others last).
    """

    R: np.ndarray  # [G], R_raw clamped at zero
    Rx: np.ndarray  # [G]
    R_raw: np.ndarray  # [G]
    Rx_raw: np.ndarray  # [G]
    clamped: np.ndarray  # [G], either raw rate negative
    F: int
    own_bits: np.ndarray  # [K, G]: I(X_i; Y_i) per receiver
    cross_bits: np.ndarray  # [K, G]: I(X_{K-i}; Y_i) per receiver
    leak_upper_bits: np.ndarray  # [K, G]: relaxed upper bound on I(X_{K-i}; Y_i)
    subset_bits: np.ndarray  # [K, S, G]: I(X_S; Y_i | X_rest)
    subset_masks: np.ndarray  # [K, S]: the user bitmask of each subset S
    binding: np.ndarray  # [2, G]: the receiver and the subset's bitmask that set Rx


def confidential_rates(net, spectra, loads):
    """Rate curve of the confidential-messages model over the array of loads.

    R  = min_i I(X_i;Y_i)/F - max_i I(X_{K-i};Y_i) / ((K-1)F)
    Rx = min over receivers i and nonempty S of I(X_S;Y_i|X_rest)/(|S| F)

    Every mutual information is read from `spectra` (`spectra_table`) at
    each load rho - eps of `loads`. Negative formula outputs clamp to zero
    with the flag set; the subset minimum is enumerated exhaustively
    (2^(K-1)-1 subsets per receiver), the first minimal one binding.

    The leakage bound brackets the input-distribution maximization of
    I(X_{K-i}; Y_i) from above: every other user's per-stream power is
    inflated to its whole per-user budget (m_k P_k on each stream), a
    relaxation that can only increase the log-det. The codebook's isotropic
    value, `cross_bits`, brackets it from below, and both share the same
    high-SNR slope.
    """
    K, F = net.dims.K, net.dims.F
    if K > MAX_ENUM_USERS:
        raise ValueError(f"subset enumeration capped at K={MAX_ENUM_USERS}")
    full, nonempty = 2**K - 1, _subsets(K)
    own, cross, leak_upper, subset_bits, subset_masks = [], [], [], [], []
    for i, (sets, inflated) in enumerate(spectra):
        ld = _log2dets(sets, loads, K)
        others = full & ~(1 << i)
        own.append(_set_mi(ld, 1 << i))
        masks = nonempty[nonempty >> i & 1 == 0]
        # conditioning on the rest of the others leaves only user i as noise
        bits = _set_mi(ld, masks, others & ~masks)
        subset_bits.append(bits.T)
        subset_masks.append(masks)
        cross.append(bits[..., -1])
        # the cross term with every other user at its whole budget: only ld(all users) changes
        ld[..., full] = _log2det(inflated, loads)
        leak_upper.append(_set_mi(ld, others))
    own, cross, subset_bits, subset_masks = map(np.array, (own, cross, subset_bits, subset_masks))
    r_raw = own.min(axis=0) / F - cross.max(axis=0) / ((K - 1) * F)
    bits, sizes = subset_bits.reshape(subset_masks.size, -1), _sizes(subset_masks).ravel()
    pick = np.argmin(bits / sizes[:, None], axis=0)
    rx_raw = bits[pick, np.arange(len(pick))] / (sizes[pick] * F)
    receiver, column = np.unravel_index(pick, subset_masks.shape)
    return RateCurve(
        R=np.maximum(r_raw, 0.0),
        Rx=np.maximum(rx_raw, 0.0),
        R_raw=r_raw,
        Rx_raw=rx_raw,
        clamped=(r_raw < 0) | (rx_raw < 0),
        F=F,
        own_bits=own,
        cross_bits=cross,
        leak_upper_bits=np.array(leak_upper),
        subset_bits=subset_bits,
        subset_masks=subset_masks,
        binding=np.array([receiver, subset_masks[receiver, column]]),
    )


def decodability_check(rates):
    """Check R + Rx <= I(X_k;Y_k)/F for every user: the slack [K, G] and a pass mask [G]."""
    total = rates.R + rates.Rx
    slack = rates.own_bits / rates.F - total
    return slack, (slack >= -_SLACK_TOL * np.maximum(1.0, total)).all(axis=0)


def randomization_region_check(rates):
    """Check |S| Rx <= I(X_S;Y_i|X_rest)/F for every receiver and subset.

    Returns the slack [K, S, G], laid out as `subset_bits`, and a pass mask [G].
    """
    slack = rates.subset_bits / rates.F - _sizes(rates.subset_masks)[..., None] * rates.Rx
    return slack, (slack >= -_SLACK_TOL * np.maximum(1.0, rates.Rx)).all(axis=(0, 1))


@dataclass
class EquivocationReport:
    """Equivocation deficit, pointwise on the grid and via the high-SNR trend.

    `delta_hat` is the trend value: the regression slopes of the worst-case
    numerator and of the denominator, taken over the top of the rho grid and
    divided. The pointwise ratios at each grid rho are `pointwise` (NaN where
    the denominator is not positive); they carry O(1) mutual-information
    constants that die off only as log(rho) grows, so the trend value is the
    one to compare against analytic targets. The Fano residual is taken as
    zero throughout (no finite-blocklength decoder exists in this laboratory).
    """

    pointwise: np.ndarray
    delta_hat: float
    num_slope: float
    den_slope: float
    degenerate: bool


def equivocation_deficit(rates, grid):
    """Evaluate the deficit bound from the rate curve on the increasing rho `grid`.

    Per receiver the numerator is the relaxed upper bound on the leakage MI
    minus (K-1) F Rx; the common denominator is (K-1) F R. Worst case over
    receivers is reported.
    """
    K, F = len(rates.own_bits), rates.F
    worst = (rates.leak_upper_bits - (K - 1) * F * rates.Rx_raw).max(axis=0)
    den = (K - 1) * F * rates.R_raw
    pointwise = np.divide(worst, den, out=np.full(den.shape, np.nan), where=den > 0)
    num_fit, den_fit = estimate_slope(worst, grid), estimate_slope(den, grid)
    degenerate = den_fit.slope <= 0
    return EquivocationReport(
        pointwise=pointwise,
        delta_hat=num_fit.slope / den_fit.slope if not degenerate else float("nan"),
        num_slope=num_fit.slope,
        den_slope=den_fit.slope,
        degenerate=degenerate,
    )

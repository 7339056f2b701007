"""Rate calculus for the confidential-messages model.

The common secrecy rate R and randomization rate Rx come from the aligned
channel's mutual informations: R trades the worst own-stream rate against the
worst leakage, Rx fills the smallest per-user share of any cross multiple
access region so the randomization indices saturate every eavesdropping
receiver. The equivocation deficit delta_hat tracks how far the scheme sits
from perfect secrecy at finite SNR.
"""

from dataclasses import dataclass

from .gaussmi import _log2det, _log2dets, _set_mi, _subsets, estimate_slope

__all__ = [
    "MAX_ENUM_USERS",
    "RateAssignment",
    "DecodabilityReport",
    "RegionReport",
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
class RateAssignment:
    """Common secrecy/randomization rates in bits per frequency-time slot.

    The per-receiver mutual informations the rates come from are kept, in
    bits over the F-slot extension, so every check reads them instead of
    recomputing them.
    """

    R: float
    Rx: float
    R_raw: float
    Rx_raw: float
    clamped: bool
    F: int
    own_bits: tuple  # I(X_i; Y_i) per receiver
    cross_bits: tuple  # I(X_{K-i}; Y_i) per receiver
    leak_upper_bits: tuple  # relaxed upper bound on I(X_{K-i}; Y_i) per receiver
    binding_receiver: int
    binding_subset: tuple
    subset_bits: dict  # (receiver, subset) -> I(X_S; Y_i | X_rest)


def confidential_rates(net, spectra, load):
    """Rate assignment for the confidential-messages model at one rho.

    R  = min_i I(X_i;Y_i)/F - max_i I(X_{K-i};Y_i) / ((K-1)F)
    Rx = min over receivers i and nonempty S of I(X_S;Y_i|X_rest)/(|S| F)

    Every mutual information is read from `spectra` (`spectra_table`) at
    load = rho - eps. Negative formula outputs clamp to zero with the flag
    set; the subset minimum is enumerated exhaustively (2^(K-1)-1 subsets per
    receiver).

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
    everyone = frozenset(range(K))
    own = []
    cross = []
    leak_upper = []
    subset_bits = {}
    for i, (sets, inflated) in enumerate(spectra):
        ld = _log2dets(sets, load)
        others = tuple(k for k in range(K) if k != i)
        own.append(_set_mi(ld, everyone, {i}))
        for sub in _subsets(others):
            # conditioning on the rest of the others leaves only user i as noise
            subset_bits[(i, sub)] = _set_mi(ld, everyone, sub, set(others).difference(sub))
        cross.append(subset_bits[(i, others)])
        # the cross term with every other user at its whole budget: only ld(all users) changes
        leak_upper.append(_set_mi({**ld, everyone: _log2det(inflated, load)}, everyone, others))
    r_raw = min(own) / F - max(cross) / ((K - 1) * F)
    binding = min(subset_bits, key=lambda key: subset_bits[key] / len(key[1]))
    rx_raw = subset_bits[binding] / (len(binding[1]) * F)
    clamped = r_raw < 0 or rx_raw < 0
    return RateAssignment(
        R=max(r_raw, 0.0),
        Rx=max(rx_raw, 0.0),
        R_raw=r_raw,
        Rx_raw=rx_raw,
        clamped=clamped,
        F=F,
        own_bits=tuple(own),
        cross_bits=tuple(cross),
        leak_upper_bits=tuple(leak_upper),
        binding_receiver=binding[0],
        binding_subset=binding[1],
        subset_bits=subset_bits,
    )


@dataclass
class DecodabilityReport:
    slack: tuple  # per user, bits per slot
    passed: bool

    @property
    def worst_slack(self):
        return min(self.slack)


def decodability_check(rates):
    """Assert R + Rx <= I(X_k;Y_k)/F for every user, reporting the slack."""
    total = rates.R + rates.Rx
    slack = tuple(b / rates.F - total for b in rates.own_bits)
    passed = all(s >= -_SLACK_TOL * max(1.0, total) for s in slack)
    return DecodabilityReport(slack=slack, passed=passed)


@dataclass
class RegionReport:
    entries: list  # (receiver, subset, slack)
    passed: bool

    @property
    def binding(self):
        return min(self.entries, key=lambda e: e[2])


def randomization_region_check(rates):
    """Check |S| Rx <= I(X_S;Y_i|X_rest)/F for every receiver and subset."""
    entries = [
        (i, sub, bits / rates.F - len(sub) * rates.Rx)
        for (i, sub), bits in sorted(rates.subset_bits.items())
    ]
    passed = all(s >= -_SLACK_TOL * max(1.0, rates.Rx) for _, _, s in entries)
    return RegionReport(entries=entries, passed=passed)


@dataclass
class EquivocationPoint:
    rho: float
    delta_hat: float
    numerator_worst: float
    numerators: tuple
    denominator: float
    degenerate: bool
    clamped: bool


@dataclass
class EquivocationReport:
    """Equivocation deficit, pointwise on the grid and via the high-SNR trend.

    `delta_hat` is the trend value: the regression slopes of the worst-case
    numerator and of the denominator, taken over the top of the rho grid and
    divided. Pointwise ratios at each grid rho are kept in `points`; they
    carry O(1) mutual-information constants that die off only as log(rho)
    grows, so the trend value is the one to compare against analytic targets.
    The Fano residual is taken as zero throughout (no finite-blocklength
    decoder exists in this laboratory).
    """

    points: list
    delta_hat: float
    num_slope: float
    den_slope: float
    degenerate: bool


def equivocation_deficit(curve):
    """Evaluate the deficit bound from the rate assignments on a rho grid.

    `curve` maps each grid rho, in increasing order, to its RateAssignment.
    Per receiver the numerator is the relaxed upper bound on the leakage MI
    minus (K-1) F Rx; the common denominator is (K-1) F R. Worst case over
    receivers is reported.
    """
    points = []
    for rho, rates in curve.items():
        K, F = len(rates.own_bits), rates.F
        nums = tuple(upper - (K - 1) * F * rates.Rx_raw for upper in rates.leak_upper_bits)
        den = (K - 1) * F * rates.R_raw
        worst = max(nums)
        degenerate = den <= 0
        points.append(
            EquivocationPoint(
                rho=float(rho),
                delta_hat=worst / den if not degenerate else float("nan"),
                numerator_worst=worst,
                numerators=nums,
                denominator=den,
                degenerate=degenerate,
                clamped=rates.clamped,
            )
        )
    by_rho = dict(zip(curve, points))
    num_fit = estimate_slope(lambda r: by_rho[r].numerator_worst, tuple(curve))
    den_fit = estimate_slope(lambda r: by_rho[r].denominator, tuple(curve))
    degenerate = den_fit.slope <= 0
    return EquivocationReport(
        points=points,
        delta_hat=num_fit.slope / den_fit.slope if not degenerate else float("nan"),
        num_slope=num_fit.slope,
        den_slope=den_fit.slope,
        degenerate=degenerate,
    )

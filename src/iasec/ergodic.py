"""Block-fading machinery for the external-eavesdropper model.

Each fading block redraws the channel and a uniform random user ordering; the
large-stream role rotates so every user's effective channel is identically
distributed. Rates are expectations over blocks: the eavesdropper's whole
multiple-access capacity is spent on randomization messages, split evenly,
and what remains of each user's own-stream rate is secret.

`ergodic_pass` makes one pass over the blocks of a (K, m) point, a chunk of
blocks at a time. A chunk's blocks are sampled, built and verified together,
and their unit-power spectra are taken with one stacked singular-value call
per role set, the receivers' ones read by the verification too; blocks
whose draw does not align are redrawn together, one stacked call per draw.
Every mutual information at every grid load rho - eps is a difference of two
log-dets read from the spectra, so each block yields one row of named
statistics: the rate statistics at each load, plus the budget and
inequality-audit statistics at the top load. One `expectation` reduces the
rows in trial order, and `ErgodicPass.stats(name)` reads one statistic's
columns. `ergodic_rates` reads the rate curves over the whole grid, and
`eavesdropper_budget_check` and `mi_inequality_audit` read the top load.
"""

from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentSet, _chunk, align_first_valid
from .gaussmi import (
    McEstimate,
    _log2det,
    _log2dets,
    _mi_bits,
    _set_mi,
    _set_spectra,
    _sizes,
    _squared_singular_values,
    _subsets,
    _unit_factors,
    expectation,
)
from .model import (
    SystemDims,
    _TAG_PERM,
    _TAG_RETRY,
    _paths,
    _stream_seeds,
    _streams,
    sample_eavesdropper_block,
    sample_gains,
)

__all__ = [
    "MAX_AUDIT_USERS",
    "Blocks",
    "ErgodicPass",
    "ErgodicEstimate",
    "BudgetReport",
    "InequalityAuditReport",
    "block_network",
    "ergodic_pass",
    "ergodic_rates",
    "eavesdropper_budget_check",
    "mi_inequality_audit",
]

_TOL = 1e-9
_BLOCK_ATTEMPTS = 4  # draws per block before a degenerate block aborts the pass
MAX_AUDIT_USERS = 4  # the audits enumerate every pair of user sets, so they stop at this K


def _block_orders(K, seed, index):
    """Each block's role ordering, [B, K]: a permutation drawn from the block's own stream."""
    return np.array([rng.permutation(K) for rng in _streams(_paths(seed, _TAG_PERM, index))])


@dataclass
class Blocks:
    """Fading blocks stacked along a leading axis, in role coordinates.

    Role r of block j belongs to user perm[j, r], and role 0 carries the
    (m+1)^M streams; mutual informations are computed in role coordinates
    and mapped back through `perm` where a user-indexed quantity is needed.
    `attempts[j]` is the index of the draw that aligned (0 unless resampled).
    """

    dims: SystemDims
    index: object  # the blocks' indices, a sequence
    perm: np.ndarray  # [B, K]
    gains: np.ndarray  # [B, K, K, F], role-ordered
    eavesdropper: np.ndarray  # [B, K, F], role-ordered
    aset: AlignmentSet  # stacked beams [B, F, m_k]
    attempts: np.ndarray  # [B]
    spectra: list  # the verification's `_receiver_spectra`: others, all roles


def _align_blocks(dims, seed, index):
    """Draw and align the fading blocks `index` together, each under its drawn ordering perm.

    The blocks' link gains and eavesdropper rows come from one sampler call
    each, on the same (seed, link, block) streams as a block drawn alone.
    Each grid is reindexed so that user perm[0] takes the large-stream role,
    and `align_first_valid` builds and verifies the beams.
    The blocks whose draw fails (numerically degenerate realizations) are
    redrawn together, one stacked call per draw: draw a >= 1 of block t is
    sampled at a seed taken from (seed, t, a), up to `_BLOCK_ATTEMPTS` draws
    in all, keeping long Monte Carlo runs total without touching any
    non-degenerate block. Eavesdropper rows always come from the master seed.
    """
    B = len(index)
    perm = _block_orders(dims.K, seed, index)

    def draw(attempt, rows):
        blocks = [index[j] for j in rows]
        seeds = [seed] * len(rows)
        if attempt:
            seeds = _stream_seeds(seed, _TAG_RETRY, blocks, attempt)
        order = perm[rows]
        at = np.arange(len(rows))[:, None, None]
        return sample_gains(dims, seeds, blocks)[at, order[..., None], order[:, None]]

    gains, aset, spectra, attempts = align_first_valid(
        draw, B, dims.m, _BLOCK_ATTEMPTS, lambda j: f"block {index[j]}: degenerate"
    )
    eavesdropper = sample_eavesdropper_block(dims, seed, index)[np.arange(B)[:, None], perm]
    return Blocks(dims, index, perm, gains, eavesdropper, aset, attempts, spectra)


def block_network(dims, seed, block_index):
    """Draw and align one fading block as `ergodic_pass` does: its one-block `Blocks`.

    The grid and eavesdropper row are reindexed so that user perm[0] takes
    the large-stream role, the beams are verified, and a degenerate draw is
    redrawn at the pass's retry seeds.
    """
    return _align_blocks(dims, seed, [block_index])


def _audit_sets(K):
    """Lemma 3's disjoint pairs (two arrays), Lemma 4's strict subsets, the symmetry conditions.

    All are user bitmasks; the conditions are the empty set, then each set of K - 2 users or fewer.
    """
    nonempty = _subsets(K)
    first, second = np.meshgrid(nonempty, nonempty, indexing="ij")
    disjoint = first & second == 0
    strict = _subsets(K, proper=True)
    sym_conds = np.concatenate([[0], strict[_sizes(strict) <= K - 2]])
    return (first[disjoint], second[disjoint]), strict, sym_conds


@dataclass
class ErgodicPass:
    """One pass over fading blocks: every block's statistics, reduced in trial order.

    `layout` maps each statistic's name to its columns of `estimate`, in the
    order `_block_rows` makes them: own, eav, eav_up, R and Rx (one column
    per load), the Lemma 5 budget's rhs and paired slack (one column per
    nonempty user set, at the top load) and, for K <= `MAX_AUDIT_USERS`,
    lemma3, lemma4 and one ("symmetry", cond bitmask) group per cond set.
    """

    dims: SystemDims
    estimate: McEstimate
    layout: dict  # name -> slice of the estimate's columns
    resampled_blocks: list  # indices of the blocks whose first draw did not align

    def stats(self, name):
        """The estimate of one named statistic, one entry per column."""
        est, cols = self.estimate, self.layout[name]
        return McEstimate(est.mean[cols], est.ci_low[cols], est.ci_high[cols], est.trials)


def ergodic_pass(dims, loads, trials, seed):
    """Build each of `trials` fading blocks once and reduce one row per block.

    Block t is the block `block_network(dims, seed, t)` draws;
    blocks are drawn, built and verified a chunk at a time, sized so that a
    chunk's stacked arrays stay near the shared chunk size, and the chunk
    boundaries never change a row. Each block's spectra are those of the
    unit-power factors G_k sqrt(F / m_k), from the same `gaussmi` layer the
    confidential rates read: all roles and the others at each role's
    receiver (2K, which the verification read), every nonempty role set at
    the eavesdropper (2^K - 1), and the eavesdropper's inflated set with
    every role weighted by its stream count (1), each one stacked call per
    chunk. Each user loads rho - eps onto its unit-power factor, so each
    spectrum gives its log-det at every entry of the array `loads` at once,
    and every MI is a difference of two of them; `gaussmi._set_mi` reads the
    eavesdropper's from a table keyed by user bitmask. The budget and audit
    statistics are taken at the last load. All statistics are reduced in
    one table, whose columns `ErgodicPass.layout` names.
    """
    audit_sets = _audit_sets(dims.K) if dims.K <= MAX_AUDIT_USERS else None
    resampled, layout = [], {}

    def rows(index):
        blocks = _align_blocks(dims, seed, index)
        resampled.extend(t for t, a in zip(blocks.index, blocks.attempts) if a)
        groups = _block_rows(blocks, loads, audit_sets)
        if not layout:
            ends = np.cumsum([0, *(g.shape[1] for g in groups.values())]).tolist()
            layout.update(zip(groups, map(slice, ends, ends[1:])))
        return np.column_stack(list(groups.values()))

    est = expectation(rows, trials, _chunk(dims))
    return ErgodicPass(dims=dims, estimate=est, layout=layout, resampled_blocks=sorted(resampled))


def _block_rows(blocks, loads, audit_sets):
    """The named statistics of each block of a chunk, [B, n] each: see `ErgodicPass`."""
    dims, aset, B = blocks.dims, blocks.aset, len(blocks.index)
    K, F = dims.K, dims.F
    nonempty = _subsets(K)
    # I(X_r; Y_r) = ld(all roles) - ld(the others), averaged over the roles
    own = sum(_mi_bits(_log2det(a, loads), _log2det(o, loads)) for o, a in blocks.spectra) / K
    unit = _unit_factors(aset, blocks.eavesdropper)
    eaves = _log2dets(_set_spectra(unit, nonempty), loads, K)  # [B, G, 2^K], by role bitmask
    full = 2**K - 1
    # with no noise users left, each eavesdropper MI is its log-det alone
    eav = eaves[..., full]
    inflated = [np.sqrt(dims.streams[r]) * unit[r] for r in range(K)]
    eav_up = _log2det(_squared_singular_values(inflated), loads)
    groups = {
        "own": own, "eav": eav, "eav_up": eav_up,
        "R": (K * own - eav_up) / (K * F), "Rx": eav / (K * F),
    }

    # the top-load table by user bitmask: role r belongs to user perm[r], so
    # role set R is the user set summing 1 << perm[r] over the bits r of R;
    # every rhs and audit MI is read from it by the one `_set_mi` rule
    role_bits = np.arange(2**K)[:, None] >> np.arange(K) & 1  # [2^K, K]
    users = (1 << blocks.perm) @ role_bits.T  # [B, 2^K]
    top = np.empty((B, 2**K))
    top[np.arange(B)[:, None], users] = eaves[:, -1]
    rhs = _set_mi(top, nonempty, full & ~nonempty) / F
    groups.update(rhs=rhs, slack=rhs - _sizes(nonempty) * (eav[:, -1:] / (K * F)))
    if audit_sets is not None:
        (m_sets, l_sets), strict, sym_conds = audit_sets
        plain = _set_mi(top, m_sets)
        viol = plain > _set_mi(top, m_sets, l_sets) + _TOL * np.fmax(1.0, plain)
        groups["lemma3"] = viol.sum(axis=1, keepdims=True)  # 0/1 counts
        lemma4 = _set_mi(top, full & ~strict) / (K - _sizes(strict))
        groups["lemma4"] = lemma4 - _set_mi(top, strict, full & ~strict) / _sizes(strict)
        singles = 1 << np.arange(K)
        for cond in sym_conds.tolist():
            groups["symmetry", cond] = _set_mi(top, singles[singles & cond == 0], cond)
    return groups


@dataclass
class ErgodicEstimate:
    R: np.ndarray
    Rx: np.ndarray
    R_raw: np.ndarray
    clamped: np.ndarray
    R_ci: tuple  # (low, high) arrays


def ergodic_rates(pass_):
    """Monte Carlo rate curves for the ergodic external-eavesdropper model.

    R  = (K E[I(X;Y|H)] - E_upper[I(X_all;Y_e|H,H_e)]) / (K F)
    Rx = E[I(X_all;Y_e|H,H_e)] / (K F)

    E[I(X;Y|H)] averages each user's own-stream MI over blocks and the random
    role rotation; the eavesdropper term's input maximization is bracketed by
    inflating every user's per-stream power to its whole budget. Every field
    is an array with one entry per load of the pass.
    """
    if pass_.estimate.trials < 30:
        raise ValueError("ergodic estimates need at least 30 trials")
    r = pass_.stats("R")
    return ErgodicEstimate(
        R=np.maximum(r.mean, 0.0),
        Rx=pass_.stats("Rx").mean,
        R_raw=r.mean,
        clamped=r.mean < 0,
        R_ci=(r.ci_low, r.ci_high),
    )


@dataclass
class BudgetReport:
    entries: list  # (subset, lhs bits/slot, rhs mean bits/slot, paired ci_half, slack)
    passed: bool


def eavesdropper_budget_check(pass_):
    """Check |S| Rx <= E[I(X_S;Y_e|X_rest,H,H_e)]/F for every nonempty user set S.

    Rx is the pass's own randomization rate, and everything is read at its
    top load. The confidence allowance comes from the paired per-block
    differences against the same block's randomization-rate sample, which
    cancels the role-rotation swing shared by both sides. With the full set
    the inequality is an identity of the rate rule, so its slack sits at
    numerical zero.
    """
    rhs, slack = pass_.stats("rhs"), pass_.stats("slack")
    rx = float(pass_.stats("Rx").mean[-1])
    sets = _subsets(pass_.dims.K).tolist()
    entries = [
        (sub, sub.bit_count() * rx, mean, half, gap)
        for sub, mean, gap, half in zip(sets, rhs.mean, slack.mean, slack.ci_halfwidth)
    ]
    ok = all(gap >= -(half + _TOL * max(1.0, lhs)) for _, lhs, _, half, gap in entries)
    return BudgetReport(entries=entries, passed=ok)


@dataclass
class InequalityAuditReport:
    lemma3_violations: int
    lemma4_passed: bool
    symmetry_passed: bool

    @property
    def passed(self):
        return self.lemma3_violations == 0 and self.lemma4_passed and self.symmetry_passed


def mi_inequality_audit(pass_):
    """Audit the conditioning and averaging inequalities behind the rate rule.

    Per realization: conditioning on a disjoint user set never lowers the
    eavesdropper's MI about the remaining set (checked for every disjoint
    pair, exhaustively for K <= `MAX_AUDIT_USERS`). In expectation: the
    per-user normalized conditional MI of S given its complement dominates
    that of the complement alone, and single-user conditional MIs agree
    across users. Read at the pass's top load.
    """
    if pass_.dims.K > MAX_AUDIT_USERS:
        raise ValueError(f"disjoint-pair enumeration is exhaustive only up to K={MAX_AUDIT_USERS}")
    if pass_.estimate.trials < 30:
        raise ValueError("audits need at least 30 trials")
    _, _, sym_conds = _audit_sets(pass_.dims.K)
    lemma3_viol = int(round(float(pass_.stats("lemma3").mean[0] * pass_.estimate.trials)))
    lemma4 = pass_.stats("lemma4")
    sym_ok = True
    for cond in sym_conds.tolist():
        sym = pass_.stats(("symmetry", cond))
        means, halves = sym.mean, sym.ci_halfwidth
        # every pair of users agrees within the sum of their half-widths
        sym_ok &= bool((np.abs(means[:, None] - means) <= halves[:, None] + halves).all())
    return InequalityAuditReport(
        lemma3_violations=lemma3_viol,
        lemma4_passed=not (lemma4.mean > lemma4.ci_halfwidth + _TOL).any(),
        symmetry_passed=sym_ok,
    )

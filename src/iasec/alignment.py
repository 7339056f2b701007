"""Symbol-extension interference-alignment beamformers and their verification.

The construction works on diagonal F x F channels, read from a network's
(K, K, F) gain array. Ratio matrices taken around user 0 commute (all
diagonal), and power products of the normalized generators applied to a
fixed start vector give user 0 a basis of (m+1)^M columns while every other
user reuses a shifted m^M-column block. That makes all interference at each
receiver collapse into an F - m_i dimensional subspace, leaving the intended
streams linearly independent of it.

The result is one F x m_k beam matrix V_k per user, held by an
`AlignmentSet`; its `apply` turns a row of diagonals H_k (a receiver's row
of the gain array, or the eavesdropper row) into the effective gains
H_k V_k that verification and every mutual information read.
"""

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .model import sample_gains, sub_rng

__all__ = [
    "AlignmentError",
    "GeneratorSet",
    "AlignmentSet",
    "AlignmentReport",
    "FullRankAudit",
    "build_generators",
    "build_beamformers",
    "align_first_valid",
    "verify_alignment",
    "check_full_rank",
    "rank_failures",
    "stream_power",
    "numerical_rank",
]

# Singular values below max(shape) * sigma_max * RANK_TOL_FACTOR count as zero.
RANK_TOL_FACTOR = 1e-10

# Default ceiling for subspace-containment residuals.
RESIDUAL_TOL = 1e-8

_TAG_AUDIT = 11

# The stacked arrays of one chunk of networks (full-rank-audit redraws or
# ergodic fading blocks) stay near this size. On a 2-core x86-64 host with
# OpenBLAS, chunks of 1 MiB ran no faster at K=3 or 4 and raised peak
# resident memory by 1 to 4 MiB.
_CHUNK_BYTES = 1 << 18


def _chunk(item_bytes):
    """How many networks of `item_bytes` stacked bytes each fill one chunk."""
    return max(1, _CHUNK_BYTES // item_bytes)


class AlignmentError(RuntimeError):
    """Raised when construction or verification of the beamformers fails."""


@dataclass
class GeneratorSet:
    """The M commuting diagonal generators, stored as diagonal vectors."""

    generators: np.ndarray  # M x F: one diagonal per row
    anchor_ratio: np.ndarray  # diagonal of the ratio matrix of the anchor pair (1, 2)
    seed_vector: np.ndarray  # row-equilibrated start vector (entrywise nonzero)

    @property
    def M(self):
        return len(self.generators)


@dataclass
class AlignmentSet:
    """Beams V_k (F x m_k, one per user) plus their power normalizers c_k = tr(V V^H)/F.

    A stack of alignments carries leading batch axes: beams [..., F, m_k]
    and normalizers [..., K].
    """

    beams: list
    power_normalizers: np.ndarray

    def apply(self, row):
        """Effective gains [H_k V_k for every k], where row[..., k, :] is the diagonal of H_k."""
        return [row[..., k, :, None] * v for k, v in enumerate(self.beams)]

    def __getitem__(self, j):
        """The alignment of network j of a stack."""
        return AlignmentSet([v[j] for v in self.beams], self.power_normalizers[j])


def build_generators(net):
    """Form the M = (K-1)(K-2)-1 diagonal generators from the channel ratios.

    For every ordered pair (i, j) of users in 1..K-1 with i != j the ratio
    S[i,j] = H[i,0]^-1 H[i,j] H[0,j]^-1 is diagonal; dividing out the anchor
    pair (1, 2) leaves M generators whose exponent products build the bases.

    The start vector may be any entrywise-nonzero vector without touching the
    construction's spans; picking w = prod_l |r_l|^(-m/2) equilibrates the
    power-product rows (the mean exponent over the 0..m lattice is m/2 per
    generator) and keeps the basis orders of magnitude away from numerical
    rank collapse as m and the generator count grow.
    """
    dims = net.dims
    gens, s0, w, zero = _generators(net.gains, dims.m)
    if zero:
        raise AlignmentError("zero diagonal entry while inverting the channel ratios")
    assert len(gens) == dims.M
    return GeneratorSet(generators=gens, anchor_ratio=s0, seed_vector=w)


def _generators(gains, m):
    """Generators, anchor ratio and start vector over any leading batch axes.

    `gains[..., i, k, :]` is the diagonal from transmitter k to receiver i.
    Returns gens[..., M, F], the anchor ratio and the start vector (each
    [..., F]), and a mask [...] of the networks that divide by a zero
    diagonal entry; their other outputs are meaningless.
    """
    K = gains.shape[-3]
    rows, cols = np.array([(i, j) for i in range(1, K) for j in range(1, K) if i != j]).T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = gains[..., rows, 0, :] * gains[..., 0, cols, :]
        ratios = gains[..., rows, cols, :] / denom
        s0 = ratios[..., 0, :]  # the anchor pair (1, 2) comes first
        gens = ratios[..., 1:, :] / s0[..., None, :]
        log_rows = np.zeros(s0.shape)
        for l in range(gens.shape[-2]):
            log_rows += np.log(np.abs(gens[..., l, :]))
        w = np.exp(-0.5 * m * log_rows).astype(complex)
    zero = _has_zero(denom).any(axis=-1) | _has_zero(s0)
    return gens, s0, w, zero


def _has_zero(diag):
    return (np.abs(diag) < 1e-300).any(axis=-1)


def _beams(rx0, gens, s0, w, m):
    """Unit-column beamformers [V_0, ..., V_{K-1}], each [..., F, m_k].

    Works over the leading batch axes of its inputs: `rx0[..., k, :]` is the
    diagonal from transmitter k to receiver 0, and gens[..., M, F], s0 and w
    come from `_generators`. V_0 holds w times every power product of the
    generators with exponents in 0..m, in `itertools.product` order; the
    shared block is its columns with every exponent below m. Also returns
    the mask of networks whose shared-block rotation divides by a zero
    diagonal entry.
    """
    M = gens.shape[-2]
    powers = [[None] + [gens[..., l, :] ** a for a in range(1, m + 1)] for l in range(M)]
    cols, shared = [], []
    for alpha in itertools.product(range(m + 1), repeat=M):
        c = w
        for pw, a in zip(powers, alpha):
            if a:
                c = c * pw[a]
        cols.append(c)
        if max(alpha) < m:
            shared.append(c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rot = rx0[..., 1:, :] * s0[..., None, :]
        rotated = np.stack(shared, axis=-1)[..., None, :, :] / rot[..., None]
        beams = [np.stack(cols, axis=-1)] + [rotated[..., j, :, :] for j in range(rot.shape[-2])]
        beams = [b / np.linalg.norm(b, axis=-2, keepdims=True) for b in beams]
    return beams, _has_zero(rot).any(axis=-1)


def build_beamformers(net, gens, verify=True, residual_tol=RESIDUAL_TOL):
    """Construct the aligned beamformers for every user.

    User 0 spans all exponent products with exponents in 0..m; users j >= 1
    share the 0..m-1 block, pre-rotated by (H[0,j] * anchor)^-1 so their
    images at receiver 0 coincide. Columns are unit-normalized afterwards,
    which preserves every span (and hence every rank and residual) while
    keeping the dynamic range bounded as m grows.
    """
    dims = net.dims
    beams, zero = _beams(
        net.gains[0], gens.generators, gens.anchor_ratio, gens.seed_vector, dims.m
    )
    if zero:
        raise AlignmentError("zero diagonal entry while rotating the shared block")
    for k, v in enumerate(beams):
        if v.shape[1] != dims.streams[k]:
            raise AlignmentError(f"user {k}: got {v.shape[1]} columns, want {dims.streams[k]}")
    aset = AlignmentSet(beams=beams, power_normalizers=_power_normalizers(beams))
    if verify:
        report = verify_alignment(net, aset, residual_tol=residual_tol)
        if not report.passed:
            raise AlignmentError(f"alignment verification failed: {report.summary()}")
    return aset


def align_first_valid(draw, count, m, attempts, residual_tol, context):
    """Align `count` networks, each on the first of up to `attempts` draws that verifies.

    `draw(attempt, rows)` returns the gains [len(rows), K, K, F] of draw
    `attempt` for the networks `rows`. Draw 0 covers every network, draw a
    only those whose earlier draws all failed; one `_align_stack` call
    builds and verifies each draw, and a network that passes is written into
    draw 0's arrays in place. Returns the gains, the stacked beamformers,
    `_receiver_checks`' numbers of the passing draws (ranks [count, K, 3],
    worst [count, K]) and each network's draw index. When networks run out
    of draws, raises AlignmentError for the lowest, labelled `context(row)`
    and reporting its last draw.
    """
    gains = draw(0, np.arange(count))
    aset, passed, ranks, worst = _align_stack(gains, m, residual_tol)
    drawn = np.zeros(count, dtype=int)
    rows = np.flatnonzero(~passed)
    for attempt in range(1, attempts):
        if not len(rows):
            break
        redraw = draw(attempt, rows)
        one, ok, rank, resid = _align_stack(redraw, m, residual_tol)
        ranks[rows], worst[rows], drawn[rows] = rank, resid, attempt
        done = rows[ok]
        gains[done], aset.power_normalizers[done] = redraw[ok], one.power_normalizers[ok]
        for v, beam in zip(aset.beams, one.beams):
            v[done] = beam[ok]
        rows = rows[~ok]
    if len(rows):
        row, streams = rows[0], [v.shape[-1] for v in aset.beams]
        report = _report(streams, ranks[row], worst[row], residual_tol)
        failure = f"alignment verification failed: {report.summary()}"
        raise AlignmentError(f"{context(row)} beyond retry budget: {failure}")
    return gains, aset, ranks, worst, drawn


def _power_normalizers(beams):
    """c_k = tr(V_k V_k^H) / F for every user, as [..., K] over the beams' batch axes."""
    F = beams[0].shape[-2]
    traces = [np.trace(v @ v.conj().swapaxes(-1, -2), axis1=-2, axis2=-1) for v in beams]
    return np.stack([t.real / F for t in traces], axis=-1)


def _build(gains, m):
    """Beams [V_k, each [T, F, m_k]] of every network of gains[T, K, K, F], unverified.

    Also returns the mask [T] of the networks that built (the others divide
    by a zero diagonal entry) and their gains and beams, uncopied when all did.
    """
    gens, s0, w, zero = _generators(gains, m)
    beams, zero_rot = _beams(gains[:, 0], gens, s0, w, m)
    built = ~(zero | zero_rot)
    if built.all():
        return beams, built, gains, beams
    return beams, built, gains[built], [v[built] for v in beams]


def _align_stack(gains, m, residual_tol):
    """Build and verify every network of gains[T, K, K, F] at once.

    Returns the stacked beamformers (beams [T, F, m_k], normalizers [T, K]),
    a mask [T] of the networks that passed `verify_alignment`'s rule, and
    `_receiver_checks`' numbers (ranks [T, K, 3], worst [T, K]). A network
    that did not build reads rank 0 and an infinite residual everywhere.
    """
    beams, built, built_gains, built_beams = _build(gains, m)
    with np.errstate(invalid="ignore", over="ignore"):
        normalizers = _power_normalizers(beams)
    ranks, worst = np.zeros((*gains.shape[:2], 3), dtype=int), np.full(gains.shape[:2], np.inf)
    ranks[built], worst[built] = _receiver_checks(built_gains, built_beams)
    passed = built & _passes(ranks, worst, [v.shape[-1] for v in beams], residual_tol)
    return AlignmentSet(beams=beams, power_normalizers=normalizers), passed, ranks, worst


def numerical_rank(mat):
    """Rank by SVD: singular values above max(shape) * sigma_max * RANK_TOL_FACTOR count.

    A stack of matrices [..., rows, cols] gives one rank per matrix, from one
    stacked singular-value call.
    """
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    ranks = np.count_nonzero(s > max(mat.shape[-2:]) * s[..., :1] * RANK_TOL_FACTOR, axis=-1)
    return int(ranks) if np.ndim(ranks) == 0 else ranks


@dataclass
class ReceiverCheck:
    receiver: int
    interference_dim: int
    expected_interference_dim: int
    own_rank: int
    expected_own_rank: int
    concat_rank: int
    worst_residual: float


@dataclass
class AlignmentReport:
    receivers: list
    residual_tol: float
    passed: bool

    @property
    def worst_residual(self):
        return max(r.worst_residual for r in self.receivers)

    def summary(self):
        return "; ".join(
            f"rx{r.receiver}: interf {r.interference_dim}/{r.expected_interference_dim}"
            f" own {r.own_rank}/{r.expected_own_rank} concat {r.concat_rank}"
            f" resid {r.worst_residual:.2e}"
            for r in self.receivers
        )

    def as_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_residual": float(self.worst_residual),
            "residual_tol": self.residual_tol,
            "rank_tol_factor": RANK_TOL_FACTOR,
            "receivers": [asdict(r) for r in self.receivers],
        }


def verify_alignment(net, aset, residual_tol=RESIDUAL_TOL):
    """Check the three alignment conditions at every receiver.

    Per receiver i: the stacked interference must occupy exactly F - m_i
    dimensions, the intended streams must keep rank m_i, the two together
    must fill all F dimensions, and every interferer j not in {0, i} must sit
    inside the span of user 0's interference (receiver 0 instead checks that
    all interferers share one span). The one-network case of
    `_receiver_checks`, reported by `_report`.
    """
    ranks, worst = _receiver_checks(net.gains[None], [v[None] for v in aset.beams])
    return _report(net.dims.streams, ranks[0], worst[0], residual_tol)


def _report(streams, ranks, worst, residual_tol):
    """One network's report from its `_receiver_checks` numbers (ranks [K, 3], worst [K])."""
    checks = [
        ReceiverCheck(
            receiver=i,
            interference_dim=int(ranks[i, 0]),
            expected_interference_dim=streams[0] + streams[1] - streams[i],
            own_rank=int(ranks[i, 1]),
            expected_own_rank=streams[i],
            concat_rank=int(ranks[i, 2]),
            worst_residual=float(worst[i]),
        )
        for i in range(len(streams))
    ]
    passed = bool(_passes(ranks[None], worst[None], streams, residual_tol)[0])
    return AlignmentReport(receivers=checks, residual_tol=residual_tol, passed=passed)


def _receiver_checks(gains, beams):
    """The verification's numbers for every network of gains[T, K, K, F].

    `beams[k]` holds the networks' V_k as [T, F, m_k]. Per receiver it
    returns the ranks of the stacked interference, of the own streams and
    of the two together (ranks [T, K, 3]), each one stacked singular-value
    call, and `_worst_residual` (worst [T, K]).
    """
    T, K = gains.shape[:2]
    ranks = np.empty((T, K, 3), dtype=int)
    worst = np.empty((T, K))
    for i in range(K):
        eff = [gains[:, i, k, :, None] * v for k, v in enumerate(beams)]
        interf = [g for k, g in enumerate(eff) if k != i]  # each stack is freed after its rank
        worst[:, i] = _worst_residual(eff, i)
        ranks[:, i, 0] = numerical_rank(np.concatenate(interf, axis=-1))
        ranks[:, i, 1] = numerical_rank(eff[i])
        ranks[:, i, 2] = numerical_rank(np.concatenate([eff[i], *interf], axis=-1))
    return ranks, worst


def _worst_residual(eff, i):
    """Worst containment residual at receiver i over a stack of networks, 0 with none.

    `eff[k]` holds H_ik V_k as [T, F, m_k]. The residual of interferer k is
    the relative spectral norm of its part outside the span of the reference
    interferer, user 1 at receiver 0 and user 0 elsewhere; it takes one
    stacked QR per receiver and two stacked 2-norms per interferer.
    """
    ref = 1 if i == 0 else 0
    q = np.linalg.qr(eff[ref]).Q
    worst = np.zeros(len(q))
    for k, cols in enumerate(eff):
        if k in (i, ref):
            continue
        denom = _norm2(cols)
        with np.errstate(divide="ignore", invalid="ignore"):
            resid = _norm2(cols - q @ (q.conj().swapaxes(-1, -2) @ cols)) / denom
        worst = np.fmax(worst, np.where(denom == 0, np.inf, resid))
    return worst


def _norm2(mats):
    """Spectral norm of each matrix of a stack."""
    return np.linalg.svd(mats, compute_uv=False).max(axis=-1)


def _passes(ranks, worst, streams, residual_tol):
    """The verification rule over `_receiver_checks`' numbers: a mask [T].

    A network passes when every receiver's interference has rank F - m_i,
    its own streams rank m_i and both together rank F, and its worst
    residual lies below `residual_tol`.
    """
    streams = np.asarray(streams)
    F = streams[0] + streams[1]
    expected = np.stack([F - streams, streams, np.full_like(streams, F)], axis=-1)
    return (ranks == expected).all(axis=(1, 2)) & (worst.max(axis=1) < residual_tol)


def rank_failures(net, aset):
    """All (receiver, transmitter) pairs where H_{i,k} V_k drops below rank m_k."""
    short = _short_links(net.gains[None], [v[None] for v in aset.beams])[0]
    return [(int(i), int(k)) for i, k in np.argwhere(short)]


@dataclass
class FullRankAudit:
    trials: int
    failures: int
    failing_trials: list

    @property
    def passed(self):
        return self.failures == 0


def check_full_rank(dims, trials, seed):
    """Re-draw the channel `trials` times and count any rank deficiency.

    Full rank of every effective gain matrix holds with probability one for
    continuous fading, so the expected failure count is zero; a nonzero count
    points at a degenerate draw or a numerically collapsed basis. Redraw t is
    the network `sample_network` draws at a seed taken from (seed, t); a
    redraw fails when any of its K^2 products H_ik V_k falls below rank m_k
    under `numerical_rank`'s rule, or when its construction would raise
    AlignmentError. Redraws are sampled, built and tested a chunk at a time,
    with one stacked singular-value call per (i, k) and chunk.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seeds = [sub_rng(seed, _TAG_AUDIT, t).integers(0, 2**63) for t in range(trials)]
    # bytes per redraw of the chunk's gains, bases and largest effective-channel stack
    per_redraw = 16 * dims.F * (dims.K**2 + sum(dims.streams) + dims.streams[0])
    chunk = _chunk(per_redraw)
    failing = []
    for start in range(0, trials, chunk):
        gains = sample_gains(dims, seeds[start : start + chunk])
        failed = _rank_deficient(gains, dims.m)
        failing += (start + np.flatnonzero(failed)).tolist()
    return FullRankAudit(trials=trials, failures=len(failing), failing_trials=failing)


def _rank_deficient(gains, m):
    """Per network of gains[T, K, K, F]: is its construction or any H_ik V_k rank short?"""
    _, built, gains, beams = _build(gains, m)
    failed = ~built
    failed[built] = _short_links(gains, beams).any(axis=(1, 2))
    return failed


def _short_links(gains, beams):
    """Mask [T, K, K] of the products H_ik V_k below rank m_k, per network of gains[T, K, K, F].

    `beams[k]` holds the networks' V_k as [T, F, m_k]; each (i, k) takes one
    stacked singular-value call.
    """
    short = np.zeros(gains.shape[:3], dtype=bool)
    for i in range(gains.shape[1]):
        for k, v in enumerate(beams):
            short[:, i, k] = numerical_rank(gains[:, i, k, :, None] * v) != v.shape[-1]
    return short


def stream_power(aset, power):
    """Per-stream transmit powers P_k = (rho - eps) / c_k.

    With unit-normalized columns c_k = m_k / F, so the per-slot spend
    tr(V_k V_k^H) P_k / F lands exactly on rho - eps for every user.
    """
    eff = power.effective
    if eff <= 0:
        raise ValueError("rho - epsilon must be positive")
    return eff / aset.power_normalizers

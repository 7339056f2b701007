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

from .gaussmi import _receiver_spectra, _singular_values
from .model import _TAG_AUDIT, _stream_seeds, sample_gains

__all__ = [
    "AlignmentError",
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

# Singular values at or below max(shape) * sigma_max * RANK_FLOOR count as
# zero: a hundred times the float64 rounding a matrix's SVD can carry.
RANK_FLOOR = 100 * np.finfo(float).eps

# The Lemma 2 audit certifies a link H_ik V_k from the spectrum of V_k alone
# when its bound clears the rank floor by this factor (see `_short_links`).
_CERTIFY_MARGIN = 1000

# Every chunk of stacked networks (full-rank-audit redraws, oracle instances
# or ergodic fading blocks) holds about this many bytes, at `_network_bytes`
# per network. On a 2-core x86-64 host with OpenBLAS, 512 KiB chunks ran the
# K=3 and K=4, m=1 audit at 1000 trials 11% faster than 256 KiB ones (0.314
# against 0.354 s, medians of 10 paired runs) for 0.3 MiB more peak memory.
_CHUNK_BYTES = 1 << 19


def _network_bytes(dims):
    """Stacked bytes per network of a chunk: gains, beams and the widest spectra inputs."""
    return 16 * dims.F * (dims.K**2 + dims.K + 2 * sum(dims.streams))


def _chunk(dims):
    """How many networks of `dims` fill one chunk."""
    return max(1, _CHUNK_BYTES // _network_bytes(dims))


def _stacks(dims, seeds):
    """Sample and `_build` the networks `seeds` draw by chunk: (start, gains, beams, built) each."""
    chunk = _chunk(dims)
    for start in range(0, len(seeds), chunk):
        gains = sample_gains(dims, seeds[start : start + chunk])
        yield start, gains, *_build(gains, dims.m)


class AlignmentError(RuntimeError):
    """Raised when construction or verification of the beamformers fails."""


@dataclass
class AlignmentSet:
    """Beams V_k (F x m_k, one per user) with unit columns, so tr(V_k V_k^H) = m_k.

    Spending rho - eps per slot therefore takes the per-stream power
    (rho - eps) F / m_k (`stream_power`). A stack of alignments carries
    leading batch axes: beams [..., F, m_k].
    """

    beams: list

    def apply(self, row):
        """Effective gains [H_k V_k for every k], where row[..., k, :] is the diagonal of H_k."""
        return [row[..., k, :, None] * v for k, v in enumerate(self.beams)]

    def __getitem__(self, j):
        """The alignment of network j of a stack."""
        return AlignmentSet([v[j] for v in self.beams])


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

    Returns (generators [M, F], anchor ratio [F], start vector [F]), each
    generator a diagonal stored as a vector.
    """
    dims = net.dims
    gens, s0, w, zero = _generators(net.gains, dims.m)
    if zero:
        raise AlignmentError("zero diagonal entry while inverting the channel ratios")
    assert len(gens) == dims.M
    return gens, s0, w


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

    V_0 is built as rows [..., n, F], one broadcast step per generator: step
    l appends generator l's exponent as the fastest-varying index, so each
    column is multiplied left to right over its nonzero exponents. Every
    product, quotient and norm runs over the same memory layout as a column
    built and stacked alone would, so the beams keep its bits.
    """
    M = gens.shape[-2]
    cols = w[..., None, :]
    for l in range(M):
        step = np.empty((*cols.shape[:-1], m + 1, cols.shape[-1]), dtype=complex)
        step[..., 0, :] = cols
        for a in range(1, m + 1):
            np.multiply(cols, (gens[..., l, :] ** a)[..., None, :], out=step[..., a, :])
        cols = step.reshape(*cols.shape[:-2], -1, cols.shape[-1])
    v0 = np.ascontiguousarray(cols.swapaxes(-1, -2))
    shared = np.flatnonzero(np.indices((m + 1,) * M).reshape(M, -1).max(axis=0) < m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rot = rx0[..., 1:, :] * s0[..., None, :]
        rotated = np.take(v0, shared, axis=-1)[..., None, :, :] / rot[..., None]
        beams = [v0] + [rotated[..., j, :, :] for j in range(rot.shape[-2])]
        for b in beams:
            b /= np.linalg.norm(b, axis=-2, keepdims=True)
    return beams, _has_zero(rot).any(axis=-1)


def build_beamformers(net, gens, verify=True):
    """Construct the aligned beamformers for every user.

    User 0 spans all exponent products with exponents in 0..m; users j >= 1
    share the 0..m-1 block, pre-rotated by (H[0,j] * anchor)^-1 so their
    images at receiver 0 coincide. Columns are unit-normalized afterwards,
    which preserves every span (and hence every rank and residual) while
    keeping the dynamic range bounded as m grows. `gens` is what
    `build_generators` returns.
    """
    beams, zero = _beams(net.gains[0], *gens, net.dims.m)
    if zero:
        raise AlignmentError("zero diagonal entry while rotating the shared block")
    aset = AlignmentSet(beams)
    if verify:
        report = verify_alignment(net, aset)
        if not report.passed:
            raise AlignmentError(f"alignment verification failed: {report.summary()}")
    return aset


def align_first_valid(draw, count, m, attempts, context):
    """Align `count` networks, each on the first of up to `attempts` draws that verifies.

    `draw(attempt, rows)` returns the gains [len(rows), K, K, F] of draw
    `attempt` for the networks `rows`. Draw 0 covers every network, draw a
    only those whose earlier draws all failed; one `_align_stack` call
    builds and verifies each draw, and a network that passes is written into
    draw 0's arrays in place. Returns the gains, the stacked beamformers,
    the spectra the passing draws were verified from (see `_verify`) and
    each network's draw index. When networks run out of draws, raises
    AlignmentError for the lowest, labelled `context(row)` and reporting its
    last draw.
    """
    gains = draw(0, np.arange(count))
    aset, passed, spectra = _align_stack(gains, m)
    drawn = np.zeros(count, dtype=int)
    rows = np.flatnonzero(~passed)
    for attempt in range(1, attempts):
        if not len(rows):
            break
        redraw = draw(attempt, rows)
        one, ok, taken = _align_stack(redraw, m)
        for s2, s2_new in zip(itertools.chain(*spectra), itertools.chain(*taken)):
            s2[rows] = s2_new
        drawn[rows] = attempt
        done = rows[ok]
        gains[done] = redraw[ok]
        for v, beam in zip(aset.beams, one.beams):
            v[done] = beam[ok]
        rows = rows[~ok]
    if len(rows):
        report = _report([v.shape[-1] for v in aset.beams], spectra, rows[0])
        failure = f"alignment verification failed: {report.summary()}"
        raise AlignmentError(f"{context(rows[0])} beyond retry budget: {failure}")
    return gains, aset, spectra, drawn


def _build(gains, m):
    """Unverified beams [V_k, each T x F x m_k] of gains[T, K, K, F]; a mask [T] of those built."""
    gens, s0, w, zero = _generators(gains, m)
    beams, zero_rot = _beams(gains[:, 0], gens, s0, w, m)
    return beams, ~(zero | zero_rot)


def _align_stack(gains, m):
    """Build and verify every network of gains[T, K, K, F] at once.

    Returns the stacked beamformers (beams [T, F, m_k]) and `_verify`'s
    mask of the networks that passed and the spectra it read.
    """
    beams, built = _build(gains, m)
    aset = AlignmentSet(beams)
    return aset, *_verify(gains, aset, built)


def _verify(gains, aset, built):
    """`verify_alignment`'s rule over a stack: a mask [T], and the spectra it read.

    The spectra are `_receiver_spectra`'s K pairs, each [T, n]. A network
    that did not build, or has a non-finite beam entry, fails; it is read
    with zero beams.
    """
    streams = [v.shape[-1] for v in aset.beams]
    ok = built & np.all([np.isfinite(v).all(axis=(-2, -1)) for v in aset.beams], axis=0)
    aset = AlignmentSet(_zeroed(ok, aset.beams))
    spectra = _receiver_spectra(gains, aset)
    return ok & _passes(_receiver_numbers(spectra, streams)[0], streams), spectra


def _zeroed(ok, beams):
    """The stacked beams with the networks outside the mask ok zeroed, so no NaN reaches an SVD."""
    return beams if ok.all() else [np.where(ok[:, None, None], v, 0) for v in beams]


def _rank(sv, shape):
    """How many of the singular values sv[..., n] exceed RANK_FLOOR * max(shape) * sv[..., 0]."""
    return np.count_nonzero(sv > RANK_FLOOR * max(shape) * sv[..., :1], axis=-1)


def numerical_rank(mat):
    """Rank by SVD under `_rank`'s floor; a stack [..., rows, cols] gives one per matrix, one call."""
    if mat.size == 0:
        return 0
    ranks = _rank(_singular_values(mat), mat.shape[-2:])
    return int(ranks) if np.ndim(ranks) == 0 else ranks


@dataclass
class ReceiverCheck:
    """One receiver's verification numbers, read from its two spectra (d = F - m_i)."""

    receiver: int
    interference_dim: int  # rank of the others' spectrum
    expected_interference_dim: int
    concat_rank: int  # rank of the all-users spectrum
    expected_concat_rank: int
    containment: float  # sigma_{d+1} / sigma_1 of the others' spectrum
    weakest_interference: float  # sigma_d / sigma_1 of the others' spectrum
    weakest_signal: float  # sigma_F / sigma_1 of the all-users spectrum

    def diagnosis(self):
        """The receiver's numbers, with what fails at the float64 floor, if anything."""
        interf, want = self.interference_dim, self.expected_interference_dim
        text = f"rx{self.receiver}: interf {interf}/{want} concat {self.concat_rank}/"
        text += f"{self.expected_concat_rank} containment {self.containment:.2e}"
        if self.concat_rank < self.expected_concat_rank:
            text += f", weakest signal {self.weakest_signal:.2e} below the float64 floor"
        if interf != want:
            weak = f"weakest interference {self.weakest_interference:.2e} below"
            text += f", {weak if interf < want else 'containment above'} the float64 floor"
        return text


@dataclass
class AlignmentReport:
    receivers: list
    passed: bool

    @property
    def worst_containment(self):
        return max(r.containment for r in self.receivers)

    def summary(self):
        return "; ".join(r.diagnosis() for r in self.receivers)

    def as_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_containment": float(self.worst_containment),
            "rank_floor": RANK_FLOOR,
            "receivers": [asdict(r) for r in self.receivers],
        }


def verify_alignment(net, aset):
    """Check the alignment conditions at every receiver, from two spectra per receiver.

    Per receiver i, with d = F - m_i: the others' unit-power factors must
    have exactly d singular values above `_rank`'s floor (the interference
    fills d dimensions and no more), all users' factors F (the intended
    streams stay independent of it); the spectra are those `spectra_table`
    reads.
    """
    one = AlignmentSet([v[None] for v in aset.beams])
    _, spectra = _verify(net.gains[None], one, np.ones(1, dtype=bool))
    return _report(net.dims.streams, spectra)


def _report(streams, spectra, row=0):
    """The report of network `row` of a stack, from `_verify`'s spectra."""
    ranks, ratios = _receiver_numbers([(o[[row]], a[[row]]) for o, a in spectra], streams)
    F = streams[0] + streams[1]
    checks = [
        ReceiverCheck(i, int(rank[0]), F - m, int(rank[1]), F, *map(float, ratio))
        for i, (m, rank, ratio) in enumerate(zip(streams, ranks[0], ratios[0]))
    ]
    return AlignmentReport(receivers=checks, passed=bool(_passes(ranks, streams)[0]))


def _receiver_numbers(spectra, streams):
    """`ReceiverCheck`'s two ranks (ranks [T, K, 2]) and three ratios (ratios [T, K, 3]) of a stack.

    A zero spectrum reads rank 0, an infinite containment and zero weakest values.
    """
    F, total = streams[0] + streams[1], sum(streams)
    ranks, ratios = [], []
    for (others, everyone), m in zip(spectra, streams):
        d, sv, sv_all = F - m, np.sqrt(others), np.sqrt(everyone)
        ranks.append(np.stack([_rank(sv, (F, total - m)), _rank(sv_all, (F, total))], axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            weak = sv_all[:, -1] / sv_all[:, 0]
            ratio = np.stack([sv[:, d] / sv[:, 0], sv[:, d - 1] / sv[:, 0], weak], axis=-1)
        ratios.append(np.where(np.isnan(ratio), [np.inf, 0.0, 0.0], ratio))  # 0 / 0: zero spectra
    return np.stack(ranks, axis=1), np.stack(ratios, axis=1)


def _passes(ranks, streams):
    """The rule over `_receiver_numbers`' ranks, a mask [T]: (F - m_i, F) at every receiver i."""
    F = streams[0] + streams[1]
    return (ranks == [(F - m, F) for m in streams]).all(axis=(1, 2))


def rank_failures(net, aset):
    """All (receiver, transmitter) pairs where H_{i,k} V_k drops below rank m_k."""
    short, _ = _short_links(net.gains[None], [v[None] for v in aset.beams])
    return [(int(i), int(k)) for i, k in np.argwhere(short[0])]


@dataclass
class FullRankAudit:
    trials: int
    failures: int
    failing_trials: list
    exact_links: int  # (redraw, i, k) links the spectral bound left to their own SVD

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
    under `numerical_rank`'s rule, or when its construction divides by zero
    (its zeroed beams read rank 0). Redraws come from `_stacks` a chunk at a
    time; `_short_links` decides each link from the spectrum of V_k where it can.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seeds = _stream_seeds(seed, _TAG_AUDIT, np.arange(trials))
    failing, exact = [], 0
    for start, gains, beams, built in _stacks(dims, seeds):
        short, links = _short_links(gains, _zeroed(built, beams))
        failing += (start + np.flatnonzero(short.any(axis=(1, 2)))).tolist()
        exact += links
    return FullRankAudit(trials, len(failing), failing, exact)


def _short_links(gains, beams):
    """Mask [T, K, K] of the products H_ik V_k below rank m_k, per network of gains[T, K, K, F].

    `beams[k]` holds the networks' V_k as [T, F, m_k]. Also returns how many
    links went to their own singular-value call.

    A link is certified full rank from one stacked singular-value call per
    user on V_k itself. For diagonal H, sigma_min(H V) >= min|h| sigma_min(V)
    and sigma_1(H V) <= max|h| sigma_1(V), so the ratio q of H V's extreme
    singular values is at least (min|h| / max|h|) r, where r is V's ratio.
    The link is certified when that bound exceeds `_CERTIFY_MARGIN` times
    the rank floor 100 eps max(F, m_k) = 100 eps F. LAPACK's computed
    singular values lie within p(F, m_k) eps sigma_1 of the exact ones
    (LAPACK Users' Guide, 3rd ed., section 4.9), and forming H V entrywise
    adds at most about 3 sqrt(m_k) eps sigma_1. Read through both errors, a
    certified link's computed ratio exceeds 1e5 eps F - 2p eps - 3 sqrt(m_k)
    eps, which clears the floor 100 eps F whenever p < 3e4 F.
    Householder bidiagonalisation has p = O(F m_k), far inside that for
    every (K, m) within the caps, so a certified link reads full rank under
    `numerical_rank` too. Every other link, including those of unbuilt
    networks (zeroed beams: a NaN bound) and near-zero gains, takes that
    test itself: one stacked call per user over just those links.
    """
    F = gains.shape[-1]
    short, exact = np.zeros(gains.shape[:3], dtype=bool), 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, v in enumerate(beams):
            mags = np.abs(gains[:, :, k])
            if v.shape[-1] == 1:  # one singular value: r = 1, or 0 / 0 for a zeroed beam
                norm = np.linalg.norm(v, axis=-2)
                ratio = norm / norm
            else:
                sv = _singular_values(v)
                ratio = sv[:, -1:] / sv[:, :1]
            bound = mags.min(axis=-1) / mags.max(axis=-1) * ratio
            # negated, so that a NaN bound is never certified
            t, i = np.nonzero(~(bound > _CERTIFY_MARGIN * RANK_FLOOR * max(F, v.shape[-1])))
            if len(t):
                mats = gains[t, i, k, :, None] * v[t]
                short[t, i, k] = numerical_rank(mats) != v.shape[-1]
                exact += len(t)
    return short, exact


def stream_power(aset, power):
    """Per-stream transmit powers P_k = (rho - eps) F / m_k, read from the beams' shapes.

    The beams' columns are unit-normalized, so tr(V_k V_k^H) = m_k and the
    per-slot spend tr(V_k V_k^H) P_k / F lands exactly on rho - eps for
    every user.
    """
    eff = power.effective
    if eff <= 0:
        raise ValueError("rho - epsilon must be positive")
    return np.array([eff * v.shape[-2] / v.shape[-1] for v in aset.beams])

"""Symbol-extension interference-alignment beamformers and their verification.

The construction works on diagonal F x F channels. Ratio matrices taken
around user 0 commute (all diagonal), and power products of the normalized
generators applied to a fixed start vector give user 0 a basis of (m+1)^M
columns while every other user reuses a shifted m^M-column block. That makes
all interference at each receiver collapse into an F - m_i dimensional
subspace, leaving the intended streams linearly independent of it.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .model import sample_network, sub_rng

__all__ = [
    "AlignmentError",
    "GeneratorSet",
    "Beamformer",
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


class AlignmentError(RuntimeError):
    """Raised when construction or verification of the beamformers fails."""


@dataclass
class GeneratorSet:
    """The M commuting diagonal generators, stored as diagonal vectors."""

    generators: list  # M vectors of length F
    anchor: tuple  # ordered user pair whose ratio matrix normalizes the rest
    anchor_ratio: np.ndarray  # diagonal of the anchor ratio matrix
    seed_vector: np.ndarray  # row-equilibrated start vector (entrywise nonzero)

    @property
    def M(self):
        return len(self.generators)


@dataclass
class Beamformer:
    """F x m_k precoding matrix for one user."""

    user: int
    matrix: np.ndarray

    @property
    def n_streams(self):
        return self.matrix.shape[1]


@dataclass
class AlignmentSet:
    """Beamformers for every user plus their power normalizers c_k = tr(V V^H)/F."""

    dims: object
    beamformers: list
    power_normalizers: np.ndarray

    def matrix(self, k):
        return self.beamformers[k].matrix


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
    K = dims.K
    pairs = [(i, j) for i in range(1, K) for j in range(1, K) if i != j]
    ratios = {}
    for i, j in pairs:
        denom = net.gain(i, 0) * net.gain(0, j)
        _require_nonzero(denom, f"inverting links around pair ({i},{j})")
        ratios[(i, j)] = net.gain(i, j) / denom
    anchor = (1, 2)
    s0 = ratios[anchor]
    _require_nonzero(s0, "inverting the anchor ratio")
    generators = [ratios[p] / s0 for p in pairs if p != anchor]
    assert len(generators) == dims.M
    log_rows = np.zeros(dims.F)
    for r in generators:
        log_rows += np.log(np.abs(r))
    w = np.exp(-0.5 * dims.m * log_rows).astype(complex)
    return GeneratorSet(
        generators=generators,
        anchor=anchor,
        anchor_ratio=s0,
        seed_vector=w,
    )


def _require_nonzero(diag, context):
    if np.any(np.abs(diag) < 1e-300):
        raise AlignmentError(f"zero diagonal entry while {context}")


def _power_columns(gens, exponent_ranges, w):
    cols = []
    for alpha in itertools.product(*exponent_ranges):
        c = w.copy()
        for r, a in zip(gens, alpha):
            if a:
                c = c * r**a
        cols.append(c)
    return np.stack(cols, axis=1)


def build_beamformers(net, gens, verify=True, residual_tol=RESIDUAL_TOL):
    """Construct the aligned beamformers for every user.

    User 0 spans all exponent products with exponents in 0..m; users j >= 1
    share the 0..m-1 block, pre-rotated by (H[0,j] * anchor)^-1 so their
    images at receiver 0 coincide. Columns are unit-normalized afterwards,
    which preserves every span (and hence every rank and residual) while
    keeping the dynamic range bounded as m grows.
    """
    dims = net.dims
    K, m = dims.K, dims.m
    M = dims.M
    w = gens.seed_vector
    beams = [None] * K
    beams[0] = _power_columns(gens.generators, [range(m + 1)] * M, w)
    shared = _power_columns(gens.generators, [range(m)] * M, w)
    for j in range(1, K):
        denom = net.gain(0, j) * gens.anchor_ratio
        _require_nonzero(denom, f"rotating the shared block for user {j}")
        beams[j] = shared / denom[:, None]
    normalizers = np.empty(K)
    bf = []
    for k in range(K):
        mat = beams[k] / np.linalg.norm(beams[k], axis=0, keepdims=True)
        if mat.shape[1] != dims.streams[k]:
            raise AlignmentError(f"user {k}: got {mat.shape[1]} columns, want {dims.streams[k]}")
        bf.append(Beamformer(user=k, matrix=mat))
        normalizers[k] = np.trace(mat @ mat.conj().T).real / dims.F
    aset = AlignmentSet(dims=dims, beamformers=bf, power_normalizers=normalizers)
    if verify:
        report = verify_alignment(net, aset, residual_tol=residual_tol)
        if not report.passed:
            raise AlignmentError(f"alignment verification failed: {report.summary()}")
    return aset


def align_first_valid(draw, attempts, residual_tol=RESIDUAL_TOL, context="alignment failed"):
    """Align the first of up to `attempts` draws that verifies.

    `draw(attempt)` returns the network for one attempt. Beamformers are
    built unverified and `verify_alignment` runs once per attempt; a
    construction error or a failed report counts as a failed attempt.
    Returns the network, its beamformers, the passing report and the attempt
    index; raises AlignmentError once every attempt has failed.
    """
    last = None
    for attempt in range(attempts):
        net = draw(attempt)
        try:
            aset = build_beamformers(net, build_generators(net), verify=False)
        except AlignmentError as exc:
            last = exc
            continue
        report = verify_alignment(net, aset, residual_tol=residual_tol)
        if report.passed:
            return net, aset, report, attempt
        last = f"alignment verification failed: {report.summary()}"
    raise AlignmentError(f"{context} beyond retry budget: {last}")


def numerical_rank(mat, factor=RANK_TOL_FACTOR):
    """Rank by SVD with the documented tolerance rule."""
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    tol = max(mat.shape) * s[0] * factor
    return int(np.count_nonzero(s > tol))


def _containment_residual(cols, basis):
    """Relative spectral norm of the part of `cols` outside span(basis)."""
    q, _ = np.linalg.qr(basis)
    resid = cols - q @ (q.conj().T @ cols)
    denom = np.linalg.norm(cols, 2)
    if denom == 0:
        return np.inf
    return np.linalg.norm(resid, 2) / denom


@dataclass
class ReceiverCheck:
    receiver: int
    interference_dim: int
    expected_interference_dim: int
    own_rank: int
    expected_own_rank: int
    concat_rank: int
    worst_residual: float

    @property
    def passed_dims(self):
        return (
            self.interference_dim == self.expected_interference_dim
            and self.own_rank == self.expected_own_rank
            and self.concat_rank == self.expected_own_rank + self.expected_interference_dim
        )


@dataclass
class AlignmentReport:
    receivers: list
    residual_tol: float
    rank_tol_factor: float

    @property
    def worst_residual(self):
        return max(r.worst_residual for r in self.receivers)

    @property
    def passed(self):
        return all(r.passed_dims for r in self.receivers) and self.worst_residual < self.residual_tol

    def summary(self):
        parts = []
        for r in self.receivers:
            parts.append(
                f"rx{r.receiver}: interf {r.interference_dim}/{r.expected_interference_dim}"
                f" own {r.own_rank}/{r.expected_own_rank} concat {r.concat_rank}"
                f" resid {r.worst_residual:.2e}"
            )
        return "; ".join(parts)

    def as_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_residual": float(self.worst_residual),
            "residual_tol": self.residual_tol,
            "rank_tol_factor": self.rank_tol_factor,
            "receivers": [
                {
                    "receiver": r.receiver,
                    "interference_dim": r.interference_dim,
                    "expected_interference_dim": r.expected_interference_dim,
                    "own_rank": r.own_rank,
                    "expected_own_rank": r.expected_own_rank,
                    "concat_rank": r.concat_rank,
                    "worst_residual": float(r.worst_residual),
                }
                for r in self.receivers
            ],
        }


def verify_alignment(net, aset, residual_tol=RESIDUAL_TOL, rank_tol_factor=RANK_TOL_FACTOR):
    """Check the three alignment conditions at every receiver.

    Per receiver i: the stacked interference must occupy exactly F - m_i
    dimensions, the intended streams must keep rank m_i, the two together
    must fill all F dimensions, and every interferer j not in {0, i} must sit
    inside the span of user 0's interference (receiver 0 instead checks that
    all interferers share one span).
    """
    dims = net.dims
    K, F = dims.K, dims.F
    checks = []
    for i in range(K):
        own = net.links[i][i].apply(aset.matrix(i))
        interf_blocks = {k: net.links[i][k].apply(aset.matrix(k)) for k in range(K) if k != i}
        stacked = np.hstack(list(interf_blocks.values()))
        residuals = [0.0]
        if i == 0:
            ref = interf_blocks[1]
            for k in range(2, K):
                residuals.append(_containment_residual(interf_blocks[k], ref))
        else:
            ref = interf_blocks[0]
            for k, block in interf_blocks.items():
                if k != 0:
                    residuals.append(_containment_residual(block, ref))
        checks.append(
            ReceiverCheck(
                receiver=i,
                interference_dim=numerical_rank(stacked, rank_tol_factor),
                expected_interference_dim=F - dims.streams[i],
                own_rank=numerical_rank(own, rank_tol_factor),
                expected_own_rank=dims.streams[i],
                concat_rank=numerical_rank(np.hstack([own, stacked]), rank_tol_factor),
                worst_residual=float(max(residuals)),
            )
        )
    return AlignmentReport(receivers=checks, residual_tol=residual_tol, rank_tol_factor=rank_tol_factor)


def rank_failures(net, aset, rank_tol_factor=RANK_TOL_FACTOR):
    """All (receiver, transmitter) pairs where H_{i,k} V_k drops below rank m_k."""
    K = net.dims.K
    bad = []
    for i in range(K):
        for k in range(K):
            mat = net.links[i][k].apply(aset.matrix(k))
            if numerical_rank(mat, rank_tol_factor) != net.dims.streams[k]:
                bad.append((i, k))
    return bad


@dataclass
class FullRankAudit:
    trials: int
    failures: int
    failing_trials: list
    rank_tol_factor: float

    @property
    def passed(self):
        return self.failures == 0


def check_full_rank(net, aset, trials, seed, rank_tol_factor=RANK_TOL_FACTOR):
    """Re-draw the channel `trials` times and count any rank deficiency.

    Full rank of every effective gain matrix holds with probability one for
    continuous fading, so the expected failure count is zero; a nonzero count
    points at a degenerate draw or a numerically collapsed basis.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dims = net.dims
    failing = []
    for t in range(trials):
        trial_seed = sub_rng(seed, _TAG_AUDIT, t).integers(0, 2**63)
        fresh = sample_network(dims, trial_seed)
        try:
            fresh_set = build_beamformers(fresh, build_generators(fresh), verify=False)
            if rank_failures(fresh, fresh_set, rank_tol_factor):
                failing.append(t)
        except AlignmentError:
            failing.append(t)
    return FullRankAudit(
        trials=trials,
        failures=len(failing),
        failing_trials=failing,
        rank_tol_factor=rank_tol_factor,
    )


def stream_power(aset, power):
    """Per-stream transmit powers P_k = (rho - eps) / c_k.

    With unit-normalized columns c_k = m_k / F, so the per-slot spend
    tr(V_k V_k^H) P_k / F lands exactly on rho - eps for every user.
    """
    eff = power.effective
    if eff <= 0:
        raise ValueError("rho - epsilon must be positive")
    return eff / aset.power_normalizers

"""Channel dimensioning, random network generation, and seed bookkeeping.

A network is stored as gain arrays: every link of the F-slot extension is a
diagonal F x F matrix, stored as its diagonal, so the K x K grid of links is
one (K, K, F) array and an eavesdropper row one (K, F) array.

Everything downstream (beamformers, mutual informations, rate sweeps) is a
pure function of a :class:`SystemDims`, a master seed, and optionally a block
index, so identical inputs reproduce identical numbers bit for bit.
"""

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemDims",
    "NetworkRealization",
    "PowerConfig",
    "derive_dims",
    "sample_gains",
    "sample_network",
    "sample_eavesdropper_block",
    "sub_rng",
]

# Tags keep the per-purpose random streams disjoint under one master seed.
_TAG_LINK = 1
_TAG_EAVES = 2
_TAG_PERM = 3
_TAG_RETRY = 5
_TAG_AUDIT = 11  # Lemma 2 full-rank redraws
_TAG_AUDIT_SEED = 23  # the audit's oracle instances

# Gains with magnitude below this are resampled (probability-zero event made
# explicit so later diagonal inversions are always safe).
MIN_GAIN_MAGNITUDE = 1e-12

_U64 = 2**64
_U32_MASK = 2**32 - 1


def sub_rng(master_seed, *path):
    """Derive an independent generator for (master_seed, path).

    The split is counter-based via ``SeedSequence`` so that sampling order
    does not matter: any (link, block) stream can be drawn in isolation.
    The entropy is handed over as the uint32 words numpy itself would make
    of the list ``[master_seed, *path]`` (each value split little-endian
    into 32-bit words, zero as one word), which skips its per-element
    coercion and leaves every stream unchanged.
    """
    if not 0 <= int(master_seed) < _U64:
        raise ValueError(f"seed must be a u64, got {master_seed}")
    words = []
    for value in (master_seed, *path):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed path elements must be non-negative, got {value}")
        words.append(value & _U32_MASK)
        value >>= 32
        while value:
            words.append(value & _U32_MASK)
            value >>= 32
    entropy = np.fromiter(words, dtype=np.uint32, count=len(words))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class SystemDims:
    """Extension dimensioning for a K-user run.

    ``streams[0]`` is the large stream count (m+1)^M held by one user per
    block; every other user gets m^M streams. F = streams[0] + streams[1].
    """

    K: int
    m: int
    M: int
    F: int
    streams: tuple

    def __post_init__(self):
        if self.K < 3:
            raise ValueError("K must be >= 3 (alignment undefined below that)")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        assert self.M == (self.K - 1) * (self.K - 2) - 1
        assert self.F == self.streams[0] + self.streams[1]
        assert all(s > 0 for s in self.streams)


def derive_dims(K, m):
    """Dimension the extended channel: M = (K-1)(K-2)-1, F = (m+1)^M + m^M."""
    if K < 3:
        raise ValueError(f"K={K}: need at least 3 users")
    if m < 1:
        raise ValueError(f"m={m}: extension parameter must be positive")
    M = (K - 1) * (K - 2) - 1
    big = (m + 1) ** M
    small = m**M
    streams = (big,) + (small,) * (K - 1)
    return SystemDims(K=K, m=m, M=M, F=big + small, streams=streams)


def _sample_gains(rng, F):
    """A stream's F gains drawn from its start, near-zero magnitudes redrawn until none is left."""
    z = rng.standard_normal(2 * F)
    g = (z[:F] + 1j * z[F:]) / np.sqrt(2.0)
    bad = np.abs(g) < MIN_GAIN_MAGNITUDE
    while np.any(bad):
        n = int(bad.sum())
        g[bad] = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        bad = np.abs(g) < MIN_GAIN_MAGNITUDE
    return g


def _stream_gains(shape, F, stream):
    """One row of F gains per index of `shape`, drawn from the generator `stream(*index)`.

    The first draw of every stream is made in place and scaled in one pass;
    a stream with a near-zero gain is drawn again from its start through
    `_sample_gains`, so its rejection loop is the per-stream one.
    """
    z = np.empty((*shape, 2 * F))
    for idx in itertools.product(*map(range, shape)):
        stream(*idx).standard_normal(out=z[idx])
    g = (z[..., :F] + 1j * z[..., F:]) / np.sqrt(2.0)
    for idx in zip(*np.nonzero((np.abs(g) < MIN_GAIN_MAGNITUDE).any(axis=-1))):
        g[idx] = _sample_gains(stream(*idx), F)
    return g


def sample_gains(dims, seeds, block_index=0):
    """Link gains of one network per seed, as a (len(seeds), K, K, F) array.

    Entry [t, i, k] is the diagonal from transmitter k to receiver i of the
    network `sample_network(dims, seeds[t], block_index=block_index[t])`
    draws: each link reads its own (seed, link, block) stream. A scalar
    `block_index` is every network's.
    """
    blocks = np.broadcast_to(block_index, (len(seeds),))
    return _stream_gains(
        (len(seeds), dims.K, dims.K),
        dims.F,
        lambda t, i, k: sub_rng(seeds[t], _TAG_LINK, i, k, blocks[t]),
    )


@dataclass
class NetworkRealization:
    """A full draw of the network as diagonal gain arrays.

    `gains[i, k]` is the diagonal from transmitter k to receiver i, so
    `gains` has shape (K, K, F). An eavesdropper row is drawn apart, by
    `sample_eavesdropper_block`.
    """

    dims: SystemDims
    gains: np.ndarray

    def __post_init__(self):
        K, F = self.dims.K, self.dims.F
        if np.shape(self.gains) != (K, K, F):
            raise ValueError(f"gains must have shape {(K, K, F)}, got {np.shape(self.gains)}")


def sample_network(dims, seed, block_index=0):
    """Draw all K^2 links; the eavesdropper row is `sample_eavesdropper_block`'s.

    Each link gets its own counter-derived substream, so the realization is a
    pure function of (dims, seed, block_index) regardless of evaluation order.
    """
    return NetworkRealization(dims, sample_gains(dims, [seed], block_index)[0])


def sample_eavesdropper_block(dims, seed, block_index):
    """Fresh eavesdropper row H_e for one fading block, as a (K, F) gain array.

    A sequence of block indices gives one row per block, as a (len, K, F)
    array.
    """
    blocks = np.atleast_1d(block_index)
    rows = _stream_gains(
        (len(blocks), dims.K), dims.F, lambda b, k: sub_rng(seed, _TAG_EAVES, k, blocks[b])
    )
    return rows if np.ndim(block_index) else rows[0]


@dataclass(frozen=True)
class PowerConfig:
    """Average per-user power budget rho with a back-off margin epsilon."""

    rho: float
    epsilon_margin: float = 1.0

    def __post_init__(self):
        if not 0 < self.epsilon_margin < self.rho:
            raise ValueError(
                f"need 0 < epsilon_margin < rho, got eps={self.epsilon_margin}, rho={self.rho}"
            )

    @property
    def effective(self):
        """rho - epsilon, the power actually loaded onto the beams."""
        return self.rho - self.epsilon_margin

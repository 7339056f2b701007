"""Channel dimensioning, random network generation, and seed bookkeeping.

A network is stored as gain arrays: every link of the F-slot extension is a
diagonal F x F matrix, stored as its diagonal, so the K x K grid of links is
one (K, K, F) array and an eavesdropper row one (K, F) array.

Everything downstream (beamformers, mutual informations, rate sweeps) is a
pure function of a :class:`SystemDims`, a master seed, and optionally a block
index, so identical inputs reproduce identical numbers bit for bit.

Every random draw reads its own stream, named by a path of integers under
the master seed: the generator `sub_rng(seed, *path)` builds from numpy's
`SeedSequence` and `PCG64`. The samplers seed a whole stack of paths at once
(`_streams`): numpy's seeding runs over arrays, and one reused generator
takes each path's state, so every draw is `sub_rng`'s bit for bit.
`sub_rng` itself is the single-stream form, and redraws a stream from its
start when a gain is rejected.
"""

import functools
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
_U128_MASK = 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def sub_rng(master_seed, *path):
    """Derive an independent generator for (master_seed, path).

    The split is counter-based via ``SeedSequence`` of the list
    ``[master_seed, *path]`` so that sampling order does not matter: any
    (link, block) stream can be drawn in isolation.
    """
    if not 0 <= int(master_seed) < _U64:
        raise ValueError(f"seed must be a u64, got {master_seed}")
    entropy = [int(value) for value in (master_seed, *path)]
    for value in entropy:
        if value < 0:
            raise ValueError(f"seed path elements must be non-negative, got {value}")
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


def _paths(*columns):
    """The uint64 paths [N, len(columns)] of the broadcast `columns`, one per element in C order."""
    paths = np.empty((*np.broadcast_shapes(*map(np.shape, columns)), len(columns)), np.uint64)
    for j, column in enumerate(columns):
        paths[..., j] = column
    return paths.reshape(-1, len(columns))


@functools.lru_cache(maxsize=None)
def _hash_rounds(n):
    """The read-only uint32 constants [2, w] of each of `_seed_states`' hash rounds on n words, in order.

    A round xors each of its w values with the next link of a chain and
    multiplies it by the link after; each link is the previous times the
    chain's multiplier. numpy's INIT_A chain (by MULT_A) mixes the words
    into the pool, and its INIT_B chain (by MULT_B) hashes the pool out.
    """

    def chain(const, mult, widths):
        rounds = []
        for width in widths:
            links = [const]
            for _ in range(width):
                links.append(links[-1] * mult & _U32_MASK)
            const = links[-1]
            rounds.append(np.array([links[:-1], links[1:]], dtype=np.uint32))
            rounds[-1].flags.writeable = False
        return rounds

    mixing = chain(0x43B0D7E5, 0x931E8875, [4] + [3] * 4 + [4] * max(n - 4, 0))
    return tuple(mixing + chain(0x8B51F9DD, 0x58F38DED, [8]))


def _seed_states(words):
    """`SeedSequence(row).generate_state(4, np.uint64)` for each row of the uint32 words [G, n].

    numpy mixes a row's words into a pool of four and hashes the pool out
    again in fixed uint32 rounds whose constants depend only on n
    (`_hash_rounds`), so every row, and every pool entry one round touches,
    takes them at once. The mixing constants are numpy's MIX_MULT_L and
    MIX_MULT_R.
    """

    def hashmix(value, consts):
        value = value ^ consts[0]
        value *= consts[1]
        value ^= value >> 16
        return value

    def mix(x, y):
        value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return value ^ value >> 16

    n = words.shape[1]
    rounds = iter(_hash_rounds(n))
    pool = np.zeros((len(words), 4), dtype=np.uint32)
    pool[:, : min(n, 4)] = words[:, :4]
    pool = hashmix(pool, next(rounds))
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, [src]], next(rounds)))
    for src in range(4, n):
        pool = mix(pool, hashmix(words[:, [src]], next(rounds)))
    state = hashmix(np.tile(pool, 2), next(rounds))
    return state.astype("<u4", copy=False).view("<u8")  # word pairs, low word first


def _streams(paths):
    """The generator `sub_rng(*path)` starts as, for each row of the uint64 paths [N, L], in order.

    One `Generator` is yielded again for every row, holding that row's
    stream, so each must be drawn from before the next is taken. The rows'
    words (an element below 2^32, zero included, is one word, and a larger
    one two) are mixed together, a group per word count, and each row's
    PCG64 state is seeded from its four state words as numpy seeds it:
    inc = 2 seq + 1 and state = (inc + init) M + inc, mod 2^128.
    """
    words = np.ascontiguousarray(paths, dtype="<u8").view("<u4")  # low word first
    keep = words.astype(bool)
    keep[:, ::2] = True  # every element's low word, and its high word when nonzero
    counts = keep.sum(axis=1)
    states = np.empty((len(paths), 4), dtype=np.uint64)
    for n in np.flatnonzero(np.bincount(counts)):
        rows = counts == n
        states[rows] = _seed_states(words[keep & rows[:, None]].reshape(-1, n))
    gen = np.random.Generator(np.random.PCG64(0))
    for row in states:
        init_hi, init_lo, seq_hi, seq_lo = row.tolist()
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _U128_MASK
        state = ((init_hi << 64 | init_lo) + inc) * _PCG64_MULT + inc & _U128_MASK
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def _stream_seeds(*columns):
    """A seed below 2^63 drawn from the stream of each path of the broadcast `columns`."""
    return [rng.integers(0, 2**63) for rng in _streams(_paths(*columns))]


def _stream_gains(paths, F):
    """Gains [N, F] for the uint64 paths [N, L]: row j drawn from the stream `sub_rng(*paths[j])`.

    The first draw of every stream is made in place and scaled in one pass;
    a stream with a near-zero gain is drawn again from its start through
    `sub_rng`, so its rejection loop is the per-stream one.
    """
    z = np.empty((len(paths), 2 * F))
    for row, rng in zip(z, _streams(paths)):
        rng.standard_normal(out=row)
    g = np.empty((len(paths), F), dtype=complex)
    g.real, g.imag = z[:, :F], z[:, F:]
    g /= np.sqrt(2.0)
    for j in np.flatnonzero((np.abs(g) < MIN_GAIN_MAGNITUDE).any(axis=-1)):
        g[j] = _sample_gains(sub_rng(*paths[j].tolist()), F)
    return g


def sample_gains(dims, seeds, block_index=0):
    """Link gains of one network per seed, as a (len(seeds), K, K, F) array.

    Entry [t, i, k] is the diagonal from transmitter k to receiver i of the
    network `sample_network(dims, seeds[t], block_index=block_index[t])`
    draws: each link reads its own (seed, link, block) stream. A scalar
    `block_index` is every network's.
    """
    seeds, users = np.asarray(seeds, dtype=np.uint64), np.arange(dims.K)
    blocks = np.reshape(block_index, (-1, 1, 1))
    paths = _paths(seeds[:, None, None], _TAG_LINK, users[:, None], users, blocks)
    return _stream_gains(paths, dims.F).reshape(len(seeds), dims.K, dims.K, dims.F)


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
    paths = _paths(seed, _TAG_EAVES, np.arange(dims.K), blocks[:, None])
    rows = _stream_gains(paths, dims.F).reshape(len(blocks), dims.K, dims.F)
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

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iasec import alignment, cli, ergodic, gaussmi, model, secrecy
from iasec.model import (
    _TAG_LINK,
    NetworkRealization,
    PowerConfig,
    _sample_gains,
    _streams,
    derive_dims,
    sample_eavesdropper_block,
    sample_gains,
    sample_network,
    sub_rng,
)


class TestDeriveDims:
    def test_three_user_m1(self):
        d = derive_dims(3, 1)
        assert (d.M, d.F) == (1, 3)
        assert d.streams == (2, 1, 1)

    def test_three_user_m2(self):
        d = derive_dims(3, 2)
        assert (d.M, d.F) == (1, 5)
        assert d.streams == (3, 2, 2)

    def test_four_user_m1(self):
        d = derive_dims(4, 1)
        assert (d.M, d.F) == (5, 33)
        assert d.streams == (32, 1, 1, 1)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_three_user_extension_length(self, m):
        assert derive_dims(3, m).F == 2 * m + 1

    @given(K=st.integers(3, 5), m=st.integers(1, 4))
    def test_streams_sum_to_extension(self, K, m):
        d = derive_dims(K, m)
        assert d.streams[0] + d.streams[1] == d.F
        assert all(s == d.streams[1] for s in d.streams[1:])
        assert d.M == (K - 1) * (K - 2) - 1

    @pytest.mark.parametrize("K,m", [(2, 1), (1, 3), (3, 0), (4, -1)])
    def test_rejects_degenerate_parameters(self, K, m):
        with pytest.raises(ValueError):
            derive_dims(K, m)


class TestSampling:
    def test_identical_seed_identical_realization(self):
        dims = derive_dims(3, 1)
        a = sample_network(dims, 1234)
        b = sample_network(dims, 1234)
        for i in range(3):
            for k in range(3):
                assert np.array_equal(a.gains[i, k], b.gains[i, k])

    def test_shapes(self):
        dims = derive_dims(3, 1)
        net = sample_network(dims, 5)
        assert net.gains.shape == (3, 3, 3)
        assert [f.name for f in fields(net)] == ["dims", "gains"]  # no eavesdropper row, no seed

    def test_distinct_links_distinct_gains(self):
        dims = derive_dims(3, 2)
        net = sample_network(dims, 5)
        assert not np.array_equal(net.gains[0, 0], net.gains[0, 1])

    def test_all_gains_nonzero(self):
        dims = derive_dims(4, 1)
        net = sample_network(dims, 99)
        assert np.all(np.abs(net.gains) > 0)

    def test_unit_second_moment(self):
        # Monte Carlo moment oracle: E|g|^2 = 1 for the sampler's law.
        dims = derive_dims(3, 2)
        mags = []
        for seed in range(250):
            net = sample_network(dims, seed)
            for i in range(3):
                for k in range(3):
                    mags.append(np.abs(net.gains[i, k]) ** 2)
        mags = np.concatenate(mags)
        assert mags.size >= 10_000
        assert abs(mags.mean() - 1.0) < 0.05

    def test_block_index_changes_draw(self):
        dims = derive_dims(3, 1)
        a = sample_network(dims, 7, block_index=0)
        b = sample_network(dims, 7, block_index=1)
        assert not np.array_equal(a.gains[0, 0], b.gains[0, 0])

    def test_eavesdropper_row(self):
        dims = derive_dims(3, 1)
        row = sample_eavesdropper_block(dims, 7, 0)
        assert row.shape == (3, 3)
        assert not hasattr(sample_network(dims, 7), "eavesdropper")
        # a block drawn among others is the row drawn alone, and no link's gains
        rows = sample_eavesdropper_block(dims, 7, [2, 0])
        assert np.array_equal(rows[1], row)
        assert not np.array_equal(rows[0], row)
        assert not np.isin(row, sample_network(dims, 7).gains).any()

    def test_gains_are_two_draws_per_link_stream(self):
        # the law at the seed: real then imaginary parts, F normals each,
        # from the (seed, link, i, k, block) SeedSequence stream
        dims = derive_dims(3, 2)
        seeds = [0, 5, 2**63 - 1]
        got = sample_gains(dims, seeds, block_index=4)
        assert got.shape == (3, 3, 3, 5)
        for t, seed in enumerate(seeds):
            for i in range(3):
                for k in range(3):
                    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_LINK, i, k, 4]))
                    want = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / np.sqrt(2.0)
                    assert np.array_equal(got[t, i, k], want)
            net = sample_network(dims, seed, block_index=4)
            for i in range(3):
                assert all(np.array_equal(net.gains[i, k], got[t, i, k]) for k in range(3))

    def test_rejected_gains_follow_the_per_stream_loop(self, monkeypatch):
        # a threshold that rejects about 40% of first draws sends many links
        # through the redraw-from-start path
        monkeypatch.setattr(model, "MIN_GAIN_MAGNITUDE", 0.7)
        dims = derive_dims(3, 1)
        got = sample_gains(dims, [8, 9])
        for t, seed in enumerate([8, 9]):
            for i in range(3):
                for k in range(3):
                    want = _sample_gains(sub_rng(seed, _TAG_LINK, i, k, 0), dims.F)
                    assert np.array_equal(got[t, i, k], want)
        assert np.all(np.abs(got) >= 0.7)

    def test_eavesdropper_blocks_independent_and_deterministic(self):
        dims = derive_dims(3, 1)
        b0 = sample_eavesdropper_block(dims, 11, 0)
        b0_again = sample_eavesdropper_block(dims, 11, 0)
        b1 = sample_eavesdropper_block(dims, 11, 1)
        assert np.array_equal(b0, b0_again)
        assert not np.array_equal(b0[0], b1[0])


# seeds at the word-count and uint32 and uint64 edges the array seeding must get right
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _path_rows(L):
    """1 to 8 paths of L elements: edge seeds, small indices, 63-bit and full 64-bit values."""
    element = st.one_of(
        st.sampled_from(EDGE_SEEDS),
        st.integers(0, 9),
        st.integers(0, 2**63 - 1),
        st.integers(0, 2**64 - 1),
    )
    return st.lists(st.lists(element, min_size=L, max_size=L), min_size=1, max_size=8)


class TestSeedSplitting:
    def test_stream_tags_are_distinct_and_live_in_model(self):
        # the tags keep the random streams disjoint under one master seed
        tags = {name: value for name, value in vars(model).items() if name.startswith("_TAG_")}
        assert len(tags) == 6 and len(set(tags.values())) == len(tags)
        for module in (alignment, cli, ergodic, gaussmi, secrecy):
            for name, value in vars(module).items():
                if name.startswith("_TAG_"):
                    assert tags.get(name) == value, (module.__name__, name)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            sub_rng(-1)
        with pytest.raises(ValueError):
            sub_rng(2**64)
        with pytest.raises(ValueError):
            sub_rng(3, 1, -1)
        with pytest.raises(ValueError):
            sub_rng(3, np.int64(-2))

    def test_stream_is_the_seed_sequence_of_the_list(self):
        # sub_rng hands SeedSequence the uint32 words of [seed, *path]; the
        # generator must be the one numpy builds from the list itself
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
        paths = [(), (0,), (1, 0, 2, 0), (2**32,), (2**40 + 3, 0), (2**64 + 5,),
                 (np.int64(7), np.int64(2**33)), (np.uint64(2**64 - 1), 0)]
        for seed in seeds:
            for path in paths:
                want = np.random.default_rng(np.random.SeedSequence([seed, *path]))
                got = sub_rng(seed, *path)
                assert got.bit_generator.state == want.bit_generator.state, (seed, path)
                assert np.array_equal(got.standard_normal(6), want.standard_normal(6))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(paths=st.integers(1, 6).flatmap(_path_rows), K=st.integers(3, 5))
    @example(paths=[[seed, 0, 0, 0, 0, 0] for seed in EDGE_SEEDS], K=3)
    @example(paths=[[seed] for seed in EDGE_SEEDS] + [[0], [1]], K=4)
    @example(paths=[[seed, 1, 2, 0, 999] for seed in EDGE_SEEDS + [16, 2**62 + 7]], K=5)
    @example(paths=[[2**40 + k] * k + [k] * (3 - k) for k in range(4)], K=3)
    @example(paths=[[2**32 + k] * k + [k] * (5 - k) for k in range(6)], K=4)
    def test_array_streams_are_numpys(self, paths, K):
        # _streams seeds each row as numpy seeds the list: SeedSequence's
        # pool mixing and PCG64's seeding, done over arrays, must give every
        # draw the pipeline makes from a stream's start, so a numpy change to
        # either algorithm fails here. The examples hold rows of every word
        # count from 1 to 10, each with its own hash constants
        rows = np.array(paths, dtype=np.uint64)
        for draw in (
            lambda rng: rng.standard_normal(7),
            lambda rng: rng.permutation(K),
            lambda rng: rng.integers(0, 2**63),
        ):
            got = [draw(rng) for rng in _streams(rows)]
            for path, value in zip(paths, got, strict=True):
                want = draw(np.random.Generator(np.random.PCG64(np.random.SeedSequence(path))))
                assert np.array_equal(value, want), path

    def test_path_sensitivity(self):
        a = sub_rng(3, 1, 2).standard_normal(4)
        b = sub_rng(3, 2, 1).standard_normal(4)
        assert not np.array_equal(a, b)


class TestPowerConfig:
    def test_effective_backoff(self):
        assert PowerConfig(rho=10.0, epsilon_margin=2.0).effective == 8.0

    @pytest.mark.parametrize("rho,eps", [(1.0, 1.0), (1.0, 2.0), (5.0, 0.0), (5.0, -1.0)])
    def test_margin_must_sit_inside_budget(self, rho, eps):
        with pytest.raises(ValueError):
            PowerConfig(rho=rho, epsilon_margin=eps)


class TestNetworkRealization:
    @pytest.mark.parametrize(
        "gains_shape",
        [(3, 3, 4), (5, 3, 3), (3, 5)],
        ids=["gains_shape0-None", "gains_shape1-None", "gains_shape2-None"],
    )
    def test_rejects_arrays_of_the_wrong_shape(self, gains_shape):
        # K=3, F=5: gains must be (3, 3, 5)
        with pytest.raises(ValueError):
            NetworkRealization(dims=derive_dims(3, 2), gains=np.ones(gains_shape, dtype=complex))

import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import iasec
from iasec import gaussmi
from iasec.alignment import AlignmentSet, _build, build_beamformers, build_generators, stream_power
from iasec.gaussmi import (
    DEFAULT_RHO_GRID,
    NumericalError,
    _log2det,
    _log2dets,
    _members,
    _set_mi,
    _set_spectra,
    _singular_values,
    _sizes,
    _subsets,
    _unit_factors,
    estimate_slope,
    expectation,
    mi_from_gains,
    mi_schur,
    receiver_gains,
    spectra_table,
)
from iasec.model import PowerConfig, derive_dims, sample_gains, sample_network
from iasec.secrecy import confidential_rates


def instance(K=3, m=2, seed=0, rho=1e4):
    net = sample_network(derive_dims(K, m), seed)
    aset = build_beamformers(net, build_generators(net))
    powers = stream_power(aset, PowerConfig(rho=rho))
    return net, aset, powers


def mi(net, aset, powers, receiver, signal, conditioned=()):
    return mi_from_gains(receiver_gains(net, aset, receiver), powers, signal, conditioned).bits


class TestQueryValidation:
    def test_empty_signal_rejected(self):
        net, aset, powers = instance()
        with pytest.raises(ValueError):
            mi(net, aset, powers, 0, set())

    def test_overlap_rejected(self):
        net, aset, powers = instance()
        with pytest.raises(ValueError):
            mi(net, aset, powers, 0, {1}, {1})


class TestEngine:
    def test_zero_power_is_zero_bits(self):
        net, aset, _ = instance()
        assert mi(net, aset, np.zeros(3), 0, {0}) == 0.0

    def test_scalar_awgn_closed_form(self):
        # |h|^2 P = 1 gives exactly log2(1 + 1) = 1 bit
        gains = [np.array([[0.5 + 0.0j]])]
        v = mi_from_gains(gains, np.array([4.0]), {0})
        assert abs(v.bits - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_rule(self, seed):
        net, aset, powers = instance(seed=seed)
        both = mi(net, aset, powers, 0, {1, 2})
        first = mi(net, aset, powers, 0, {1})
        second = mi(net, aset, powers, 0, {2}, {1})
        assert abs(both - (first + second)) <= 1e-9 * both

    @pytest.mark.parametrize("seed", range(10))
    def test_schur_oracle_agreement(self, seed):
        # moderate SNR: the 1e-9 agreement bar is conditioning-limited, and
        # kappa(I + Q) ~ rho eats into it above ~1e7
        net, aset, powers = instance(seed=seed, rho=1e6)
        gains = receiver_gains(net, aset, 1)
        for signal, cond in [({0}, ()), ({0, 2}, ()), ({2}, (0,)), ({1}, ())]:
            two_logdet = mi_from_gains(gains, powers, signal, cond).bits
            one_pass = mi_schur(gains, powers, signal, cond)
            assert abs(two_logdet - one_pass) <= 1e-9 * max(1.0, two_logdet)

    def test_enlarging_signal_set_monotone(self):
        net, aset, powers = instance(seed=3)
        small = mi(net, aset, powers, 0, {1})
        big = mi(net, aset, powers, 0, {1, 2})
        assert big >= small - 1e-12

    def test_conditioning_absorbs_noise(self):
        # numerical form of "conditioning does not increase entropy"
        for seed in range(8):
            net, aset, powers = instance(seed=seed)
            plain = mi(net, aset, powers, 0, {1})
            conditioned = mi(net, aset, powers, 0, {1}, {2})
            assert conditioned >= plain - 1e-9 * max(1.0, plain)

    def test_slope_invariant_under_column_rescaling(self):
        net, aset, _ = instance(seed=4)
        dims = net.dims

        def slope_with_scale(scale):
            scaled = build_beamformers(net, build_generators(net))
            scaled.beams = [v * scale for v in scaled.beams]

            def f(rho):
                p = stream_power(scaled, PowerConfig(rho=rho))
                return mi(net, scaled, p, 0, {0})

            return estimate_slope([f(rho) for rho in DEFAULT_RHO_GRID], DEFAULT_RHO_GRID).slope

        assert abs(slope_with_scale(1.0) - slope_with_scale(0.2)) < 1e-4


class TestStackedEngines:
    QUERIES = [({1, 2}, ()), ({1}, ()), ({2}, (1,)), ({1}, (2,)), ({0, 1, 2}, ()), ({0}, (1, 2))]

    @pytest.mark.parametrize("K, m", [(3, 1), (4, 1)])
    def test_stack_equals_per_network_calls(self, K, m):
        # gains [T, F, m_k] give each network's value bit for bit as a call
        # on that network's gains alone
        dims = derive_dims(K, m)
        links = sample_gains(dims, range(40, 47))
        beams, built = _build(links, m)
        assert built.all()
        aset = AlignmentSet(beams)
        powers = stream_power(aset, PowerConfig(rho=1e4))
        stacked = aset.apply(links[:, 0])
        for signal, cond in self.QUERIES:
            single = [mi_from_gains([g[j] for g in stacked], powers, signal, cond).bits for j in range(7)]
            got = mi_from_gains(stacked, powers, signal, cond).bits
            assert got.shape == (7,) and got.tobytes() == np.array(single).tobytes()
            single = [mi_schur([g[j] for g in stacked], powers, signal, cond) for j in range(7)]
            got = mi_schur(stacked, powers, signal, cond)
            assert got.shape == (7,) and got.tobytes() == np.array(single).tobytes()

    def test_stacked_schur_failure_reports_the_worst_failing_condition_number(self):
        # noise covariances diag(1 - 2c^2, 1, 1): c = 2 and 2.2 lose positive
        # definiteness (condition numbers 7 and 8.68), c = 0.5 does not
        e1 = np.eye(3, 1, dtype=complex)
        scale = np.array([2.0, 0.5, 2.2])[:, None, None]
        gains = [np.broadcast_to(e1, (3, 3, 1)), scale * e1]
        with pytest.raises(NumericalError) as err:
            mi_schur(gains, np.array([10.0, -2.0]), {0})
        assert err.value.condition_number == pytest.approx(8.68)


class TestLogdetPrimitive:
    def test_matches_dense_logdet(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        s2 = np.linalg.svd(b, compute_uv=False) ** 2
        for load in (0.0, 0.5, 30.0):
            _, dense = np.linalg.slogdet(np.eye(6) + load * (b @ b.conj().T))
            assert abs(_log2det(s2, load) - dense / math.log(2)) <= 1e-12 * max(1.0, dense)

    def test_empty_spectrum_is_zero_bits(self):
        assert _log2det(np.zeros(0), 1e12) == 0.0

    # The rate rules read every grid load in one call; their records equal
    # the one-load evaluations only while each load's log-det is summed in
    # the same order. Lengths straddle numpy's pairwise-summation block
    # (128) and reach the F=275 spectra of K=4, m=2.
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        loads=st.lists(st.floats(0.0, 1e13), min_size=1, max_size=9),
    )
    @example(n=128, seed=0, loads=[1e4 - 1, 1e12 - 1])
    @example(n=129, seed=1, loads=[1e4 - 1, 1e8 - 1, 1e12 - 1])
    @example(n=275, seed=2, loads=list(np.array(DEFAULT_RHO_GRID) - 1))
    @example(n=300, seed=3, loads=[0.0])
    def test_grid_of_loads_sums_as_each_load_alone(self, n, seed, loads):
        s2 = (10.0 ** np.random.default_rng(seed).uniform(-18, 2, n)) ** 2
        together = _log2det(s2, np.array(loads))
        assert together.tolist() == [_log2det(s2, load) for load in loads]


class TestUserSets:
    # a user set is its bitmask everywhere: user u is bit 1 << u
    @pytest.mark.parametrize("K", range(1, 7))
    @pytest.mark.parametrize("proper", [False, True])
    def test_masks_are_the_combinations_in_size_then_lexicographic_order(self, K, proper):
        sizes = range(1, K if proper else K + 1)
        want = [s for r in sizes for s in itertools.combinations(range(K), r)]
        masks = _subsets(K, proper=proper)
        assert masks.dtype == np.int64
        assert masks.tolist() == [sum(1 << u for u in s) for s in want]
        assert [_members(mask) for mask in masks] == [list(s) for s in want]
        assert _sizes(masks).tolist() == [len(s) for s in want]

    def test_empty_mask_has_no_members(self):
        assert _members(0) == [] and _sizes(0) == 0


class TestLogdetTable:
    # the one MI rule reads a table keyed by user bitmask: no silent zeros
    def table(self, K=3, m=2, receiver=0):
        net, aset, _ = instance(K, m)
        unit = _unit_factors(aset, net.gains[receiver])
        loads = np.subtract(DEFAULT_RHO_GRID, 1.0)
        return _log2dets(_set_spectra(unit, _subsets(K)), loads, K)

    def test_missing_set_reads_nan(self):
        net, aset, _ = instance()
        sets, _ = spectra_table(net, aset)[0]  # the sets with user 0, and the others
        ld = _log2dets(sets, np.subtract(DEFAULT_RHO_GRID, 1.0), 3)
        assert np.isnan(ld[:, [0b010, 0b100]]).all()
        # rest {0, 2} is present, the noise set {2} is not
        assert np.isnan(_set_mi(ld, 0b001, 0b010)).all()
        assert np.isfinite(_set_mi(ld, 0b110)).all()

    def test_empty_set_reads_zero(self):
        ld = self.table()
        assert (ld[:, 0] == 0.0).all() and not np.signbit(ld[:, 0]).any()
        # with no noise users left, the MI is the rest's log-det itself
        assert _set_mi(ld, 0b111).tobytes() == ld[:, 0b111].tobytes()
        assert _set_mi(ld, 0b011, 0b100).tobytes() == ld[:, 0b011].tobytes()

    @pytest.mark.parametrize("K, m", [(3, 2), (4, 1)])
    def test_broadcast_masks_match_scalar_calls(self, K, m):
        ld = self.table(K, m)
        full = 2**K - 1
        pairs = [(s, c) for s in range(1, full + 1) for c in range(full + 1) if not s & c]
        signal, conditioned = np.array(pairs).T
        got = _set_mi(ld, signal, conditioned)
        assert got.shape == (len(DEFAULT_RHO_GRID), len(pairs))
        for j, (s, c) in enumerate(pairs):
            assert got[:, j].tobytes() == _set_mi(ld, s, c).tobytes(), (s, c)
        # a single conditioning mask broadcasts against an array of signals
        others = np.array([0b001, 0b010])
        assert _set_mi(ld, others, [0b100]).tobytes() == _set_mi(ld, others, 0b100).tobytes()


class TestSumCapacityBound:
    """The leakage bracket a rate assignment carries: the codebook's isotropic
    value (`cross_bits`) below, the inflated-power relaxation above."""

    def test_upper_dominates(self):
        net, aset, _ = instance(seed=5)
        loads = np.array([PowerConfig(rho=1e4).effective])
        rates = confidential_rates(net, spectra_table(net, aset), loads)
        assert (rates.leak_upper_bits >= rates.cross_bits).all()

    def test_zero_power_both_zero(self):
        net, aset, _ = instance(seed=5)
        rates = confidential_rates(net, spectra_table(net, aset), np.zeros(1))
        assert rates.cross_bits.tolist() == [[0.0]] * 3
        assert rates.leak_upper_bits.tolist() == [[0.0]] * 3

    def test_brackets_share_slope(self):
        net, aset, _ = instance(3, 1, seed=6)
        loads = np.array([PowerConfig(rho=rho).effective for rho in DEFAULT_RHO_GRID])
        rates = confidential_rates(net, spectra_table(net, aset), loads)

        def slope_of(which):
            return estimate_slope(getattr(rates, which)[0], DEFAULT_RHO_GRID).slope

        # F - m_1 = 1 for K=3, m=1
        assert abs(slope_of("cross_bits") - 1.0) < 0.02
        assert abs(slope_of("leak_upper_bits") - 1.0) < 0.02


def _openblas_or_skip():
    blas = gaussmi._openblas()
    if blas is None:
        pytest.skip("numpy's linalg links no OpenBLAS with thread-count functions")
    return blas


# each thread runs one K=4, m=2 dof-sweep into its own directory, then one
# run alone; prints the exit codes
_CONCURRENT_SWEEPS = """
import json, sys, threading
from iasec.cli import main

cfg, outs = sys.argv[1], sys.argv[2:]
codes = {}

def sweep(out):
    codes[out] = main(["--config", cfg, "--seed", "16", "--out", out, "dof-sweep"])

threads = [threading.Thread(target=sweep, args=(out,)) for out in outs[:2]]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
sweep(outs[2])
print(json.dumps([codes[out] for out in outs]))
"""


class TestSingularValueHub:
    @pytest.mark.parametrize("rows, pinned", [(275, True), (600, False)])
    def test_the_thread_count_is_pinned_below_the_crossover_and_restored(
        self, rows, pinned, monkeypatch
    ):
        _, get, threads = _openblas_or_skip()
        svd, inside = np.linalg.svd, []

        def spy(a, **kwargs):
            inside.append(get())
            return svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        before = get()
        _singular_values(np.ones((rows, 3)))
        assert inside == [1 if pinned else threads]
        assert get() == before

    def test_the_count_is_restored_when_the_svd_raises(self, monkeypatch):
        _, get, _ = _openblas_or_skip()

        def fail(a, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        before = get()
        with pytest.raises(np.linalg.LinAlgError):
            _singular_values(np.ones((275, 3)))
        assert get() == before and not gaussmi._BLAS_LOCK.locked()

    def test_a_concurrent_call_waits_for_the_pinned_svd(self, monkeypatch):
        """A second thread's call during a pinned SVD would, unlocked, restore the
        count under it; it waits instead, and both SVDs run on one thread."""
        _, get, _ = _openblas_or_skip()
        svd, inside, second = np.linalg.svd, [], []

        def spy(a, **kwargs):
            inside.append(get())
            if not second:
                second.append(threading.Thread(target=_singular_values, args=(np.ones((275, 3)),)))
                second[0].start()
                second[0].join(timeout=0.2)
                inside.append(get())
            return svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        before = get()
        _singular_values(np.ones((275, 3)))
        second[0].join(timeout=30)
        assert inside == [1, 1, 1] and get() == before

    def test_without_openblas_the_values_are_numpys(self, monkeypatch):
        monkeypatch.setattr(gaussmi, "_openblas", lambda: None)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 275, 330)) + 1j * rng.standard_normal((2, 275, 330))
        assert _singular_values(a).tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()

    def test_concurrent_sweeps_write_the_solo_records(self, tmp_path):
        """Two K=4, m=2 sweeps at once in one process, at two BLAS threads, write
        the records of one run alone."""
        cfg = tmp_path / "k4.json"
        cfg.write_text(json.dumps({"scenario": "confidential", "K": 4, "m": 2}))
        outs = [tmp_path / name for name in ("a", "b", "solo")]
        src = str(Path(iasec.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _CONCURRENT_SWEEPS, str(cfg), *map(str, outs)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0]
        assert len({(out / "records.csv").read_bytes() for out in outs}) == 1


class TestSlopeEstimation:
    def test_scalar_channel_slope(self):
        fit = estimate_slope([math.log2(1 + r) for r in DEFAULT_RHO_GRID], DEFAULT_RHO_GRID)
        assert abs(fit.slope - 1.0) < 1e-3

    def test_own_stream_slope_matches_stream_count(self):
        net, aset, _ = instance(3, 2, seed=16)

        def f(rho):
            p = stream_power(aset, PowerConfig(rho=rho))
            return mi(net, aset, p, 0, {0})

        fit = estimate_slope([f(rho) for rho in DEFAULT_RHO_GRID], DEFAULT_RHO_GRID)
        assert abs(fit.slope - 3.0) / 3.0 < 0.02

    def test_cross_slope_matches_complement(self):
        net, aset, _ = instance(3, 2, seed=16)

        def f(rho):
            p = stream_power(aset, PowerConfig(rho=rho))
            return mi(net, aset, p, 0, {1, 2})

        fit = estimate_slope([f(rho) for rho in DEFAULT_RHO_GRID], DEFAULT_RHO_GRID)
        assert abs(fit.slope - 2.0) / 2.0 < 0.02

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            estimate_slope([1.0, 2.0], (1.0, 2.0))
        with pytest.raises(ValueError):
            estimate_slope([1e4, 1e3, 1e5], (1e4, 1e3, 1e5))
        with pytest.raises(ValueError):
            estimate_slope([1.0, 2.0, 3.0], (1.0, 2.0, 3.0))

    def test_rejects_non_finite_evaluations(self):
        from iasec.gaussmi import NumericalError

        with pytest.raises(NumericalError):
            estimate_slope([float("nan")] * len(DEFAULT_RHO_GRID), DEFAULT_RHO_GRID)

    def test_factorization_failure_carries_condition_number(self):
        from iasec.gaussmi import NumericalError

        # a negative noise power makes the noise covariance diag(-7, 1, 1)
        e1 = np.eye(3, 1, dtype=complex)
        with pytest.raises(NumericalError) as err:
            mi_schur([e1, 2.0 * e1], np.array([10.0, -2.0]), {0})
        assert err.value.condition_number == pytest.approx(7.0)
        with pytest.raises(NumericalError):
            mi_schur([e1, e1], np.array([1.0, -2.0]), {0})


class TestExpectation:
    # rows(r) returns one row per trial of the range r
    def test_constant_statistic(self):
        est = expectation(lambda r: np.full((len(r), 1), 3.25), trials=16, batch=4)
        assert est.mean[0] == 3.25
        assert est.ci_high[0] - est.ci_low[0] == 0.0

    def test_determinism(self):
        def rows(r):
            return [[np.random.default_rng(t).standard_normal()] for t in r]

        a = expectation(rows, 50, 7)
        b = expectation(rows, 50, 7)
        assert a.mean[0] == b.mean[0]

    @pytest.mark.parametrize("batch", [1, 5, 23])
    def test_batches_reduce_as_single_trials(self, batch):
        def rows(r):
            return np.array([np.random.default_rng(t).standard_normal(3) for t in r])

        single = expectation(rows, 23, 1)
        batched = expectation(rows, 23, batch)
        assert np.array_equal(single.mean, batched.mean)
        assert np.array_equal(single.ci_low, batched.ci_low)

    def test_ci_width_scales_with_trials(self):
        values = np.random.default_rng(0).standard_normal(64)
        double = np.concatenate([values, values])
        one = expectation(lambda r: values[r, None], 64, 16)
        two = expectation(lambda r: double[r, None], 128, 16)
        ratio = (two.ci_high[0] - two.ci_low[0]) / (one.ci_high[0] - one.ci_low[0])
        assert 0.6 < ratio < 0.8

    def test_gain_magnitude_moment_within_ci(self):
        dims = derive_dims(3, 1)

        def stat(net):
            g = np.concatenate([net.gains[i, k] for i in range(3) for k in range(3)])
            return float(np.mean(np.abs(g) ** 2))

        est = expectation(
            lambda r: [[stat(sample_network(dims, 121, block_index=t))] for t in r], 400, 50
        )
        assert est.ci_low[0] <= 1.0 <= est.ci_high[0]

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            expectation(lambda r: [[t] for t in r], 1, 1)

    # An ergodic pass reduces all of its statistics in one table and reads
    # each by its columns, which gives the same bits as reducing that
    # statistic alone only while a column's reduction ignores its
    # neighbours. numpy reduces each column of a table at least two columns
    # wide row by row; a one-column table is contiguous and summed pairwise,
    # which rounds differently, so width 1 is left out.
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        trials=st.integers(2, 1500),
        batch=st.integers(1, 300),
        width=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(trials=1500, batch=300, width=2, seed=0)
    @example(trials=1500, batch=1, width=12, seed=1)
    @example(trials=2, batch=1, width=3, seed=2)
    def test_a_column_subset_reduces_as_in_the_whole_table(self, trials, batch, width, seed):
        rng = np.random.default_rng(seed)
        magnitude = 10.0 ** rng.uniform(-8, 8, (trials, width))
        table = np.where(rng.random((trials, width)) < 0.5, -magnitude, magnitude)
        cols = rng.permutation(width)[: rng.integers(2, width + 1)]  # any order
        whole = expectation(lambda r: table[r.start : r.stop], trials, batch)
        part = expectation(lambda r: table[r.start : r.stop, cols], trials, batch)
        for field in ("mean", "ci_low", "ci_high"):
            assert getattr(part, field).tolist() == getattr(whole, field)[cols].tolist()

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iasec import alignment, model
from iasec.alignment import (
    RANK_FLOOR,
    AlignmentError,
    AlignmentSet,
    build_beamformers,
    build_generators,
    check_full_rank,
    numerical_rank,
    rank_failures,
    stream_power,
    verify_alignment,
)
from iasec.model import PowerConfig, derive_dims, sample_network, sub_rng


def svd_rank(mat, tol_factor=1e-10):
    # independent rank oracle used alongside the library's own
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(s > max(mat.shape) * s[0] * tol_factor))


def aligned_instance(K, m, seed=0):
    net = sample_network(derive_dims(K, m), seed)
    aset = build_beamformers(net, build_generators(net))
    return net, aset


class TestGenerators:
    def test_three_user_count(self):
        net = sample_network(derive_dims(3, 1), 0)
        gens, _, _ = build_generators(net)
        assert len(gens) == 1

    def test_four_user_count(self):
        net = sample_network(derive_dims(4, 1), 0)
        gens, _, _ = build_generators(net)
        assert len(gens) == 5
        assert all(g.shape == (33,) for g in gens)

    def test_inverse_roundtrip(self):
        # numerical inversion oracle: R * R^-1 = I elementwise
        net = sample_network(derive_dims(3, 2), 3)
        gens, _, _ = build_generators(net)
        r = gens[0]
        assert np.allclose(r * (1.0 / r), 1.0, rtol=1e-12)

    def test_commuting(self):
        net = sample_network(derive_dims(4, 1), 1)
        gens, _, _ = build_generators(net)
        for a in gens:
            for b in gens:
                assert np.allclose(a * b, b * a, rtol=1e-12)

    def test_zero_divisor_raises(self):
        net = sample_network(derive_dims(3, 1), 0)
        net.gains[1, 0] = 0
        with pytest.raises(AlignmentError):
            build_generators(net)

    def test_no_zero_entries(self):
        net = sample_network(derive_dims(4, 1), 2)
        gens, _, _ = build_generators(net)
        for g in gens:
            assert np.all(np.abs(g) > 0)


class TestBeamformers:
    def test_three_user_m1_shapes(self):
        _, aset = aligned_instance(3, 1)
        assert aset.beams[0].shape == (3, 2)
        assert aset.beams[1].shape == (3, 1)
        assert aset.beams[2].shape == (3, 1)

    def test_receiver0_interference_collapses(self):
        # SVD oracle: dim span(H01 V1 u H02 V2) = 1 = F - m1 for K=3, m=1
        net, aset = aligned_instance(3, 1, seed=5)
        stacked = np.hstack(aset.apply(net.gains[0])[1:])
        assert svd_rank(stacked) == 1

    def test_four_user_interference_dims(self):
        net, aset = aligned_instance(4, 1, seed=2)
        for i in range(4):
            stacked = np.hstack(
                [g for k, g in enumerate(aset.apply(net.gains[i])) if k != i]
            )
            assert svd_rank(stacked) == (1 if i == 0 else 32)

    @pytest.mark.parametrize("K, m", [(3, 1), (3, 3), (4, 1), (4, 2)])
    def test_columns_unit_normalized(self, K, m):
        # stream_power and the unit-power factors read c_k = m_k / F from the
        # beams' shapes: it rests on tr(V_k V_k^H) = m_k
        dims = derive_dims(K, m)
        beams, built = alignment._build(model.sample_gains(dims, [1, 2, 3]), m)
        assert built.all()
        for v, m_k in zip(beams, dims.streams, strict=True):
            assert v.shape == (3, dims.F, m_k)
            assert np.allclose(np.linalg.norm(v, axis=-2), 1.0, atol=1e-12)
            trace = np.trace(v @ v.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)
            assert np.allclose(trace, m_k, rtol=1e-12, atol=0)

    def test_single_generator_power_basis_dimension(self):
        # for K=3 the construction is {w, Rw, ..., R^m w}; span must be m+1
        for m in (1, 2, 3, 4):
            net, aset = aligned_instance(3, m, seed=6)
            assert svd_rank(aset.beams[0]) == m + 1


def product_beams(rx0, gens, s0, w, m):
    """Reference beams: every column of V_0 formed alone, in `itertools.product` order.

    A column is w times its generators' powers, multiplied left to right
    over its nonzero exponents; the columns are stacked, the shared block
    (every exponent below m) rotated, and each beam's columns normalized.
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
    rot = rx0[..., 1:, :] * s0[..., None, :]
    rotated = np.stack(shared, axis=-1)[..., None, :, :] / rot[..., None]
    beams = [np.stack(cols, axis=-1)] + [rotated[..., j, :, :] for j in range(rot.shape[-2])]
    return [b / np.linalg.norm(b, axis=-2, keepdims=True) for b in beams]


class TestBeamsByBroadcast:
    @pytest.mark.parametrize("K, m", [(3, 2), (4, 1), (4, 2)])
    @pytest.mark.parametrize("networks", [6, 1])
    def test_beams_equal_the_product_reference(self, K, m, networks):
        # the broadcast build keeps every bit of the column-by-column one
        dims = derive_dims(K, m)
        gains = model.sample_gains(dims, range(networks))
        gens, s0, w, zero = alignment._generators(gains, m)
        assert not zero.any()
        beams, zero_rot = alignment._beams(gains[:, 0], gens, s0, w, m)
        assert not zero_rot.any()
        want = product_beams(gains[:, 0], gens, s0, w, m)
        for v, ref, m_k in zip(beams, want, dims.streams, strict=True):
            assert v.shape == ref.shape == (networks, dims.F, m_k)
            assert v.tobytes() == ref.tobytes()


class TestVerifyAlignment:
    def test_k3_m2_interference_dims(self):
        net, aset = aligned_instance(3, 2, seed=7)
        report = verify_alignment(net, aset)
        assert [r.interference_dim for r in report.receivers] == [2, 3, 3]
        assert report.passed

    def test_residuals_below_tolerance(self):
        net, aset = aligned_instance(3, 3, seed=8)
        report = verify_alignment(net, aset)
        assert report.worst_containment < 1e-8

    def test_zero_beamformer_fails_rank_check(self):
        net, aset = aligned_instance(3, 1, seed=9)
        broken = AlignmentSet([np.zeros_like(aset.beams[0]), *aset.beams[1:]])
        report = verify_alignment(net, broken)
        assert not report.passed

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_beam_fails_without_an_svd_of_nans(self, monkeypatch, entry):
        # user 0's unit-power factor would carry a non-finite entry
        net, aset = aligned_instance(3, 1, seed=9)
        aset.beams[0][1, 0] = entry
        svd = np.linalg.svd

        def finite_only(a, *args, **kwargs):
            assert np.isfinite(a).all()
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", finite_only)
        report = verify_alignment(net, aset)
        assert not report.passed
        assert [r.interference_dim for r in report.receivers] == [0, 0, 0]
        assert report.worst_containment == np.inf
        assert "weakest signal 0.00e+00 below the float64 floor" in report.summary()

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_beam_fails_only_its_network(self, entry):
        # in a stack of 5, network 2 fails and is read with zero beams; the
        # other networks' spectra do not see it
        dims = derive_dims(3, 2)
        gains = model.sample_gains(dims, np.arange(5))
        beams, built = alignment._build(gains, dims.m)
        clean_ok, clean = alignment._verify(gains, AlignmentSet(beams), built)
        planted = [v.copy() for v in beams]
        planted[1][2, 0, 0] = entry
        ok, spectra = alignment._verify(gains, AlignmentSet(planted), built)
        assert clean_ok.all()
        assert ok.tolist() == [True, True, False, True, True]
        for pair, clean_pair in zip(spectra, clean, strict=True):
            for s2, clean_s2 in zip(pair, clean_pair, strict=True):
                assert np.array_equal(np.delete(s2, 2, axis=0), np.delete(clean_s2, 2, axis=0))
                assert not s2[2].any()

    @staticmethod
    def per_receiver_report(net, aset, floor):
        # reference: per receiver, one SVD of the others' unit-power factors
        # and one of all users' (in user order), read as in the README
        dims, F = net.dims, net.dims.F
        receivers, passed = [], True
        for i in range(dims.K):
            unit = [g * np.sqrt(F / m_k) for g, m_k in zip(aset.apply(net.gains[i]), dims.streams)]
            others = [k for k in range(dims.K) if k != i]
            interf = np.hstack([unit[k] for k in others])
            full = np.hstack(unit)
            s, s_all = (np.linalg.svd(a, compute_uv=False) for a in (interf, full))
            d = F - dims.streams[i]
            entry = {
                "receiver": i,
                "interference_dim": int(np.sum(s > floor * max(interf.shape) * s[0])),
                "expected_interference_dim": d,
                "concat_rank": int(np.sum(s_all > floor * max(full.shape) * s_all[0])),
                "expected_concat_rank": F,
                "containment": s[d] / s[0] if s[0] > 0 else np.inf,
                "weakest_interference": s[d - 1] / s[0] if s[0] > 0 else 0.0,
                "weakest_signal": s_all[F - 1] / s_all[0] if s_all[0] > 0 else 0.0,
            }
            passed &= (entry["interference_dim"], entry["concat_rank"]) == (d, F)
            receivers.append(entry)
        return passed, receivers

    @pytest.mark.parametrize(
        "K, m, seed, floor, broken",
        [
            (3, 2, 7, RANK_FLOOR, False),
            (3, 3, 8, RANK_FLOOR, False),
            (4, 1, 4, RANK_FLOOR, False),
            # the others' floor at rx0 is 5 * 2e-17 = 1e-16, so it fails on its
            # containment alone (1.4e-16 at rx0)
            (3, 2, 7, 2e-17, False),
            (3, 1, 9, RANK_FLOOR, True),  # a zero beamformer
        ],
        ids=["3-2-7", "3-3-8", "4-1-4", "3-2-7-floor-2e-17", "3-1-9-zero-beam"],
    )
    def test_report_matches_per_matrix_loop(self, monkeypatch, K, m, seed, floor, broken):
        net, aset = aligned_instance(K, m, seed=seed)
        if broken:
            aset.beams[0] = np.zeros_like(aset.beams[0])
        monkeypatch.setattr(alignment, "RANK_FLOOR", floor)
        report = verify_alignment(net, aset).as_dict()
        passed, receivers = self.per_receiver_report(net, aset, floor)
        assert report["passed"] == passed == (not broken and floor == RANK_FLOOR)
        assert report["rank_floor"] == floor and RANK_FLOOR == 100 * np.finfo(float).eps
        assert report["worst_containment"] == max(r["containment"] for r in report["receivers"])
        for have, want in zip(report["receivers"], receivers, strict=True):
            assert set(have) == set(want)
            for key, value in want.items():
                assert have[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    def test_build_raises_on_degenerate_verification(self):
        net = sample_network(derive_dims(3, 1), 10)
        # an all-equal grid makes every ratio 1 and the basis rank deficient
        net.gains[:] = 1
        with pytest.raises(AlignmentError):
            build_beamformers(net, build_generators(net))


def replaced_rule_passes(net, aset):
    # reference: the rule the spectral verification replaced. Per receiver,
    # the interference, the own streams and both together must have ranks
    # F - m_i, m_i and F under a tolerance of max(shape) * 1e-10 * sigma_1,
    # and each interferer's part outside the span of the reference
    # interferer (user 1 at receiver 0, user 0 elsewhere) must have a
    # relative 2-norm below residual_tol, that rule's own ceiling
    residual_tol = 1e-8
    dims = net.dims
    for i in range(dims.K):
        eff = aset.apply(net.gains[i])
        others = [k for k in range(dims.K) if k != i]
        stacked = np.hstack([eff[k] for k in others])
        ranks = (svd_rank(stacked), svd_rank(eff[i]), svd_rank(np.hstack([eff[i], stacked])))
        if ranks != (dims.F - dims.streams[i], dims.streams[i], dims.F):
            return False
        ref = 1 if i == 0 else 0
        q = np.linalg.qr(eff[ref])[0]
        for k in others:
            outside = eff[k] - q @ (q.conj().T @ eff[k])
            if k != ref and not np.linalg.norm(outside, 2) < residual_tol * np.linalg.norm(eff[k], 2):
                return False
    return True


class TestRuleAgainstTheReplacedOne:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        point=st.sampled_from([(3, m) for m in range(1, 13)] + [(4, 1), (4, 2)]),
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(0, 3),
    )
    def test_passes_every_draw_the_replaced_rule_passes(self, point, seed, block):
        dims = derive_dims(*point)
        net = sample_network(dims, seed, block_index=block)
        aset = build_beamformers(net, build_generators(net), verify=False)
        report = verify_alignment(net, aset)
        if replaced_rule_passes(net, aset):
            assert report.passed, report.summary()
        if report.passed:  # then the containment sits at or below the floor
            for r, m_i in zip(report.receivers, dims.streams):
                shape = (dims.F, sum(dims.streams) - m_i)
                assert r.containment <= RANK_FLOOR * max(shape)


class TestFullRank:
    def test_clean_draws_have_no_failures(self):
        audit = check_full_rank(derive_dims(3, 1), trials=50, seed=123)
        assert audit.passed and audit.failures == 0

    def test_zeroed_gains_detected(self):
        # zeroing F - m_k + 1 = 2 slots of a cross link forces rank m1 - 1
        net, aset = aligned_instance(3, 1, seed=12)
        net.gains[1, 0, :2] = 1e-300
        bad = rank_failures(net, aset)
        assert (1, 0) in bad


    @staticmethod
    def per_redraw_failing_trials(dims, trials, seed):
        # reference: one network, one build and K^2 rank tests per redraw,
        # each link by its own SVD, with no bound deciding any of them
        failing = []
        K = dims.K
        for t in range(trials):
            net = sample_network(dims, sub_rng(seed, model._TAG_AUDIT, t).integers(0, 2**63))
            try:
                aset = build_beamformers(net, build_generators(net), verify=False)
            except AlignmentError:
                failing.append(t)
                continue
            links = [net.gains[i, k][:, None] * aset.beams[k] for i in range(K) for k in range(K)]
            if any(numerical_rank(hv) != hv.shape[1] for hv in links):
                failing.append(t)
        return failing

    @pytest.mark.parametrize(
        "K,m,trials,seed",
        [(3, 12, 200, 16), (3, 12, 200, 61), (3, 12, 200, 4), (3, 20, 100, 16), (3, 20, 100, 61)],
    )
    def test_audit_matches_per_link_reference_at_the_float64_frontier(self, K, m, trials, seed):
        # here H_ik V_k can read rank short where V_k alone does not, so a
        # test of rank(V_k) alone gives other verdicts than the K^2 links
        dims = derive_dims(K, m)
        audit = check_full_rank(dims, trials=trials, seed=seed)
        reference = self.per_redraw_failing_trials(dims, trials, seed)
        assert reference and audit.failing_trials == reference
        assert 0 < audit.exact_links <= trials * K**2

    @pytest.mark.parametrize(
        "K,m,trials,per_chunk,deficient,broken",
        [
            (3, 1, 200, None, 57, 140),
            (3, 2, 200, None, 3, 199),
            (4, 1, 200, None, 120, 45),
            (3, 1, 200, 6, 0, 101),  # chunks of 6 redraws, the last holds 2
            (4, 1, 1, None, 0, None),
        ],
    )
    def test_stacked_audit_matches_per_redraw_loop(
        self, monkeypatch, K, m, trials, per_chunk, deficient, broken
    ):
        dims = derive_dims(K, m)
        seed = 31
        if per_chunk is not None:
            monkeypatch.setattr(alignment, "_CHUNK_BYTES", per_chunk * alignment._network_bytes(dims))
        draw_seed = {
            int(sub_rng(seed, model._TAG_AUDIT, t).integers(0, 2**63)): t
            for t in (deficient, broken)
            if t is not None
        }
        sample = model.sample_gains

        def patched(dims, seeds, block_index=0):
            # near-zero slots of the cross link (1, 0) leave H_10 V_0 rank
            # short without tripping a divisor check; an exact zero there
            # divides by zero while the generators are formed
            gains = sample(dims, seeds, block_index)
            for row, s in enumerate(seeds):
                if draw_seed.get(int(s)) == deficient:
                    gains[row, 1, 0, : dims.streams[1] + 1] = 1e-30
                elif draw_seed.get(int(s)) == broken:
                    gains[row, 1, 0, 0] = 0.0
            return gains

        monkeypatch.setattr(model, "sample_gains", patched)
        monkeypatch.setattr(alignment, "sample_gains", patched)
        audit = check_full_rank(dims, trials=trials, seed=seed)
        reference = self.per_redraw_failing_trials(dims, trials, seed)
        assert audit.failing_trials == reference
        assert audit.failures == len(reference) and audit.trials == trials
        assert deficient in reference
        assert broken is None or broken in reference


    def test_one_singular_value_call_per_user_and_chunk(self, monkeypatch):
        # one chunk holds all 200 redraws: one stacked call on the
        # 32-column V_0 and the norms of the one-column beams certify every
        # link, and a link planted near zero takes one more call over just
        # its own row
        monkeypatch.setattr(alignment, "_CHUNK_BYTES", 1 << 30)
        svd = np.linalg.svd
        shapes = []

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        audit = check_full_rank(derive_dims(4, 1), trials=200, seed=5)
        assert shapes == [(200, 33, 32)]
        assert (audit.failures, audit.exact_links) == (0, 0)

        sample = model.sample_gains

        def planted(dims, seeds, block_index=0):
            # the construction never reads the direct link (2, 2)
            gains = sample(dims, seeds, block_index)
            gains[7, 2, 2, :2] = 1e-30
            return gains

        monkeypatch.setattr(alignment, "sample_gains", planted)
        shapes.clear()
        audit = check_full_rank(derive_dims(4, 1), trials=200, seed=5)
        assert sorted(shapes) == sorted([(200, 33, 32), (1, 33, 1)])
        assert (audit.failures, audit.exact_links) == (0, 1)


class TestStreamPower:
    def test_arithmetic_example(self):
        # one user with m_k = 2 streams over F = 3 slots: P = 6 * 3 / 2
        aset = AlignmentSet([np.zeros((3, 2), dtype=complex)])
        p = stream_power(aset, PowerConfig(rho=7.0, epsilon_margin=1.0))
        assert np.allclose(p, [9.0])

    def test_power_constraint_identity(self):
        net, aset = aligned_instance(3, 2, seed=13)
        cfg = PowerConfig(rho=1e4, epsilon_margin=1.0)
        p = stream_power(aset, cfg)
        for k in range(3):
            v = aset.beams[k]
            spent = np.trace(v @ v.conj().T).real * p[k] / net.dims.F
            assert np.isclose(spent, cfg.effective, rtol=1e-12)

    def test_large_user_gets_less_per_stream(self):
        net, aset = aligned_instance(3, 1, seed=14)
        p = stream_power(aset, PowerConfig(rho=100.0))
        assert np.isclose(p[0] / p[1], 1 / 2, rtol=1e-12)

    def test_rejects_nonpositive_budget(self):
        _, aset = aligned_instance(3, 1, seed=15)
        with pytest.raises(ValueError):
            PowerConfig(rho=1.0, epsilon_margin=1.0)


def test_numerical_rank_empty_matrix():
    assert numerical_rank(np.zeros((3, 0))) == 0

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from iasec import alignment, cli, ergodic
from iasec.alignment import (
    _report,
    align_first_valid,
    build_beamformers,
    build_generators,
    numerical_rank,
    stream_power,
    verify_alignment,
)
from iasec.cli import ExperimentConfig, main
from iasec.ergodic import (
    ErgodicPass,
    _block_orders,
    block_network,
    eavesdropper_budget_check,
    ergodic_pass,
    ergodic_rates,
    mi_inequality_audit,
)
from iasec.gaussmi import (
    DEFAULT_RHO_GRID,
    _log2det,
    _members,
    _mi_bits,
    _squared_singular_values,
    _subsets,
    _unit_factors,
    mi_from_gains,
    spectra_table,
)
from iasec.model import (
    _TAG_PERM,
    _TAG_RETRY,
    NetworkRealization,
    PowerConfig,
    derive_dims,
    sample_eavesdropper_block,
    sample_network,
    sub_rng,
)
from iasec.secrecy import confidential_rates

SEED = 16


def one_pass(dims, rhos, trials, seed=SEED):
    """A pass at the loads rho - eps, eps = 1."""
    return ergodic_pass(dims, np.subtract(rhos, 1.0), trials, seed)


class TestSchedule:
    # the per-block ordering each block_network draw uses
    def test_shape_and_bijection(self):
        orders = _block_orders(3, 1, range(5))
        assert orders.shape == (5, 3)
        assert all(sorted(order) == [0, 1, 2] for order in orders.tolist())

    def test_deterministic(self):
        # a block's ordering is its own stream's, whichever blocks are drawn beside it
        a = _block_orders(3, 2, range(20))
        b = np.concatenate([_block_orders(3, 2, [b]) for b in range(20)])
        assert np.array_equal(a, b)
        assert np.array_equal(a, [sub_rng(2, _TAG_PERM, b).permutation(3) for b in range(20)])

    def test_uniform_over_orderings(self):
        # chi-square oracle against the uniform law on the 3! orderings
        keys = [tuple(order) for order in _block_orders(3, 3, range(6000)).tolist()]
        counts = np.array([keys.count(p) for p in sorted(set(keys))])
        assert counts.size == 6
        assert stats.chisquare(counts).pvalue > 0.01


class TestBlockNetwork:
    def test_identity_permutation_matches_static_construction(self):
        # a block whose drawn ordering is the identity keeps the sampled grid
        dims = derive_dims(3, 1)
        b = _block_orders(3, SEED, range(100)).tolist().index([0, 1, 2])
        block = block_network(dims, SEED, b)
        net = sample_network(dims, SEED, block_index=b)
        aset = build_beamformers(net, build_generators(net))
        assert block.attempts.tolist() == [0]
        assert np.array_equal(block.gains[0], net.gains)
        assert np.array_equal(block.eavesdropper[0], sample_eavesdropper_block(dims, SEED, b))
        for k in range(3):
            assert np.allclose(block.aset.beams[k][0], aset.beams[k])

    @pytest.mark.parametrize("K, m", [(3, 2), (4, 1)])
    def test_every_path_reads_one_network_alike(self, K, m):
        # verify_alignment, align_first_valid, a fading block whose ordering is
        # the identity and the confidential table all stack each user set in
        # user order, so one network gets bit-identical spectra and one report
        dims = derive_dims(K, m)
        b = _block_orders(K, SEED, range(100)).tolist().index([*range(K)])
        net = sample_network(dims, SEED, block_index=b)
        gains, aset, spectra, _ = align_first_valid(
            lambda attempt, rows: net.gains[None], 1, m, 1, str
        )
        block = block_network(dims, SEED, b)
        assert np.array_equal(block.gains, gains)
        table = spectra_table(net, aset[0])
        for i, (others, everyone) in enumerate(spectra):
            assert np.array_equal(block.spectra[i][0], others)
            assert np.array_equal(block.spectra[i][1], everyone)
            full = 2**K - 1
            assert np.array_equal(table[i][0][full & ~(1 << i)], others[0])
            assert np.array_equal(table[i][0][full], everyone[0])
        report = verify_alignment(net, aset[0]).as_dict()
        assert report["passed"]
        assert report == _report(dims.streams, spectra).as_dict()
        assert report == _report(dims.streams, block.spectra).as_dict()

    def test_role_rotation_frequency(self):
        large_role_user = _block_orders(3, 4, range(3000))[:, 0]
        for user in range(3):
            share = np.mean(large_role_user == user)
            assert abs(share - 1 / 3) < 1 / 3 * 0.10

    def test_per_block_interference_dims_follow_roles(self):
        dims = derive_dims(3, 2)
        for b in range(4):
            block = block_network(dims, 11, b)
            K, F = dims.K, dims.F
            for r in range(K):
                eff = block.aset.apply(block.gains[:, r])
                stacked = np.concatenate([g for s, g in enumerate(eff) if s != r], axis=-1)
                assert numerical_rank(stacked).tolist() == [F - dims.streams[r]]

    def test_failed_verification_resamples_and_is_recorded(self, monkeypatch):
        # block 2's first draw fails verification: it is redrawn alone from
        # its first retry salt, and the pass lists it as resampled
        spectra, passes = alignment._receiver_spectra, alignment._passes
        verified = []

        def recorded(gains, aset):
            verified.append(gains.copy())
            return spectra(gains, aset)

        def fail_block_2_first(*args):
            ok = passes(*args)
            if len(verified) == 1:
                ok[2] = False
            return ok

        monkeypatch.setattr(alignment, "_receiver_spectra", recorded)
        monkeypatch.setattr(alignment, "_passes", fail_block_2_first)
        dims = derive_dims(3, 1)
        pass_ = one_pass(dims, [1e8], 4)
        perm = _block_orders(3, SEED, [2])[0]
        salt = int(sub_rng(SEED, _TAG_RETRY, 2, 1).integers(0, 2**63))
        first, redraw = (sample_network(dims, s, block_index=2).gains for s in (SEED, salt))
        # one chunk verifies the four first draws, then block 2's redraw alone
        assert [len(g) for g in verified] == [4, 1]
        assert np.array_equal(verified[0][2], first[np.ix_(perm, perm)])
        assert np.array_equal(verified[1][0], redraw[np.ix_(perm, perm)])
        assert pass_.resampled_blocks == [2]

    def test_redraws_shrink_as_blocks_pass(self, monkeypatch):
        # block 2 fails draws 0 and 1, block 3 fails draw 0: each draw is one
        # stacked verification of the blocks still failing
        spectra, passes = alignment._receiver_spectra, alignment._passes
        verified = []

        def recorded(gains, aset):
            verified.append(gains.copy())
            return spectra(gains, aset)

        def fail(*args):
            ok = passes(*args)
            # rows of each verified stack: draw 0 of all four, then the redraws
            ok[{1: [2, 3], 2: [0]}.get(len(verified), [])] = False
            return ok

        monkeypatch.setattr(alignment, "_receiver_spectra", recorded)
        monkeypatch.setattr(alignment, "_passes", fail)
        dims = derive_dims(3, 1)
        pass_ = one_pass(dims, [1e8], 4)
        assert [len(g) for g in verified] == [4, 2, 1]
        assert pass_.resampled_blocks == [2, 3]
        for attempt, blocks in ((1, [2, 3]), (2, [2])):
            for row, t in enumerate(blocks):
                perm = _block_orders(3, SEED, [t])[0]
                salt = int(sub_rng(SEED, _TAG_RETRY, t, attempt).integers(0, 2**63))
                redraw = sample_network(dims, salt, block_index=t).gains
                assert np.array_equal(verified[attempt][row], redraw[np.ix_(perm, perm)])


class TestErgodicRates:
    def test_rate_identities(self):
        dims = derive_dims(3, 1)
        pass_ = one_pass(dims, [1e4, 1e8], 40)
        mean = {name: pass_.stats(name).mean for name in ("own", "eav", "eav_up", "R", "Rx")}
        assert all(v.shape == (2,) for v in mean.values())  # five statistics per load
        est = ergodic_rates(pass_)
        K, F = dims.K, dims.F
        assert est.Rx == pytest.approx(mean["eav"] / (K * F), rel=1e-12)
        assert est.R_raw == pytest.approx((K * mean["own"] - mean["eav_up"]) / (K * F), rel=1e-9)
        assert (est.R >= 0).all()

    def test_needs_thirty_trials(self):
        with pytest.raises(ValueError):
            ergodic_rates(one_pass(derive_dims(3, 1), [1e4], 10, seed=1))

    def test_own_stream_expectation_slope(self):
        # role rotation mixes stream counts: slope (m1 + (K-1) m2) / K
        from iasec.gaussmi import estimate_slope

        dims = derive_dims(3, 2)
        pass_ = one_pass(dims, DEFAULT_RHO_GRID, 60)
        fit = estimate_slope(pass_.stats("own").mean, DEFAULT_RHO_GRID)
        target = (dims.streams[0] + 2 * dims.streams[1]) / 3
        assert abs(fit.slope - target) / target < 0.05


class TestBudget:
    @pytest.fixture(scope="class")
    def pass_(self):
        return one_pass(derive_dims(3, 1), [1e8], 60)

    def test_rule_rate_decodable_for_every_subset(self, pass_):
        report = eavesdropper_budget_check(pass_)
        assert report.passed

    def test_full_set_is_tight(self, pass_):
        report = eavesdropper_budget_check(pass_)
        full = [e for e in report.entries if e[0] == 0b111][0]
        assert full[1] == 3 * ergodic_rates(pass_).Rx[-1]
        assert abs(full[4]) < 1e-9

    def test_slack_below_its_allowance_fails_at_full_set(self, pass_):
        # lower the full set's paired slack, with its interval, by 3 Rx: the
        # slack a pass whose Rx were twice the rule's would read
        est = pass_.estimate
        shift = np.zeros_like(est.mean)
        shift[pass_.layout["slack"]][-1] = -3 * ergodic_rates(pass_).Rx[-1]  # the last of 7 sets
        moved = replace(est, mean=est.mean + shift, ci_low=est.ci_low + shift,
                        ci_high=est.ci_high + shift)
        report = eavesdropper_budget_check(replace(pass_, estimate=moved))
        assert not report.passed
        *rest, full = report.entries
        assert full[0] == 0b111 and full[4] < -full[3]
        assert full[4] == pytest.approx(-full[1], abs=1e-9)
        assert rest == eavesdropper_budget_check(pass_).entries[:-1]


class TestInequalityAudit:
    def test_all_lemmas_hold(self):
        report = mi_inequality_audit(one_pass(derive_dims(3, 1), [1e8], 150))
        assert report.lemma3_violations == 0
        assert report.lemma4_passed
        assert report.symmetry_passed
        assert report.passed

    def test_enumeration_guard(self):
        # the guard reads only the dimensions, so no K=5 (F=2049) block is built
        five = ErgodicPass(dims=derive_dims(5, 1), estimate=None, layout={}, resampled_blocks=[])
        with pytest.raises(ValueError):
            mi_inequality_audit(five)


class TestSymmetryAudit:
    def test_user_means_agree(self):
        pass_ = one_pass(derive_dims(3, 1), [1e6], 300)
        # unconditioned, then given each single user: one column per other user
        groups = [key for key in pass_.layout if isinstance(key, tuple)]
        assert groups == [("symmetry", cond) for cond in (0, 0b001, 0b010, 0b100)]
        assert [pass_.stats(key).mean.shape for key in groups] == [(3,), (2,), (2,), (2,)]
        assert mi_inequality_audit(pass_).symmetry_passed

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            mi_inequality_audit(one_pass(derive_dims(3, 1), [1e4], 29, seed=1))


def _close(have, want):
    """rel 1e-12, or abs 1e-9 where the value is a numerical zero."""
    return math.isclose(have, want, rel_tol=1e-12, abs_tol=1e-9 if abs(want) < 1e-6 else 0.0)


def _audit_tuples(K):
    """`ergodic._audit_sets(K)` decoded: the pairs, strict subsets and conditioning sets as tuples."""
    (first, second), strict, sym_conds = ergodic._audit_sets(K)

    def decode(masks):
        return [tuple(_members(s)) for s in masks]

    return list(zip(decode(first), decode(second))), decode(strict), decode(sym_conds)


def test_audit_sets_are_the_enumerated_tuples():
    # Lemma 3: every ordered pair of disjoint nonempty sets; Lemma 4: every
    # strict subset; symmetry: the empty set, then each set of K - 2 users or fewer
    for K in (3, 4):
        nonempty = [s for r in range(1, K + 1) for s in itertools.combinations(range(K), r)]
        pairs, strict, sym_conds = _audit_tuples(K)
        assert pairs == [(a, b) for a in nonempty for b in nonempty if not set(a) & set(b)]
        assert strict == nonempty[:-1]
        assert sym_conds == [()] + [c for c in strict if len(c) <= K - 2]


def _reference_rows(dims, powers, trials):
    """Per-block statistics recomputed with mi_from_gains on the same blocks.

    Returns per-power (own, eav, eav_up, R) rows, budget right-hand sides,
    Lemma 4 differences and the Lemma 3 violation count, all at the last power
    for the last three.
    """
    K, F = dims.K, dims.F
    subsets = [_members(s) for s in _subsets(K)]
    pairs, strict, _ = _audit_tuples(K)
    rates, budget, lemma4, lemma3 = [], [], [], 0
    for t in range(trials):
        block = block_network(dims, SEED, t)
        aset = block.aset[0]
        eg = aset.apply(block.eavesdropper[0])
        rg = [aset.apply(g) for g in block.gains[0]]
        row = []
        for power in powers:
            p = stream_power(aset, power)
            own = np.mean([mi_from_gains(rg[r], p, {r}).bits for r in range(K)])
            eav = mi_from_gains(eg, p, range(K)).bits
            p_up = np.array([dims.streams[r] * p[r] for r in range(K)])
            eav_up = mi_from_gains(eg, p_up, range(K)).bits
            row.append([own, eav, eav_up, (K * own - eav_up) / (K * F)])
        rates.append(row)

        p = stream_power(aset, powers[-1])
        role_of = block.perm[0].tolist().index

        def mi(sig, cond=()):
            roles = [role_of(u) for u in sig]
            return mi_from_gains(eg, p, roles, conditioned=[role_of(u) for u in cond]).bits

        budget.append([mi(s, [u for u in range(K) if u not in s]) / F for s in subsets])
        diffs = []
        for sub in strict:
            rest = tuple(u for u in range(K) if u not in sub)
            diffs.append(mi(rest) / len(rest) - mi(sub, rest) / len(sub))
        lemma4.append(diffs)
        for m_set, l_set in pairs:
            plain = mi(m_set)
            lemma3 += plain > mi(m_set, l_set) + 1e-9 * max(1.0, plain)
    return (np.mean(rates, axis=0), np.mean(budget, axis=0), np.mean(lemma4, axis=0), lemma3)


class TestOnePass:
    @pytest.mark.parametrize("K, m", [(3, 2), (4, 1)])
    def test_columns_match_per_block_recomputation(self, K, m):
        dims = derive_dims(K, m)
        powers = [PowerConfig(rho=r) for r in DEFAULT_RHO_GRID]
        pass_ = ergodic_pass(dims, [p.effective for p in powers], 30, SEED)
        rates, budget, lemma4, lemma3 = _reference_rows(dims, powers, 30)
        est = ergodic_rates(pass_)
        own, eav, eav_up = (pass_.stats(name).mean for name in ("own", "eav", "eav_up"))
        for g, rho in enumerate(DEFAULT_RHO_GRID):
            have = [own[g], eav[g], eav_up[g], est.R_raw[g]]
            for h, w in zip(have, rates[g]):
                assert _close(h, w), (rho, h, w)
        report = eavesdropper_budget_check(pass_)
        for entry, want in zip(report.entries, budget, strict=True):
            assert _close(entry[2], want), (entry, want)
        for have, want in zip(pass_.stats("lemma4").mean, lemma4, strict=True):
            assert _close(have, want), (have, want)
        assert mi_inequality_audit(pass_).lemma3_violations == lemma3

    @pytest.mark.parametrize("blocks_per_chunk", [1, 7])
    def test_estimate_does_not_depend_on_chunks(self, monkeypatch, blocks_per_chunk):
        # with the others' floor at 2.37e-16 three blocks are resampled (see below)
        monkeypatch.setattr(alignment, "RANK_FLOOR", 2.37e-16 / 5)
        dims = derive_dims(3, 2)
        loads = np.subtract(DEFAULT_RHO_GRID, 1.0)
        assert alignment._chunk(dims) >= 80  # one chunk
        whole = ergodic_pass(dims, loads, 80, SEED)
        chunk_bytes = blocks_per_chunk * alignment._network_bytes(dims)
        monkeypatch.setattr(alignment, "_CHUNK_BYTES", chunk_bytes)
        chunked = ergodic_pass(dims, loads, 80, SEED)
        for field in ("mean", "ci_low", "ci_high"):
            assert np.array_equal(getattr(chunked.estimate, field), getattr(whole.estimate, field))
        assert chunked.resampled_blocks == whole.resampled_blocks == [4, 12, 47]

    def test_golden_resamples(self, monkeypatch):
        # K=3, m=2, seed 16: the first draws of blocks 12, 4 and 47 have
        # containments sigma_{d+1} / sigma_1 of 2.82e-16, 2.67e-16 and
        # 2.52e-16, at least 6% above 2.37e-16; every other first draw of the
        # 80 lies at least 5.6% below it (the nearest are blocks 31 and 7, at
        # 2.24e-16), and each of the three passes on its first redraw, at
        # 2.01e-16 or less. With the floor at 2.37e-16 / 5 the others' floor
        # (5 columns or rows at most) is 2.37e-16, and the weakest singular
        # values stay far above it
        dims = derive_dims(3, 2)
        with monkeypatch.context() as patched:
            patched.setattr(alignment, "RANK_FLOOR", 2.37e-16 / 5)
            pass_ = one_pass(dims, [1e8], 80)
            assert pass_.resampled_blocks == [4, 12, 47]
            for t in pass_.resampled_blocks:
                assert block_network(dims, SEED, t).attempts.tolist() == [1]
        assert block_network(dims, SEED, 47).attempts.tolist() == [0]

    def test_each_block_built_once(self, monkeypatch, tmp_path):
        built = []
        align = ergodic._align_blocks

        def counted(dims, seed, index):
            built.extend(index)
            return align(dims, seed, index)

        monkeypatch.setattr(ergodic, "_align_blocks", counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "external-ergodic", "K": 3, "m": 1}))
        base = ["--config", str(cfg), "--seed", str(SEED), "--trials", "40"]
        assert main(base + ["--out", str(tmp_path / "e"), "ergodic"]) in (0, 1)
        assert sorted(built) == list(range(40))
        built.clear()
        assert main(base + ["--out", str(tmp_path / "a"), "audit"]) in (0, 1)
        assert sorted(built) == list(range(40))


def _set_mi(ld, users, signal, conditioned=()):
    """Reference rule: I(X_S; Y | X_C) = ld(rest) - ld(rest - S), rest = U - C, U the set `users`.

    `ld` maps frozensets of users to log-dets; an empty noise set reads zero.
    """
    rest = users.difference(conditioned)
    noise = rest.difference(signal)
    top = ld[rest]
    return _mi_bits(top, ld[noise] if noise else 0.0 * top)


def _set_mi_groups(blocks, loads):
    """The rhs, Lemma 3, Lemma 4 and symmetry groups of a chunk, one reference `_set_mi` per set.

    The top-load log-det of user set S in block j is that of the role set
    {r : perm[j, r] in S} at the eavesdropper.
    """
    dims = blocks.dims
    K, F, B = dims.K, dims.F, len(blocks.index)
    users, nonempty = frozenset(range(K)), [_members(s) for s in _subsets(K)]
    unit = _unit_factors(blocks.aset, blocks.eavesdropper)
    eaves = {
        frozenset(s): _log2det(_squared_singular_values([unit[r] for r in s]), loads) for s in nonempty
    }
    ld = {
        frozenset(s): np.array(
            [eaves[frozenset(r for r in range(K) if blocks.perm[j, r] in s)][j, -1] for j in range(B)]
        )
        for s in nonempty
    }
    groups = {"rhs": np.column_stack([_set_mi(ld, users, s, users.difference(s)) / F for s in nonempty])}
    pairs, strict, sym_conds = _audit_tuples(K)
    viol = np.zeros(B)
    for m_set, l_set in pairs:
        plain = _set_mi(ld, users, m_set)
        viol += plain > _set_mi(ld, users, m_set, l_set) + ergodic._TOL * np.fmax(1.0, plain)
    groups["lemma3"] = viol[:, None]
    lemma4 = []
    for sub in strict:
        rest = tuple(u for u in range(K) if u not in sub)
        lemma4.append(_set_mi(ld, users, rest) / len(rest) - _set_mi(ld, users, sub, rest) / len(sub))
    groups["lemma4"] = np.column_stack(lemma4)
    for cond in sym_conds:
        groups["symmetry", sum(1 << u for u in cond)] = np.column_stack(
            [_set_mi(ld, users, (u,), cond) for u in range(K) if u not in cond]
        )
    return groups


class TestBlockRows:
    @pytest.mark.parametrize("K, m, blocks", [(3, 2, 40), (4, 1, 12)])
    @pytest.mark.parametrize("tol", [None, -1.0])
    def test_mask_groups_match_set_mi_loop(self, monkeypatch, K, m, blocks, tol):
        # the bitmask table reads every audit group bit for bit as a loop of
        # reference `_set_mi` calls over a dict of user sets does, on one chunk; a
        # negative tolerance flags some pairs, so the Lemma 3 counts are
        # exercised too
        if tol is not None:
            monkeypatch.setattr(ergodic, "_TOL", tol)
        dims = derive_dims(K, m)
        loads = np.subtract([1e4, 1e10], 1.0)
        chunk = ergodic._align_blocks(dims, SEED, list(range(blocks)))
        groups = ergodic._block_rows(chunk, loads, ergodic._audit_sets(K))
        want = _set_mi_groups(chunk, loads)
        if tol is not None:
            assert 0 < want["lemma3"].max() < len(ergodic._audit_sets(K)[0][0])
        for name, value in want.items():
            got = np.asarray(groups[name], dtype=float)
            assert got.shape == value.shape and got.tobytes() == value.tobytes(), name


class TestConfidentialReference:
    @pytest.mark.parametrize("K, m", [(3, 2), (4, 1)])
    def test_rate_terms_match_set_mi_reference(self, K, m):
        # every MI the confidential rule reports equals the reference rule
        # over a dict of user sets, bit for bit, on `spectra_table`'s spectra
        net = sample_network(derive_dims(K, m), SEED)
        aset = build_beamformers(net, build_generators(net))
        loads = np.subtract(DEFAULT_RHO_GRID, 1.0)
        spectra = spectra_table(net, aset)
        rates = confidential_rates(net, spectra, loads)
        users = frozenset(range(K))

        def same(got, want):
            return np.asarray(got).tobytes() == np.asarray(want).tobytes()

        for i, (sets, inflated) in enumerate(spectra):
            ld = {
                frozenset(u for u in range(K) if mask >> u & 1): _log2det(s2, loads)
                for mask, s2 in sets.items()
            }
            others = users.difference({i})
            assert same(rates.own_bits[i], _set_mi(ld, users, {i}))
            for mask, bits in zip(rates.subset_masks[i].tolist(), rates.subset_bits[i]):
                sub = frozenset(_members(mask))
                assert i not in sub
                assert same(bits, _set_mi(ld, users, sub, others.difference(sub))), (i, sub)
            assert len(rates.subset_masks[i]) == 2 ** (K - 1) - 1
            assert same(rates.cross_bits[i], _set_mi(ld, users, others))
            leak = _set_mi({**ld, users: _log2det(inflated, loads)}, users, others)
            assert same(rates.leak_upper_bits[i], leak)


class TestLayout:
    @pytest.mark.parametrize("K, m", [(3, 1), (4, 1)])
    def test_named_groups_tile_the_table(self, K, m):
        dims = derive_dims(K, m)
        loads = np.subtract([1e4, 1e8], 1.0)
        pass_ = ergodic_pass(dims, loads, 2, SEED)
        spans = list(pass_.layout.values())
        # in order, with no gap and no overlap, over every column
        assert spans[0].start == 0 and spans[-1].stop == pass_.estimate.mean.size
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
        assert all(span.start < span.stop and span.step is None for span in spans)
        # each group the row is made of has one name, and its name's columns
        audit_sets = ergodic._audit_sets(K)
        groups = ergodic._block_rows(block_network(dims, SEED, 0), loads, audit_sets)
        assert list(groups) == list(pass_.layout)
        assert [g.shape for g in groups.values()] == [(1, s.stop - s.start) for s in spans]
        _, strict, sym_conds = audit_sets
        sets = 2**K - 1
        assert {name: s.stop - s.start for name, s in pass_.layout.items()} == {
            "own": 2, "eav": 2, "eav_up": 2, "R": 2, "Rx": 2, "rhs": sets, "slack": sets,
            "lemma3": 1, "lemma4": len(strict),
            **{("symmetry", cond): K - len(_members(cond)) for cond in sym_conds.tolist()},
        }
        for name, span in pass_.layout.items():
            assert pass_.stats(name).mean.tolist() == pass_.estimate.mean[span].tolist()


class TestAugmentation:
    # the known-CSI point folds the eavesdropper in as the last receiver in its draw
    @staticmethod
    def known_csi_draw(monkeypatch, seed, K=2, m=2):
        """The draw the known-CSI point at K real users runs, taken from the point itself."""
        draws, align = [], cli.align_first_valid

        def recorded(draw, *args):
            draws.append(draw)
            return align(draw, *args)

        monkeypatch.setattr(cli, "align_first_valid", recorded)
        cfg = ExperimentConfig(scenario="external-known-csi", K=K, m=m, seed=seed).validate()
        cli._run_confidential_point(cfg, K, m)
        return draws[0]

    def test_two_real_users_become_three(self, monkeypatch):
        aug_dims = derive_dims(3, 2)
        draw = self.known_csi_draw(monkeypatch, 4)
        for attempt in (0, 1):  # a redraw reads the attempt's block of both streams
            gains = draw(attempt, [0])
            net = sample_network(aug_dims, 4, block_index=attempt)
            eaves = sample_eavesdropper_block(aug_dims, 4, attempt)
            assert gains.shape == (1, 3, 3, 5)
            # last receiver now listens through the eavesdropper row
            for k in range(2):
                assert np.array_equal(gains[0, 2, k], eaves[k])
            # the virtual transmitter's links and the real receivers' stay freshly sampled
            assert np.array_equal(gains[0, :, 2], net.gains[:, 2])
            assert np.array_equal(gains[0, :2], net.gains[:2])
            assert not np.array_equal(gains[0, 2, 0], net.gains[2, 0])

    def test_augmented_network_aligns(self, monkeypatch):
        aug_dims = derive_dims(3, 2)
        for seed in (4, 6, 8):
            gains = self.known_csi_draw(monkeypatch, seed)(0, [0])
            aug = NetworkRealization(aug_dims, gains[0])
            aset = build_beamformers(aug, build_generators(aug))
            assert aset.beams[0].shape == (5, 3)

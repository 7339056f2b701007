import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iasec.alignment import build_beamformers, build_generators, stream_power
from iasec.gaussmi import DEFAULT_RHO_GRID, estimate_slope, mi_from_gains, receiver_gains
from iasec.model import PowerConfig, derive_dims, sample_network
from iasec.secrecy import (
    MAX_ENUM_USERS,
    codebook_plan,
    confidential_rates,
    decodability_check,
    epsilon_star,
    equivocation_deficit,
    randomization_region_check,
    symmetric_proportions,
)

SEED = 16  # well-conditioned draw; heavy-tailed channel ratios can push the
# prelimit slopes far from their asymptotes on a minority of realizations


def instance(m, seed=SEED, K=3):
    net = sample_network(derive_dims(K, m), seed)
    aset = build_beamformers(net, build_generators(net))
    return net, aset


def rate_curve(net, aset, grid=DEFAULT_RHO_GRID):
    out = {}
    for rho in grid:
        p = stream_power(aset, PowerConfig(rho=rho))
        out[rho] = confidential_rates(net, aset, p)
    return out


class TestConfidentialRates:
    def test_m2_slope_near_one_tenth(self):
        net, aset = instance(2)
        curve = rate_curve(net, aset)
        fit = estimate_slope(lambda r: curve[r].R, DEFAULT_RHO_GRID)
        assert abs(fit.slope - 0.1) / 0.1 < 0.10

    def test_m1_gives_zero_slope(self):
        net, aset = instance(1, seed=4)
        curve = rate_curve(net, aset)
        fit = estimate_slope(lambda r: curve[r].R, DEFAULT_RHO_GRID)
        assert abs(fit.slope) < 0.02

    def test_clamp_engages_below_positivity_threshold(self):
        # at m=1 the formula's slope is zero, so some draws sit negative and
        # must clamp with the flag set
        flagged = False
        for seed in range(12):
            net, aset = instance(1, seed=seed)
            p = stream_power(aset, PowerConfig(rho=1e4))
            rates = confidential_rates(net, aset, p)
            assert rates.R >= 0.0
            if rates.clamped:
                assert rates.R_raw < 0
                flagged = True
        assert flagged

    @pytest.mark.parametrize("m", [1, 2])
    def test_raw_assignment_always_inside_own_rate(self, m):
        # the rate rule guarantees R_raw + Rx_raw <= min_i I(X_i;Y_i)/F
        # algebraically, clamped or not
        for seed in range(100):
            net, aset = instance(m, seed=seed)
            p = stream_power(aset, PowerConfig(rho=1e6))
            rates = confidential_rates(net, aset, p)
            bound = min(rates.own_bits) / net.dims.F
            assert rates.R_raw + rates.Rx_raw <= bound + 1e-9 * max(1.0, bound)

    def test_subsets_never_condition_on_the_receiver(self):
        net, aset = instance(2)
        rates = confidential_rates(net, aset, stream_power(aset, PowerConfig(rho=1e8)))
        assert len(rates.subset_bits) == 3 * 3
        assert all(i not in sub for i, sub in rates.subset_bits)

    def test_rx_positive_and_binding_subset_recorded(self):
        net, aset = instance(2)
        p = stream_power(aset, PowerConfig(rho=1e8))
        rates = confidential_rates(net, aset, p)
        assert rates.Rx > 0
        assert (rates.binding_receiver, rates.binding_subset) in rates.subset_bits

    def test_enumeration_capped(self):
        class FakeDims:
            K = MAX_ENUM_USERS + 1
            F = 100

        class FakeNet:
            dims = FakeDims()

        with pytest.raises(ValueError):
            confidential_rates(FakeNet(), None, None)


class TestDecodability:
    def test_assigned_rates_pass_on_unclamped_instances(self):
        checked = 0
        for seed in range(100):
            net, aset = instance(2, seed=seed)
            p = stream_power(aset, PowerConfig(rho=1e8))
            rates = confidential_rates(net, aset, p)
            if rates.clamped:
                continue
            assert decodability_check(rates).passed
            assert randomization_region_check(rates).passed
            checked += 1
        assert checked >= 90

    def test_inflated_rates_fail(self):
        net, aset = instance(2)
        p = stream_power(aset, PowerConfig(rho=1e8))
        rates = confidential_rates(net, aset, p)
        rates.R = rates.R * 10
        rates.Rx = rates.Rx * 10
        report = decodability_check(rates)
        assert not report.passed and report.worst_slack < 0

    def test_zero_rates_full_slack(self):
        net, aset = instance(2)
        p = stream_power(aset, PowerConfig(rho=1e8))
        rates = confidential_rates(net, aset, p)
        rates.R, rates.Rx = 0.0, 0.0
        report = decodability_check(rates)
        assert report.passed
        assert np.allclose(report.slack, np.array(rates.own_bits) / net.dims.F)


class TestRandomizationRegion:
    def test_assigned_rx_passes_with_tight_binding(self):
        net, aset = instance(3)
        p = stream_power(aset, PowerConfig(rho=1e8))
        rates = confidential_rates(net, aset, p)
        report = randomization_region_check(rates)
        assert report.passed
        assert abs(report.binding[2]) < 1e-9

    def test_extra_bit_fails(self):
        net, aset = instance(3)
        p = stream_power(aset, PowerConfig(rho=1e8))
        rates = confidential_rates(net, aset, p)
        rates.Rx = rates.Rx + 1.0
        report = randomization_region_check(rates)
        assert not report.passed


class TestEquivocationDeficit:
    def test_m3_trend_near_half(self):
        net, aset = instance(3)
        report = equivocation_deficit(rate_curve(net, aset))
        assert abs(report.delta_hat - 0.5) / 0.5 < 0.15

    def test_decreasing_in_m(self):
        values = []
        for m in (2, 3, 4, 5):
            net, aset = instance(m)
            values.append(equivocation_deficit(rate_curve(net, aset)).delta_hat)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_pointwise_nonincreasing_beyond_1e6(self):
        net, aset = instance(3)
        report = equivocation_deficit(rate_curve(net, aset))
        usable = [p.delta_hat for p in report.points if p.rho >= 1e6 and not p.degenerate]
        assert all(b <= a + 1e-9 for a, b in zip(usable, usable[1:]))

    def test_numerator_component_identity(self):
        # numerator_i = upper_i - (K-1) F Rx_raw by definition, with upper_i
        # the inflated-power leakage bound evaluated from scratch here
        net, aset = instance(3)
        curve = rate_curve(net, aset)
        point = equivocation_deficit(curve).points[-1]
        p = stream_power(aset, PowerConfig(rho=point.rho))
        rates = curve[point.rho]
        for i, num in enumerate(point.numerators):
            others = [k for k in range(3) if k != i]
            inflated = np.array(p, dtype=float)
            inflated[others] *= np.array(net.dims.streams)[others]
            upper = mi_from_gains(receiver_gains(net, aset, i), inflated, others).bits
            expect = upper - 2 * net.dims.F * rates.Rx_raw
            assert abs(num - expect) < 1e-9 * max(1.0, abs(expect))


class TestEpsilonStar:
    def test_perfect_secrecy_zero_eps(self):
        out = epsilon_star(symmetric_proportions(3), eps=0.0, d=1.0)
        assert out.epsilon_star == 0.0

    def test_four_user_symmetric(self):
        out = epsilon_star(symmetric_proportions(4), eps=0.1, d=1.0)
        assert abs(out.epsilon_star - 0.1 / 3) < 1e-12
        assert len(out.minimizing_subset) == 1

    def test_relaxed_level(self):
        out = epsilon_star(symmetric_proportions(3), eps=0.1, d=0.0)
        assert abs(out.epsilon_star - 0.55) < 1e-12

    def test_rejects_nonpositive_proportions(self):
        with pytest.raises(ValueError):
            epsilon_star([0.5, 0.0], eps=0.1, d=1.0)

    @given(
        d1=st.floats(0, 1),
        d2=st.floats(0, 1),
        eps=st.floats(0.01, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_d(self, d1, d2, eps):
        lo, hi = sorted((d1, d2))
        a = epsilon_star(symmetric_proportions(3), eps=eps, d=lo).epsilon_star
        b = epsilon_star(symmetric_proportions(3), eps=eps, d=hi).epsilon_star
        assert b <= a + 1e-12

    @given(
        e1=st.floats(0.0, 1.0),
        e2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_eps(self, e1, e2):
        lo, hi = sorted((e1, e2))
        a = epsilon_star(symmetric_proportions(4), eps=lo, d=1.0).epsilon_star
        b = epsilon_star(symmetric_proportions(4), eps=hi, d=1.0).epsilon_star
        assert b >= a - 1e-12


class TestCodebookPlan:
    class Rates:
        def __init__(self, R, Rx):
            self.R, self.Rx = R, Rx

    def test_bit_counts(self):
        plan = codebook_plan(self.Rates(0.1, 0.0), n=100, F=3)
        assert plan.log2_bins == pytest.approx(30.0)
        assert plan.log2_codewords_per_bin == 0.0

    def test_zero_rx_single_codeword_per_bin(self):
        plan = codebook_plan(self.Rates(0.5, 0.0), n=10, F=5)
        assert plan.log2_codewords_per_bin == 0.0

    @given(
        R=st.floats(0, 4),
        Rx=st.floats(0, 4),
        n=st.integers(1, 1000),
        F=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_additivity(self, R, Rx, n, F):
        plan = codebook_plan(self.Rates(R, Rx), n=n, F=F)
        assert plan.log2_total == plan.log2_bins + plan.log2_codewords_per_bin

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            codebook_plan(self.Rates(0.1, 0.1), n=0, F=3)

from dataclasses import fields

import numpy as np
import pytest

from iasec.alignment import build_beamformers, build_generators, stream_power
from iasec.gaussmi import (
    DEFAULT_RHO_GRID,
    estimate_slope,
    mi_from_gains,
    receiver_gains,
    spectra_table,
)
from iasec.model import PowerConfig, derive_dims, sample_network
from iasec.secrecy import (
    MAX_ENUM_USERS,
    confidential_rates,
    decodability_check,
    equivocation_deficit,
    randomization_region_check,
)

SEED = 16  # well-conditioned draw; heavy-tailed channel ratios can push the
# prelimit slopes far from their asymptotes on a minority of realizations


def instance(m, seed=SEED, K=3):
    net = sample_network(derive_dims(K, m), seed)
    aset = build_beamformers(net, build_generators(net))
    return net, aset


def loads(*rhos):
    return np.array([PowerConfig(rho=rho).effective for rho in rhos])


def rates_at(net, aset, rho):
    """The rate curve on the one-point grid (rho,)."""
    return confidential_rates(net, spectra_table(net, aset), loads(rho))


def rate_curve(net, aset, grid=DEFAULT_RHO_GRID):
    return confidential_rates(net, spectra_table(net, aset), loads(*grid))


class TestConfidentialRates:
    def test_m2_slope_near_one_tenth(self):
        net, aset = instance(2)
        fit = estimate_slope(rate_curve(net, aset).R, DEFAULT_RHO_GRID)
        assert abs(fit.slope - 0.1) / 0.1 < 0.10

    def test_m1_gives_zero_slope(self):
        net, aset = instance(1, seed=4)
        fit = estimate_slope(rate_curve(net, aset).R, DEFAULT_RHO_GRID)
        assert abs(fit.slope) < 0.02

    def test_clamp_engages_below_positivity_threshold(self):
        # at m=1 the formula's slope is zero, so some draws sit negative and
        # must clamp with the flag set
        flagged = False
        for seed in range(12):
            net, aset = instance(1, seed=seed)
            rates = rates_at(net, aset, 1e4)
            assert rates.R[0] >= 0.0
            if rates.clamped[0]:
                assert rates.R_raw[0] < 0
                flagged = True
        assert flagged

    @pytest.mark.parametrize("m", [1, 2])
    def test_raw_assignment_always_inside_own_rate(self, m):
        # the rate rule guarantees R_raw + Rx_raw <= min_i I(X_i;Y_i)/F
        # algebraically, clamped or not
        for seed in range(100):
            net, aset = instance(m, seed=seed)
            rates = rates_at(net, aset, 1e6)
            bound = rates.own_bits.min(axis=0) / net.dims.F
            assert (rates.R_raw + rates.Rx_raw <= bound + 1e-9 * np.maximum(1.0, bound)).all()

    def test_subsets_never_condition_on_the_receiver(self):
        net, aset = instance(2)
        rates = rates_at(net, aset, 1e8)
        assert rates.subset_bits.shape == (3, 3, 1)
        assert rates.subset_masks.tolist() == [[0b010, 0b100, 0b110], [0b001, 0b100, 0b101],
                                               [0b001, 0b010, 0b011]]
        # each receiver's last subset is the set of all the others, its cross term
        assert (rates.subset_bits[:, -1] == rates.cross_bits).all()

    def test_rx_positive_and_binding_subset_recorded(self):
        net, aset = instance(2)
        rates = rates_at(net, aset, 1e8)
        assert rates.Rx[0] > 0
        (receiver, mask), = rates.binding.T.tolist()
        column = rates.subset_masks[receiver].tolist().index(mask)
        size = bin(mask).count("1")
        assert rates.Rx_raw[0] == rates.subset_bits[receiver, column, 0] / (size * net.dims.F)

    @pytest.mark.parametrize("K, m", [(3, 2), (4, 1)])
    def test_grid_call_equals_one_load_calls(self, K, m):
        # the whole grid in one call gives, field by field and bit for bit,
        # what a call at each grid load alone gives
        net, aset = instance(m, K=K)
        spectra = spectra_table(net, aset)
        grid = loads(*DEFAULT_RHO_GRID)
        curve = confidential_rates(net, spectra, grid)
        for g in range(len(grid)):
            one = confidential_rates(net, spectra, grid[g : g + 1])
            assert one.F == curve.F
            assert np.array_equal(one.subset_masks, curve.subset_masks)
            for field in fields(curve):
                if field.name not in ("F", "subset_masks"):
                    have, want = getattr(one, field.name)[..., 0], getattr(curve, field.name)[..., g]
                    assert (have == want).all(), (field.name, g)

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
            rates = rates_at(net, aset, 1e8)
            if rates.clamped[0]:
                continue
            assert decodability_check(rates)[1].all()
            assert randomization_region_check(rates)[1].all()
            checked += 1
        assert checked >= 90

    def test_inflated_rates_fail(self):
        net, aset = instance(2)
        rates = rates_at(net, aset, 1e8)
        rates.R = rates.R * 10
        rates.Rx = rates.Rx * 10
        slack, passed = decodability_check(rates)
        assert not passed.any() and slack.min() < 0

    def test_zero_rates_full_slack(self):
        net, aset = instance(2)
        rates = rates_at(net, aset, 1e8)
        rates.R, rates.Rx = np.zeros(1), np.zeros(1)
        slack, passed = decodability_check(rates)
        assert passed.all()
        assert np.allclose(slack, rates.own_bits / net.dims.F)


class TestRandomizationRegion:
    def test_assigned_rx_passes_with_tight_binding(self):
        net, aset = instance(3)
        rates = rates_at(net, aset, 1e8)
        slack, passed = randomization_region_check(rates)
        assert passed.all()
        assert abs(slack.min()) < 1e-9

    @pytest.mark.parametrize("K, m", [(3, 3), (4, 1)])
    def test_slack_equals_a_loop_over_receivers_and_subsets(self, K, m):
        net, aset = instance(m, K=K)
        rates = rate_curve(net, aset)
        slack, passed = randomization_region_check(rates)
        _, S, G = rates.subset_bits.shape
        assert slack.shape == (K, S, G) and passed.shape == (G,)
        for i in range(K):
            for j, mask in enumerate(rates.subset_masks[i].tolist()):
                want = rates.subset_bits[i, j] / rates.F - bin(mask).count("1") * rates.Rx
                assert slack[i, j].tobytes() == want.tobytes(), (i, mask)

    def test_extra_bit_fails(self):
        net, aset = instance(3)
        rates = rates_at(net, aset, 1e8)
        rates.Rx = rates.Rx + 1.0
        _, passed = randomization_region_check(rates)
        assert not passed.any()


class TestEquivocationDeficit:
    def test_m3_trend_near_half(self):
        net, aset = instance(3)
        report = equivocation_deficit(rate_curve(net, aset), DEFAULT_RHO_GRID)
        assert abs(report.delta_hat - 0.5) / 0.5 < 0.15

    def test_decreasing_in_m(self):
        values = []
        for m in (2, 3, 4, 5):
            net, aset = instance(m)
            values.append(equivocation_deficit(rate_curve(net, aset), DEFAULT_RHO_GRID).delta_hat)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_pointwise_nonincreasing_beyond_1e6(self):
        net, aset = instance(3)
        report = equivocation_deficit(rate_curve(net, aset), DEFAULT_RHO_GRID)
        pointwise = report.pointwise[np.array(DEFAULT_RHO_GRID) >= 1e6]
        usable = pointwise[~np.isnan(pointwise)].tolist()
        assert all(b <= a + 1e-9 for a, b in zip(usable, usable[1:]))

    def test_numerator_component_identity(self):
        # numerator_i = upper_i - (K-1) F Rx_raw by definition, with upper_i
        # the inflated-power leakage bound evaluated from scratch here; the
        # pointwise deficit is the worst numerator over (K-1) F R_raw
        net, aset = instance(3)
        rates = rate_curve(net, aset)
        top = equivocation_deficit(rates, DEFAULT_RHO_GRID).pointwise[-1]
        p = stream_power(aset, PowerConfig(rho=DEFAULT_RHO_GRID[-1]))
        expects = []
        for i, upper_bits in enumerate(rates.leak_upper_bits[:, -1]):
            others = [k for k in range(3) if k != i]
            inflated = np.array(p, dtype=float)
            inflated[others] *= np.array(net.dims.streams)[others]
            upper = mi_from_gains(receiver_gains(net, aset, i), inflated, others).bits
            expect = upper - 2 * net.dims.F * rates.Rx_raw[-1]
            num = upper_bits - 2 * net.dims.F * rates.Rx_raw[-1]
            assert abs(num - expect) < 1e-9 * max(1.0, abs(expect))
            expects.append(expect)
        want = max(expects) / (2 * net.dims.F * rates.R_raw[-1])
        assert abs(top - want) < 1e-9 * max(1.0, abs(want))

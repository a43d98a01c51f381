import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ammlab import ammcore as ac
from ammlab.errors import DomainError

CFG = ac.PoolConfig()  # fee 5 bps, gas $2, TVL 500k, ratio 0.10, width 20 bps


def make_pos(center=100.0, width=0.002, capital=10_000.0):
    return ac.Position(center=center, width=width, capital=capital)


class TestInRange:
    def test_upper_boundary_inclusive(self):
        pos = make_pos()
        assert ac.in_range(pos, 100.0 * 1.002)

    def test_just_above_upper(self):
        assert not ac.in_range(make_pos(), 100.21)

    def test_lower_boundary_inclusive(self):
        assert ac.in_range(make_pos(), 100.0 * 0.998)
        assert not ac.in_range(make_pos(), 99.79)


class TestConcentration:
    def test_twenty_bps(self):
        assert ac.concentration(0.002) == pytest.approx(22.36, abs=0.1)

    def test_simple_values(self):
        assert ac.concentration(0.01) == pytest.approx(10.0)
        assert ac.concentration(0.25) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ac.concentration(1.0)
        with pytest.raises(DomainError):
            ac.concentration(0.0)


class TestFeeStep:
    def test_out_of_range_earns_zero(self):
        pos = make_pos()
        assert ac.fee_step(pos, 105.0, 1e6, CFG) == 0.0
        assert pos.accrued_fees == 0.0
        assert (pos.active_seconds, pos.total_seconds) == (0, 1)

    def test_zero_volume(self):
        pos = make_pos()
        assert ac.fee_step(pos, 100.0, 0.0, CFG) == 0.0
        assert (pos.active_seconds, pos.total_seconds) == (1, 1)

    def test_reference_arithmetic(self):
        # 0.10 * 100000 * 0.0005 * (10000 * 22.36...) / 500000
        pos = make_pos()
        fee = ac.fee_step(pos, 100.0, 100_000.0, CFG)
        assert fee == pytest.approx(2.236, abs=5e-4)
        assert pos.accrued_fees == fee

    def test_monotone_in_volume_and_concentration(self):
        fees_v = [ac.fee_step(make_pos(), 100.0, v, CFG) for v in (0.0, 1e4, 1e5, 1e6)]
        assert all(b >= a for a, b in zip(fees_v, fees_v[1:]))
        fees_w = [ac.fee_step(make_pos(width=w), 100.0, 1e5, CFG) for w in (0.01, 0.005, 0.002)]
        assert all(b > a for a, b in zip(fees_w, fees_w[1:]))

    def test_positive_fee_implies_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pos = make_pos(center=float(rng.uniform(50, 150)))
            s = float(rng.uniform(50, 150))
            fee = ac.fee_step(pos, s, 1e5, CFG)
            if fee > 0:
                assert ac.in_range(pos, s)

    def test_scale_consistency(self):
        # fee depends on capital only through K / pool_tvl ...
        big_cfg = ac.PoolConfig(pool_tvl=CFG.pool_tvl * 2)
        pos = make_pos(capital=10_000.0)
        joint = make_pos(capital=20_000.0)
        fee = ac.fee_step(pos, 100.0, 1e5, CFG)
        assert ac.fee_step(joint, 100.0, 1e5, big_cfg) == pytest.approx(fee, rel=1e-12)
        # ... and is linear in capital, so ROI is invariant to K alone
        double_k = make_pos(capital=20_000.0)
        ac.fee_step(double_k, 100.0, 1e5, CFG)
        assert ac.net_roi(double_k) == pytest.approx(ac.net_roi(pos), rel=1e-12)


class TestRebalanceCost:
    def test_reference_value_exact(self):
        assert ac.rebalance_cost(CFG) == 4.50

    def test_higher_gas_level(self):
        assert ac.rebalance_cost(ac.PoolConfig(gas_cost=10.0)) == 12.50

    def test_swap_fee_only_when_gas_free(self):
        assert ac.rebalance_cost(ac.PoolConfig(gas_cost=0.0)) == pytest.approx(2.5)


class TestStep:
    def test_hold_accrues_fee_without_gas(self):
        pos, ref = make_pos(), make_pos()
        fee, gas = ac.step(pos, None, 100.1, 5_000.0, CFG)
        assert (fee, gas) == (ac.fee_step(ref, 100.1, 5_000.0, CFG), 0.0)
        assert pos == ref

    def test_recenter_then_accrue_at_new_center(self):
        pos = make_pos()
        fee, gas = ac.step(pos, 101.0, 101.0, 5_000.0, CFG)
        assert pos.center == 101.0 and pos.rebalance_count == 1
        assert gas == pos.accrued_gas == ac.rebalance_cost(CFG)
        assert fee > 0.0 and pos.active_seconds == 1

    def test_fee_bar_may_leave_new_band(self):
        pos = make_pos()
        fee, gas = ac.step(pos, 101.0, 105.0, 5_000.0, CFG)
        assert fee == 0.0 and gas > 0.0
        assert (pos.active_seconds, pos.total_seconds) == (0, 1)


class TestHold:
    """hold accrues a stretch of seconds as a fee_step per second would."""

    @settings(max_examples=200, deadline=None)
    @given(
        prices=hst.lists(hst.floats(99.5, 100.5), max_size=60),
        volumes=hst.lists(hst.floats(0.0, 1e6), min_size=60, max_size=60),
        accrued=hst.floats(0.0, 1e4),
        width=hst.sampled_from([0.0005, 0.002, 0.01]),
    )
    def test_matches_fee_step_per_second(self, prices, volumes, accrued, width):
        pos, ref = make_pos(width=width), make_pos(width=width)
        pos.accrued_fees = ref.accrued_fees = accrued
        prices, volumes = np.array(prices), np.array(volumes[: len(prices)])
        fee, inside = ac.hold(pos, prices, volumes, CFG)
        ref_fee = [ac.fee_step(ref, float(s), float(v), CFG) for s, v in zip(prices, volumes)]
        assert pos == ref  # accrued_fees summed in the same order
        assert np.array_equal(fee.view(np.int64), np.array(ref_fee, dtype=np.float64).view(np.int64))
        assert inside.tolist() == [ac.in_range(ref, float(s)) for s in prices]

    def test_negative_volume_raises_before_accruing(self):
        pos = make_pos()
        with pytest.raises(ValueError, match="cex_volume must be >= 0"):
            ac.hold(pos, np.array([100.0, 100.0]), np.array([1.0, -1.0]), CFG)
        assert pos == make_pos()

    @settings(max_examples=200, deadline=None)
    @given(
        prices=hst.lists(hst.floats(99.5, 100.5), max_size=60),
        volumes=hst.lists(hst.floats(0.0, 1e6), min_size=60, max_size=60),
        cuts=hst.lists(hst.integers(0, 60), max_size=6),
        accrued=hst.floats(0.0, 1e4),
        width=hst.sampled_from([0.0005, 0.002, 0.01]),
    )
    def test_chunks_match_one_call(self, prices, volumes, cuts, accrued, width):
        """backtest.run accrues a held stretch window by window."""
        pos, ref = make_pos(width=width), make_pos(width=width)
        pos.accrued_fees = ref.accrued_fees = accrued
        prices, volumes = np.array(prices), np.array(volumes[: len(prices)])
        fee, inside = ac.hold(ref, prices, volumes, CFG)
        edges = [0, *sorted(min(c, len(prices)) for c in cuts), len(prices)]
        chunks = [ac.hold(pos, prices[a:b], volumes[a:b], CFG) for a, b in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate([f for f, _ in chunks]).view(np.int64), fee.view(np.int64))
        assert np.array_equal(np.concatenate([i for _, i in chunks]).astype(np.int64), inside.astype(np.int64))
        assert pos.accrued_fees == ref.accrued_fees
        assert (pos.active_seconds, pos.total_seconds) == (ref.active_seconds, ref.total_seconds)


class TestRecenter:
    def test_moves_center_and_charges(self):
        pos = make_pos()
        ac.recenter(pos, 98.0, CFG)
        assert pos.center == 98.0
        assert pos.rebalance_count == 1
        assert pos.accrued_gas == pytest.approx(4.50)
        assert ac.in_range(pos, 98.0)

    def test_recentering_in_place_still_charged(self):
        pos = make_pos()
        ac.recenter(pos, pos.center, CFG)
        assert pos.center == 100.0
        assert pos.accrued_gas == pytest.approx(4.50)

    def test_costs_add_up(self):
        pos = make_pos()
        ac.recenter(pos, 98.0, CFG)
        ac.recenter(pos, 99.0, CFG)
        assert pos.rebalance_count == 2
        assert pos.accrued_gas == pytest.approx(9.00)

    def test_recenter_only_accounting_identity(self):
        pos = make_pos()
        for s in (98.0, 99.0, 101.0, 100.0):
            ac.recenter(pos, s, CFG)
        assert pos.accrued_gas == pytest.approx(pos.rebalance_count * ac.rebalance_cost(CFG))

    def test_open_position_convention(self):
        # initial placement: counted as the first rebalance, gas only
        pos = ac.open_position(100.0, CFG)
        assert pos.rebalance_count == 1
        assert pos.accrued_gas == CFG.gas_cost
        ac.recenter(pos, 101.0, CFG)
        assert pos.accrued_gas == pytest.approx(CFG.gas_cost + 4.50)


class TestAccruedGas:
    @pytest.mark.parametrize("gas", [0.0, 0.1, 2.0, 7.3, 1e4])
    def test_replays_position_bit_for_bit(self, gas):
        cfg = ac.PoolConfig(gas_cost=gas, capital=12_345.0)
        pos = ac.open_position(100.0, cfg)
        assert pos.capital == 12_345.0
        assert ac.accrued_gas(cfg, 1) == pos.accrued_gas
        for k, s in enumerate(np.linspace(99.0, 101.0, 200)):
            ac.recenter(pos, float(s), cfg)
            assert ac.accrued_gas(cfg, pos.rebalance_count) == pos.accrued_gas, k

    def test_needs_the_opening(self):
        with pytest.raises(ValueError):
            ac.accrued_gas(CFG, 0)


class TestNetRoi:
    def test_headline_value(self):
        pos = make_pos()
        pos.accrued_fees = 85.08
        pos.accrued_gas = 13.50
        assert ac.net_roi(pos) == pytest.approx(0.007158, abs=1e-6)

    def test_zero(self):
        assert ac.net_roi(make_pos()) == 0.0

    def test_passive_value(self):
        pos = make_pos()
        pos.accrued_fees = 34.87
        pos.accrued_gas = 4.50
        assert ac.net_roi(pos) == pytest.approx(0.003037, abs=1e-6)


class TestPoolConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ac.PoolConfig(fee_tier=0.0)
        with pytest.raises(ValueError):
            ac.PoolConfig(width=1.0)
        with pytest.raises(ValueError):
            ac.PoolConfig(dex_cex_ratio=0.0)
        with pytest.raises(ValueError):
            ac.PoolConfig(gas_cost=-1.0)
        with pytest.raises(ValueError):
            ac.PoolConfig(capital=0.0)

"""Unit tests for repro.pricing (instances, cost functions, plans)."""

from __future__ import annotations

import pytest

from repro.pricing import (
    EC2_CATALOG,
    FreeBandwidthCost,
    InstanceType,
    LinearBandwidthCost,
    LinearVMCost,
    PricingPlan,
    TieredBandwidthCost,
    get_instance,
    mbps_to_bytes_per_hour,
    paper_plan,
)
from repro.pricing.instances import iter_catalog


class TestInstances:
    def test_paper_vm_types_present(self):
        large = get_instance("c3.large")
        assert large.hourly_price_usd == 0.15
        assert large.bandwidth_mbps == 64.0
        xlarge = get_instance("c3.xlarge")
        assert xlarge.hourly_price_usd == 0.30
        assert xlarge.bandwidth_mbps == 128.0

    def test_unknown_instance_raises_with_known_list(self):
        with pytest.raises(KeyError, match="c3.large"):
            get_instance("m1.small")

    def test_mbps_conversion(self):
        # 64 mbps = 8 MB/s = 28.8 GB/hour.
        assert mbps_to_bytes_per_hour(64) == pytest.approx(2.88e10)

    def test_capacity_over_period(self):
        large = get_instance("c3.large")
        assert large.capacity_bytes(10.0) == pytest.approx(2.88e11)

    def test_price_over_period(self):
        assert get_instance("c3.large").price(240.0) == pytest.approx(36.0)

    def test_catalog_price_scales_with_size(self):
        prices = [it.hourly_price_usd for it in iter_catalog()]
        assert prices == sorted(prices)
        assert len(prices) == len(EC2_CATALOG) == 5

    def test_custom_instance(self):
        it = InstanceType("tiny", 0.01, 1.0)
        assert it.bandwidth_bytes_per_hour == pytest.approx(4.5e8)

    def test_invalid_instance_rejected(self):
        with pytest.raises(ValueError):
            InstanceType("bad", -1.0, 64.0)
        with pytest.raises(ValueError):
            InstanceType("bad", 0.1, 0.0)

    def test_invalid_periods(self):
        it = get_instance("c3.large")
        with pytest.raises(ValueError):
            it.capacity_bytes(0)
        with pytest.raises(ValueError):
            it.price(-1)


class TestCostFunctions:
    def test_linear_vm_cost(self):
        c1 = LinearVMCost(36.0)
        assert c1(0) == 0.0
        assert c1(5) == 180.0

    def test_linear_vm_cost_validation(self):
        with pytest.raises(ValueError):
            LinearVMCost(-1)
        with pytest.raises(ValueError):
            LinearVMCost(1.0)(-2)

    def test_linear_bandwidth_paper_rate(self):
        c2 = LinearBandwidthCost()  # $0.12/GB default
        assert c2(1e9) == pytest.approx(0.12)
        assert c2(0) == 0.0

    def test_linear_bandwidth_validation(self):
        with pytest.raises(ValueError):
            LinearBandwidthCost(-0.1)
        with pytest.raises(ValueError):
            LinearBandwidthCost()(-1)

    def test_free_bandwidth(self):
        assert FreeBandwidthCost()(1e15) == 0.0
        with pytest.raises(ValueError):
            FreeBandwidthCost()(-1)

    def test_tiered_matches_linear_in_first_tier(self):
        tiered = TieredBandwidthCost()
        assert tiered(5e12) == pytest.approx(LinearBandwidthCost(0.12)(5e12))

    def test_tiered_marginal_rate_drops(self):
        tiered = TieredBandwidthCost()
        # 20 TB: 10 TiB-ish at 0.12 then remainder at 0.09.
        got = tiered(20480 * 1e9)
        expected = 10240 * 0.12 + 10240 * 0.09
        assert got == pytest.approx(expected)

    def test_tiered_deep_volume(self):
        tiered = TieredBandwidthCost()
        got = tiered(200000 * 1e9)
        expected = 10240 * 0.12 + 30720 * 0.09 + 61440 * 0.07 + 97600 * 0.05
        assert got == pytest.approx(expected)

    def test_tiered_validation(self):
        with pytest.raises(ValueError):
            TieredBandwidthCost([])
        with pytest.raises(ValueError):
            TieredBandwidthCost([(10.0, 0.1), (5.0, 0.05)])
        with pytest.raises(ValueError):
            TieredBandwidthCost([(10.0, 0.1)])  # last bound not inf
        with pytest.raises(ValueError):
            TieredBandwidthCost([(float("inf"), -0.1)])

    def test_tiered_rejects_negative_volume(self):
        with pytest.raises(ValueError, match="non-negative"):
            TieredBandwidthCost()(-1.0)

    def test_tiered_monotone(self):
        tiered = TieredBandwidthCost()
        values = [tiered(x * 1e12) for x in range(0, 300, 25)]
        assert values == sorted(values)


class TestPricingPlan:
    def test_paper_plan_defaults(self):
        plan = paper_plan()
        assert plan.instance.name == "c3.large"
        assert plan.period_hours == 240.0
        # BC over ten days: 64 mbps * 240 h.
        assert plan.capacity_bytes == pytest.approx(6.912e12)
        assert plan.c1(1) == pytest.approx(36.0)
        assert plan.c2(1e9) == pytest.approx(0.12)

    def test_capacity_override(self):
        plan = PricingPlan(
            instance=get_instance("c3.large"),
            capacity_bytes_override=123.0,
        )
        assert plan.capacity_bytes == 123.0

    @pytest.mark.parametrize("capacity", [0.0, -5.0, float("nan")])
    def test_invalid_override(self, capacity):
        with pytest.raises(ValueError, match="capacity_bytes_override"):
            PricingPlan(
                instance=get_instance("c3.large"), capacity_bytes_override=capacity
            )

    @pytest.mark.parametrize("hours", [0.0, -1.0, float("nan")])
    def test_invalid_period(self, hours):
        with pytest.raises(ValueError, match="period_hours"):
            PricingPlan(instance=get_instance("c3.large"), period_hours=hours)

    def test_scaled_preserves_price_per_capacity(self):
        plan = paper_plan()
        scaled = plan.scaled(0.01)
        assert scaled.capacity_bytes == pytest.approx(plan.capacity_bytes * 0.01)
        assert scaled.c1(1) == pytest.approx(plan.c1(1) * 0.01)
        # Ratio invariant.
        assert scaled.c1(1) / scaled.capacity_bytes == pytest.approx(
            plan.c1(1) / plan.capacity_bytes
        )

    def test_scaled_composes(self):
        plan = paper_plan().scaled(0.1).scaled(0.5)
        assert plan.capacity_bytes == pytest.approx(6.912e12 * 0.05)
        assert plan.c1(2) == pytest.approx(36.0 * 0.05 * 2)

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            paper_plan().scaled(0)

    def test_describe_mentions_instance(self):
        assert "c3.large" in paper_plan().describe()

"""Unit tests for the declarative ExperimentSpec API."""

import json
import pickle

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.harness.runner import ExperimentSpec, latency_curve, spec_grid
from repro.stats.sweep import simulate_point
from repro.traffic.generator import PacketMix, SyntheticTraffic

SHORT = SimulationConfig(warmup_cycles=100, measure_cycles=400,
                         drain_cycles=300, deadlock_abort_cycles=500)


def small_spec(**overrides):
    kwargs = dict(design="spin_mesh", pattern="uniform", injection_rate=0.05,
                  mesh_side=4, tdd=32, sim=SHORT)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestConstruction:
    def test_alias_stored_canonically(self):
        assert small_spec().design == "mesh:minadaptive-spin-1vc"

    def test_unknown_design_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown design"):
            small_spec(design="mesh:bogus")

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="injection_rate"):
            small_spec(injection_rate=-0.1)

    def test_bad_mesh_side_rejected(self):
        with pytest.raises(ConfigurationError, match="mesh_side"):
            small_spec(mesh_side=1)

    def test_bad_dragonfly_rejected(self):
        with pytest.raises(ConfigurationError, match="dragonfly"):
            small_spec(dragonfly=(2, 4))
        with pytest.raises(ConfigurationError, match="dragonfly"):
            small_spec(dragonfly=(2, 0, 2))

    def test_bad_tdd_rejected(self):
        with pytest.raises(ConfigurationError, match="tdd"):
            small_spec(tdd=0)

    def test_fault_spec_validated_and_canonicalized(self):
        spec = small_spec(faults="sm_drop:p=0.5,link_down@100:r1-r2")
        # Canonical form is stable: re-normalizing is a fixed point.
        again = small_spec(faults=spec.faults)
        assert again.faults == spec.faults

    def test_bad_fault_spec_fails_at_construction(self):
        from repro.errors import FaultInjectionError

        with pytest.raises(FaultInjectionError):
            small_spec(faults="replicator_malfunction")

    def test_empty_faults_normalize_to_none(self):
        assert small_spec(faults="").faults is None


class TestBuildAndRun:
    def test_build_returns_trio(self):
        network, traffic, injector = small_spec().build()
        assert network.spin is not None
        assert isinstance(traffic, SyntheticTraffic)
        assert traffic.injection_rate == 0.05
        assert traffic.stop_at == SHORT.warmup_cycles + SHORT.measure_cycles
        assert injector is None  # fault-free -> no component at all

    def test_build_with_faults_returns_injector(self):
        spec = small_spec(faults="link_down@200:r1-r2", fault_seed=7)
        _, _, injector = spec.build()
        assert isinstance(injector, FaultInjector)

    def test_run_produces_point(self):
        network, point = small_spec().run()
        assert point.injection_rate == 0.05
        assert point.delivered > 0
        assert not point.wedged
        assert point.cycles == SHORT.total_cycles

    def test_run_is_build_then_simulate_point(self):
        _, via_run = small_spec().run()
        network, traffic, injector = small_spec().build()
        by_hand = simulate_point(network, traffic, SHORT,
                                 injection_rate=0.05, injector=injector)
        assert via_run == by_hand

    def test_tdd_override_reaches_network(self):
        network, _, _ = small_spec(tdd=17).build()
        assert network.spin.params.tdd == 17


class TestDerivation:
    def test_with_rate_and_seed(self):
        spec = small_spec()
        assert spec.with_rate(0.2).injection_rate == 0.2
        assert spec.with_seed(9).seed == 9
        # everything else untouched
        assert spec.with_rate(0.2).design == spec.design

    def test_curve_ascending(self):
        rates = [0.02, 0.05, 0.08]
        curve = small_spec().curve(rates)
        assert [s.injection_rate for s in curve] == rates

    @pytest.mark.parametrize("rates", [[], [0.6, 0.05], [0.05, 0.05],
                                       [0.02, 0.08, 0.05]])
    def test_curve_rejects_rates_that_are_not_strictly_ascending(self,
                                                                 rates):
        # The saturation cut takes the first point as zero-load latency.
        with pytest.raises(ConfigurationError, match="ascending"):
            small_spec().curve(rates)

    def test_latency_curve_rejects_an_empty_rate_list(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            latency_curve("spin_mesh", "uniform", [], SHORT, mesh_side=4)

    def test_forked_seed_is_stable_and_distinct(self):
        spec = small_spec()
        replicate = spec.forked("rep0")
        assert replicate.seed != spec.seed
        assert replicate.seed == spec.forked("rep0").seed
        assert replicate.seed != spec.forked("rep1").seed


class TestSerialization:
    def test_pickle_round_trip(self):
        spec = small_spec(faults="sm_drop:p=0.25", fault_seed=3,
                          mix=PacketMix.single(1))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_dict_round_trip_through_json(self):
        spec = small_spec(faults="sm_drop:p=0.25",
                          mix=PacketMix(lengths=(1, 5), weights=(0.3, 0.7)))
        text = json.dumps(spec.to_dict())
        assert ExperimentSpec.from_dict(json.loads(text)) == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = small_spec().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="unknown ExperimentSpec"):
            ExperimentSpec.from_dict(data)

    def test_sim_config_round_trip(self):
        sim = SimulationConfig(warmup_cycles=7, measure_cycles=11,
                               drain_cycles=13, seed=3,
                               deadlock_abort_cycles=17,
                               wedge_poll_interval=19)
        assert SimulationConfig.from_dict(sim.to_dict()) == sim

    def test_sim_config_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="SimulationConfig"):
            SimulationConfig.from_dict({"warmup_cycles": 1, "bogus": 2})


class TestSpecGrid:
    def test_rates_innermost_and_order_deterministic(self):
        grid = spec_grid(["spin_mesh"], ["uniform", "transpose"],
                         [0.02, 0.05], seeds=(1, 2), mesh_side=4, sim=SHORT)
        assert len(grid) == 8
        # rates innermost: each contiguous pair is one curve
        assert [s.injection_rate for s in grid[:2]] == [0.02, 0.05]
        assert grid[0].pattern == grid[1].pattern == "uniform"
        assert grid[0].seed == grid[1].seed == 1
        assert grid[2].seed == 2
        assert grid[4].pattern == "transpose"

    def test_common_kwargs_passed_through(self):
        grid = spec_grid(["spin_mesh"], ["uniform"], [0.05], mesh_side=4,
                         tdd=24, sim=SHORT)
        assert grid[0].tdd == 24

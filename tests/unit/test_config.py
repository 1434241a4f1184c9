"""Unit tests for configuration validation."""

import pytest

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.errors import ConfigurationError


class TestNetworkConfig:
    def test_defaults_are_valid(self):
        config = NetworkConfig()
        assert config.vcs_per_vnet == 1
        assert config.buffer_depth >= config.max_packet_length

    def test_total_vcs_multiplies_vnets(self):
        config = NetworkConfig(vcs_per_vnet=3, num_vnets=2)
        assert config.total_vcs == 6

    def test_rejects_zero_vcs(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(vcs_per_vnet=0)

    def test_rejects_zero_vnets(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(num_vnets=0)

    def test_rejects_shallow_buffers_for_vct(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(buffer_depth=2, max_packet_length=5)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(router_latency=0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(link_latency=0)

    def test_single_flit_packets_allow_depth_one(self):
        config = NetworkConfig(buffer_depth=1, max_packet_length=1)
        assert config.buffer_depth == 1

    def test_rejects_more_vcs_per_port_than_arbitration_keys(self):
        # Arbitration keys are inport * 64 + VC index: at 2 x 33 a 2x2-mesh
        # router would have 196 distinct keys for its 198 VCs.
        with pytest.raises(ConfigurationError, match="<= 64"):
            NetworkConfig(num_vnets=2, vcs_per_vnet=33)
        with pytest.raises(ConfigurationError, match="<= 64"):
            NetworkConfig(vcs_per_vnet=65)

    @pytest.mark.parametrize("vnets,vcs", [(1, 64), (2, 32), (4, 16)])
    def test_accepts_exactly_64_vcs_per_port(self, vnets, vcs):
        config = NetworkConfig(num_vnets=vnets, vcs_per_vnet=vcs)
        assert config.total_vcs == 64

    def test_largest_accepted_port_keeps_keys_distinct(self):
        from repro.network.plan import FabricPlan
        from repro.topology.mesh import MeshTopology

        plan = FabricPlan.of(MeshTopology(2, 2),
                             NetworkConfig(num_vnets=2, vcs_per_vnet=32))
        for rid in range(4):
            keys = plan.vc_arbkey[plan.r_lo[rid]:plan.r_lo[rid + 1]]
            assert len(set(keys)) == len(keys)


class TestSpinParams:
    def test_epoch_is_four_tdd_by_default(self):
        params = SpinParams(tdd=128)
        assert params.epoch_length == 4 * 128

    def test_rejects_bad_tdd(self):
        with pytest.raises(ConfigurationError):
            SpinParams(tdd=0)

    def test_default_matches_paper(self):
        assert SpinParams().tdd == 128
        assert SpinParams().probe_move_enabled
        assert not SpinParams().strict_priority_drop


class TestSimulationConfig:
    def test_total_cycles(self):
        sim = SimulationConfig(warmup_cycles=10, measure_cycles=20,
                               drain_cycles=5)
        assert sim.total_cycles == 35

    def test_rejects_negative_windows(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup_cycles=-1)

    def test_rejects_negative_abort_window(self):
        # ``0`` disables the wedge check; a negative window would be
        # exceeded by every idle cycle and mark healthy points wedged.
        assert SimulationConfig(deadlock_abort_cycles=0).deadlock_abort_cycles \
            == 0
        with pytest.raises(ConfigurationError, match="deadlock_abort_cycles"):
            SimulationConfig(deadlock_abort_cycles=-1)
        data = SimulationConfig().to_dict()
        data["deadlock_abort_cycles"] = -1
        with pytest.raises(ConfigurationError, match="deadlock_abort_cycles"):
            SimulationConfig.from_dict(data)

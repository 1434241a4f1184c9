"""The struct-of-arrays allocation core: compilation, one copy of state,
fallback.

:class:`repro.sim.fastcore.soa.SoaCore` advances the allocate phase over
the authoritative objects, indexing the shared fabric plan.  These tests
pin the load-bearing properties of that design:

* **compilation** — a VC's id (its router's ``r_lo`` plus its scan slot)
  indexes the plan's arbitration keys, and the core's downstream entries
  are the routers' own ``downstream_vcs`` rows;
* **one copy of state** — the core keeps no occupancy, ready or credit
  table of its own (that it reaches the same state as the reference
  engine after every cycle, through plants and spins, is the side-by-side
  property in ``tests/property/test_prop_allocate_scan.py``);
* **fail-closed fallback** — any configuration outside the routing/plane
  whitelist compiles to the pure reference schedule, bit for bit.
"""

import pytest

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.harness.runner import ExperimentSpec
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim import create_engine
from repro.topology.mesh import MeshTopology
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern


def _fast_sim(side=4, vcs=2, rate=0.15, seed=3, tdd=16, routing=None):
    """A fast-engine loop over a small mesh with uniform traffic."""
    network = Network(MeshTopology(side, side),
                      NetworkConfig(vcs_per_vnet=vcs),
                      routing or MinimalAdaptiveRouting(seed),
                      spin=SpinParams(tdd=tdd), seed=seed)
    pattern = make_pattern("uniform", network.topology.num_nodes, seed)
    traffic = SyntheticTraffic(network, pattern, rate, seed=seed)
    simulator = create_engine("fast")
    simulator.register(traffic)
    simulator.register(network)
    return simulator, network


class TestCompilation:
    def test_vid_is_the_router_base_plus_the_scan_slot(self):
        simulator, network = _fast_sim()
        simulator.run(1)
        core = simulator._core
        assert core is not None and simulator._fast_ok

        vid = 0
        for rid, router in enumerate(network.routers):
            assert core.r_lo[rid] == vid
            for inport, vcs in router.all_inports():
                for vc in vcs:
                    assert core.r_lo[rid] + vc.bit.bit_length() - 1 == vid
                    # Arbitration key orders (inport, index)
                    # lexicographically.
                    assert core.vc_arbkey[vid] == vc.inport * 64 + vc.index
                    vid += 1
        assert core.r_lo[-1] == vid

    def test_downstream_entries_are_the_routers_rows(self):
        simulator, network = _fast_sim()
        simulator.run(1)
        core = simulator._core
        for router in network.routers:
            for outport, (neighbor, dst_port) in \
                    router.out_neighbors.items():
                entry = core.outinfo[(router.id, outport)]
                assert entry[0] == outport
                assert entry[1] is router.out_links[outport]
                for vnet, dvcs in enumerate(entry[2]):
                    assert dvcs is router.downstream_vcs(outport, vnet)
                    assert list(dvcs) \
                        == list(neighbor.vnet_slice(dst_port, vnet))
        with pytest.raises(KeyError):
            core.outinfo[(0, 2000)]

    def test_the_core_keeps_no_copy_of_datapath_state(self):
        """Occupancy, ready and credit state is read from the objects:
        the core has no table that could drift from them."""
        simulator, _ = _fast_sim(rate=0.30)
        simulator.run(50)
        core = simulator._core
        for gone in ("vc_pkt", "vc_ready", "vc_free", "active", "vc_obj",
                     "vid_of", "resync", "verify_against_objects"):
            assert not hasattr(core, gone)
        for gone in ("vc_inport", "down"):
            assert not hasattr(core.plan, gone)

    def test_injection_tables_mirror_the_nics(self):
        """The core keeps no injection tables: NICs inject through the
        object datapath, over the port row each NIC looks up once."""
        simulator, network = _fast_sim(rate=0.30)
        simulator.run(50)
        core = simulator._core
        for gone in ("inj_port", "inj_rid", "inj_vids", "inj_vcs",
                     "nic_wake", "active_nics", "phase_inject"):
            assert not hasattr(core, gone)
        built = [nic for nic in network.nics if nic._port is not None]
        assert built
        for nic in built:
            router, port_vcs, width = nic._port
            assert router is network.routers[nic.router_id]
            assert port_vcs is router.vcs_at(nic.inject_port)
            for vnet in range(network.config.num_vnets):
                assert port_vcs[vnet * width:(vnet + 1) * width] \
                    == router.vnet_slice(nic.inject_port, vnet)

    def test_controller_dirty_bits_are_the_frameworks_own(self):
        """The core keeps no copy of the controller schedule: its inlined
        VC events write the SPIN framework's dirty bits directly."""
        simulator, network = _fast_sim()
        simulator.run(1)
        core = simulator._core
        assert core.ctrl_dirty is network.spin.dirty
        assert network.spin.scheduled
        for gone in ("c_dirty", "c_due", "c_min_due", "c_any_dirty"):
            assert not hasattr(core, gone)
        assert not hasattr(simulator, "_spin_control")


class TestFailClosedFallback:
    def test_routing_subclass_falls_back(self):
        class TweakedRouting(MinimalAdaptiveRouting):
            """Overrides nothing — still outside the exact-type whitelist."""

        simulator, network = _fast_sim(routing=TweakedRouting(3))
        assert simulator.engine_path is None  # nothing compiled yet
        simulator.run(50)
        assert not simulator._fast_ok
        assert simulator._core is None
        assert getattr(network, "engine_sink", None) is None
        assert simulator.engine_path == "reference-schedule"
        assert simulator.fallback_reason.startswith("routing: TweakedRouting")

    def test_instance_monkeypatch_falls_back(self):
        routing = MinimalAdaptiveRouting(3)
        routing.select = lambda *args, **kwargs: None
        simulator, _ = _fast_sim(routing=routing)
        simulator.run(50)
        assert not simulator._fast_ok

    def test_unknown_control_plane_falls_back(self):
        class IdlePlane:
            def bind(self, network):
                pass

            def phase_control(self, cycle):
                pass

        network = Network(MeshTopology(4, 4), NetworkConfig(vcs_per_vnet=2),
                          MinimalAdaptiveRouting(3),
                          control_planes=(IdlePlane(),), seed=3)
        simulator = create_engine("fast")
        simulator.register(network)
        simulator.run(5)
        assert simulator.engine_path == "reference-schedule"
        assert simulator.fallback_reason.startswith("plane: IdlePlane")

    def test_dead_link_falls_back(self):
        simulator, network = _fast_sim()
        network.set_link_state(5, 1, up=False)
        simulator.run(5)
        assert simulator.engine_path == "reference-schedule"
        assert simulator.fallback_reason.startswith("dead-links: 1")

    def test_fallback_is_bit_identical_to_reference(self):
        sim_config = SimulationConfig(
            warmup_cycles=30, measure_cycles=150, drain_cycles=120,
            deadlock_abort_cycles=300)
        base = ExperimentSpec(design="mesh:escapevc-2vc",
                              pattern="uniform", injection_rate=0.10,
                              seed=5, mesh_side=4, tdd=16, sim=sim_config)
        from dataclasses import replace

        _, reference = replace(base, engine="reference").run()
        _, fast = replace(base, engine="fast").run()
        assert fast.to_dict() == reference.to_dict()

    def test_fallback_fast_forwards_like_the_reference_loop(self):
        """A drained network is fast-forwarded off the SoA path too (as a
        control-loop count), and lands where the reference loop does: the
        allocation rotation included, and a packet queued afterwards runs
        the same."""
        from repro.harness.configs import build_network
        from repro.network.packet import Packet
        from repro.sim.profile import PhaseProfiler

        ends = []
        for engine in ("reference", "fast"):
            network = build_network("mesh:westfirst-2vc", mesh_side=4)
            pattern = make_pattern("uniform", network.topology.num_nodes, 3)
            simulator = create_engine(engine)
            simulator.register(SyntheticTraffic(network, pattern, 0.10,
                                                seed=3, stop_at=100))
            simulator.register(network)
            profiler = simulator.attach_profiler(PhaseProfiler())
            simulator.run(301)
            offset = network._allocation_offset
            network.nics[0].enqueue(Packet(
                src_node=0, dst_node=15, src_router=0, dst_router=15,
                length=5, vnet=0, create_cycle=simulator.cycle))
            simulator.run(100)
            ends.append((offset, network._allocation_offset,
                         network.nics[15].packets_received,
                         network.stats.packets_delivered,
                         dict(network.stats.events)))
            if engine == "fast":
                assert simulator.engine_path == "reference-schedule"
                assert profiler.counters == {}
                assert profiler.control_counters["cycles_fast_forwarded"] > 0
        assert ends[0] == ends[1]


@pytest.mark.parametrize("routing_factory", [
    MinimalAdaptiveRouting,
    pytest.param(None, id="DimensionOrderRouting"),
])
def test_whitelisted_routings_compile(routing_factory):
    """The two stock whitelisted routings actually take the SoA path."""
    if routing_factory is None:
        from repro.routing.dor import DimensionOrderRouting
        routing_factory = DimensionOrderRouting
    simulator, _ = _fast_sim(routing=routing_factory(3))
    simulator.run(50)
    assert simulator._fast_ok
    assert simulator._core is not None
    assert simulator.engine_path == "soa"
    assert simulator.fallback_reason is None

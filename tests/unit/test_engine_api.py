"""The pluggable engine API: protocol, registry, precedence, parity.

Covers the :mod:`repro.sim.engine_api` surface (selection precedence,
registry), the ``ExperimentSpec.engine`` field's serialization contract
(unset hashes like a pre-engine-field spec), the campaign journal's engine
provenance, and a hypothesis property test that random small meshes
produce identical :class:`SweepPoint` results under both engines.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.packet as packet_module
from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.errors import ConfigurationError
from repro.harness.runner import ExperimentSpec
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    Simulator,
    SimulatorEngine,
    available_engines,
    create_engine,
    resolve_engine_name,
)
from repro.sim.fastcore import FastSimulator
from repro.topology.mesh import MeshTopology
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern


class TestProtocolAndRegistry:
    def test_both_engines_satisfy_the_protocol(self):
        for name in available_engines():
            engine = create_engine(name)
            assert isinstance(engine, SimulatorEngine)
            assert engine.name == name
            assert engine.cycle == 0

    def test_registry_contents(self):
        assert available_engines() == ["fast", "reference"]
        assert DEFAULT_ENGINE == "reference"
        assert isinstance(create_engine("reference"), Simulator)
        assert isinstance(create_engine("fast"), FastSimulator)

    def test_fast_engine_is_a_simulator(self):
        # The fast core substitutes phases, not the component contract:
        # anything driving a Simulator drives a FastSimulator.
        assert issubclass(FastSimulator, Simulator)


class TestPrecedence:
    def test_explicit_name_beats_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine_name("fast") == "fast"
        monkeypatch.delenv(ENGINE_ENV_VAR)
        assert resolve_engine_name(None) == DEFAULT_ENGINE
        assert resolve_engine_name("") == DEFAULT_ENGINE

    def test_environment_variable_is_consulted(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        assert resolve_engine_name() == "fast"
        assert create_engine().name == "fast"
        monkeypatch.setenv(ENGINE_ENV_VAR, "")
        assert resolve_engine_name() == DEFAULT_ENGINE

    def test_unknown_engine_lists_available(self):
        with pytest.raises(ConfigurationError, match="fast, reference"):
            resolve_engine_name("warp")
        with pytest.raises(ConfigurationError, match="unknown engine"):
            create_engine("warp")

    def test_spec_field_validates_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            ExperimentSpec(design="spin_mesh", engine="warp")

    def test_effective_engine_resolves_env(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        spec = ExperimentSpec(design="spin_mesh")
        assert spec.effective_engine() == DEFAULT_ENGINE
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        assert spec.effective_engine() == "fast"
        pinned = ExperimentSpec(design="spin_mesh", engine="reference")
        assert pinned.effective_engine() == "reference"


class TestSpecSerialization:
    def test_engine_round_trips(self):
        spec = ExperimentSpec(design="spin_mesh", engine="fast")
        data = spec.to_dict()
        assert data["engine"] == "fast"
        assert ExperimentSpec.from_dict(data) == spec

    def test_unset_engine_hashes_like_a_pre_engine_spec(self):
        spec = ExperimentSpec(design="spin_mesh")
        data = spec.to_dict()
        # No key at all (not None): pre-engine-field campaign manifests
        # must keep their content keys, or no old campaign could resume.
        assert "engine" not in data
        assert ExperimentSpec.from_dict(data).content_key() \
            == spec.content_key()

    def test_pinned_engines_hash_differently(self):
        unset = ExperimentSpec(design="spin_mesh")
        fast = ExperimentSpec(design="spin_mesh", engine="fast")
        reference = ExperimentSpec(design="spin_mesh", engine="reference")
        assert len({unset.content_key(), fast.content_key(),
                    reference.content_key()}) == 3


class TestHandWiredLoop:
    """``create_engine`` plus explicit registration: the path for code that
    wires a ``Network`` and its traffic by hand."""

    def _run(self, name):
        network = Network(MeshTopology(3, 3), NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(1), spin=SpinParams(tdd=16),
                          seed=1)
        pattern = make_pattern("uniform", network.topology.num_nodes, 3)
        traffic = SyntheticTraffic(network, pattern, 0.1, seed=1,
                                   stop_at=50)
        simulator = create_engine(name)
        simulator.register(traffic)
        simulator.register(network)
        simulator.run(100)
        return simulator, network

    @pytest.mark.parametrize("name", ["reference", "fast"])
    def test_registered_components_run(self, name):
        simulator, network = self._run(name)
        assert simulator.name == name
        assert simulator.cycle == 100
        assert network.stats.packets_delivered > 0

    def test_engines_deliver_identically(self):
        _, reference = self._run("reference")
        _, fast = self._run("fast")
        assert (fast.stats.packets_delivered
                == reference.stats.packets_delivered)
        assert fast.stats.latencies == reference.stats.latencies


class TestCampaignEngineProvenance:
    def _specs(self):
        sim = SimulationConfig(warmup_cycles=20, measure_cycles=60,
                               drain_cycles=60, deadlock_abort_cycles=200)
        base = ExperimentSpec(design="spin_mesh", mesh_side=4, tdd=16,
                              injection_rate=0.05, sim=sim)
        return base.curve([0.05, 0.08])

    def _run_campaign(self, directory, specs):
        from repro.harness.campaign import CampaignEngine

        report = CampaignEngine(specs, directory=directory).run()
        assert report.completed and report.clean
        return report

    def test_journal_records_the_engine(self, tmp_path, monkeypatch):
        from repro.harness.campaign import CampaignJournal

        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        self._run_campaign(tmp_path, self._specs())
        records, torn = CampaignJournal(tmp_path).load()
        assert torn == 0
        assert [r["engine"] for r in records] \
            == [DEFAULT_ENGINE] * len(records)

    def test_resume_refuses_engine_mismatch(self, tmp_path, monkeypatch):
        from repro.harness.campaign import CampaignEngine

        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        specs = self._specs()
        self._run_campaign(tmp_path, specs)
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        with pytest.raises(ConfigurationError, match="different engine"):
            CampaignEngine(specs, directory=tmp_path).run()

    def test_engineless_journal_records_resume_anywhere(self, tmp_path,
                                                        monkeypatch):
        import json

        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        specs = self._specs()
        self._run_campaign(tmp_path, specs)
        # Strip the engine field, simulating a pre-engine journal.
        journal = tmp_path / "journal.jsonl"
        lines = []
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            record.pop("engine", None)
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
        journal.write_text("\n".join(lines) + "\n")
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        report = self._run_campaign(tmp_path, specs)
        assert report.counters.get("points_resumed") == len(specs)


class TestEnginePropertyParity:
    @settings(max_examples=12, deadline=None)
    @given(
        side=st.integers(min_value=3, max_value=5),
        vcs=st.integers(min_value=1, max_value=2),
        rate=st.sampled_from([0.05, 0.10, 0.20, 0.35]),
        seed=st.integers(min_value=0, max_value=2 ** 16),
        tdd=st.sampled_from([8, 16, 32]),
    )
    def test_random_small_meshes_produce_identical_points(
            self, side, vcs, rate, seed, tdd):
        """Property: for random small mesh configs, the fast engine's
        SweepPoint is byte-identical to the reference engine's."""
        design = f"mesh:minadaptive-spin-{vcs}vc"
        sim = SimulationConfig(warmup_cycles=40, measure_cycles=160,
                               drain_cycles=160,
                               deadlock_abort_cycles=400)
        points = {}
        for engine in ("reference", "fast"):
            # Packet uids come from a process-global counter; reset it so
            # both runs label identical packets identically.
            packet_module._packet_ids = itertools.count()
            spec = ExperimentSpec(design=design, mesh_side=side,
                                  injection_rate=rate, seed=seed, tdd=tdd,
                                  sim=sim, engine=engine)
            _, point = spec.run()
            points[engine] = point.to_dict()
        assert points["fast"] == points["reference"]

"""Experiment harness: named configurations, runners and report tables."""

from repro.harness.configs import (
    DesignConfig,
    MESH_DESIGNS,
    DRAGONFLY_DESIGNS,
    get_design,
    resolve_design_name,
    build_network,
)
from repro.harness.campaign import (
    CampaignConfig,
    CampaignEngine,
    CampaignJournal,
    CampaignReport,
    load_manifest,
    write_manifest,
)
from repro.harness.runner import (
    ExperimentSpec,
    latency_curve,
    spec_grid,
)
from repro.harness.supervision import (
    RetryPolicy,
    SpecResult,
    SupervisedPool,
    classify_failure,
)
from repro.harness.tables import format_table
from repro.harness.theories import TABLE_I, TheoryRow

__all__ = [
    "CampaignConfig",
    "CampaignEngine",
    "CampaignJournal",
    "CampaignReport",
    "RetryPolicy",
    "SupervisedPool",
    "classify_failure",
    "load_manifest",
    "write_manifest",
    "DesignConfig",
    "MESH_DESIGNS",
    "DRAGONFLY_DESIGNS",
    "get_design",
    "resolve_design_name",
    "build_network",
    "ExperimentSpec",
    "SpecResult",
    "spec_grid",
    "latency_curve",
    "format_table",
    "TABLE_I",
    "TheoryRow",
]

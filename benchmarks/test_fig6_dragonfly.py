"""Fig. 6 — dragonfly latency vs injection rate.

Regenerates the latency curves and saturation throughputs for the paper's
dragonfly designs:

* 3-VC pair: UGAL with Dally VC ordering (avoidance baseline) vs UGAL with
  SPIN (no VC-use restriction).  Paper: SPIN wins by 50% (bit complement),
  20% (transpose), 83% (tornado), 25% (neighbor); identical at low load.
* 1-VC pair: FAvORS-NMin vs minimal routing (both deadlock-free via SPIN).
  Paper: FAvORS wins by 78% (tornado) and 62% (bit complement); identical
  for transpose/neighbor; +5% uniform.

Shape assertions check the *ordering* of saturation points; absolute rates
differ from the paper's testbed (see EXPERIMENTS.md).
"""

from repro.harness.campaign import CampaignEngine
from repro.harness.runner import ExperimentSpec
from repro.harness.tables import format_table
from repro.stats.sweep import curve_saturation_rate

from benchmarks._common import DRAGONFLY, TDD, run_once, scale, sim_config, write_result

RATES = scale(
    [0.05, 0.10, 0.15, 0.20],
    [0.04, 0.08, 0.12, 0.16, 0.22, 0.30],
    [0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.50],
)
PATTERNS = ["uniform", "bit_complement", "tornado", "neighbor"]
DESIGNS_3VC = [("UGAL-Dally 3VC", "dfly:ugal-dally-3vc"),
               ("UGAL-SPIN 3VC", "dfly:ugal-spin-3vc")]
DESIGNS_1VC = [("Minimal-SPIN 1VC", "dfly:minimal-spin-1vc"),
               ("FAvORS-NMin-SPIN 1VC", "dfly:favors-nmin-spin-1vc")]


def run_experiment():
    sim = sim_config()
    results = {}
    lines = []
    for pattern in PATTERNS:
        for label, design in DESIGNS_3VC + DESIGNS_1VC:
            spec = ExperimentSpec(design=design, pattern=pattern, sim=sim,
                                  dragonfly=DRAGONFLY, tdd=TDD)
            report = CampaignEngine(spec.curve(RATES)).run()
            assert report.clean, [r.error for r in report.failed]
            points = report.points
            saturation = curve_saturation_rate(points)
            results[(pattern, label)] = (points, saturation)
            curve = "  ".join(
                f"{p.injection_rate:.2f}->{p.mean_latency:.0f}"
                for p in points)
            lines.append([pattern, label, saturation, curve])
    table = format_table(
        ["Pattern", "Design", "Saturation", "Latency curve (rate->cycles)"],
        lines,
        title="Fig. 6: 1024-node-class dragonfly latency vs injection "
              f"(dragonfly p,a,h={DRAGONFLY})")
    return table, results


def test_fig6(benchmark):
    table, results = run_once(benchmark, run_experiment)
    write_result("fig6_dragonfly", table)

    def sat(pattern, label):
        return results[(pattern, label)][1]

    # SPIN's lifted VC-use restriction never hurts the 3-VC design, and
    # wins under the restriction-sensitive patterns (paper Sec. VI-C).
    for pattern in PATTERNS:
        assert sat(pattern, "UGAL-SPIN 3VC") >= sat(pattern, "UGAL-Dally 3VC")
    assert (sat("neighbor", "UGAL-SPIN 3VC")
            >= sat("neighbor", "UGAL-Dally 3VC"))
    # FAvORS-NMin >= minimal at 1 VC for the adversarial patterns, and at
    # least equal elsewhere (it falls back to minimal routing).
    assert (sat("tornado", "FAvORS-NMin-SPIN 1VC")
            >= sat("tornado", "Minimal-SPIN 1VC"))
    # Low-load latency identical between the 3-VC designs (within 20%).
    for pattern in PATTERNS:
        low_dally = results[(pattern, "UGAL-Dally 3VC")][0][0].mean_latency
        low_spin = results[(pattern, "UGAL-SPIN 3VC")][0][0].mean_latency
        assert abs(low_dally - low_spin) / low_dally < 0.2

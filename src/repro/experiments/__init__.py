"""Experiment harness: one module per group of paper figures.

Every function here is deterministic given a seed and returns a plain
dataclass of numbers.  The benchmark suite (``benchmarks/``) calls them at
reduced scale, prints the same rows/series the paper reports and asserts
their shape; the A/B makespan studies' benchmarks also write
``BENCH_*.json`` artifacts, diffed against ``benchmarks/baselines/``.

==========================  =====================================
module                      paper figures or study
==========================  =====================================
``noise_convergence``       Fig. 2
``cloud_study``             Figs. 3, 4, 6 and Table 1
``unstable_configs``        Figs. 5, 8, 9
``generalization``          Figs. 11a-d, 12, 13, 14, 15
``equal_cost``              Figs. 16, 17
``component_analysis``      Figs. 18, 19, 20
``makespan_study``          A/B makespans: speculation, crash and
                            gray-failure recovery, mixed-fleet placement
==========================  =====================================
"""

from repro.experiments.cloud_study import CloudStudySummary, run_cloud_study
from repro.experiments.component_analysis import (
    AblationResult,
    run_gp_optimizer_comparison,
    run_noise_adjuster_ablation,
    run_outlier_detector_ablation,
)
from repro.experiments.equal_cost import (
    EqualCostResult,
    run_equal_cost_comparison,
    run_naive_distributed_comparison,
)
from repro.experiments.generalization import (
    ArmSummary,
    ComparisonResult,
    compare_samplers,
)
from repro.experiments.makespan_study import (
    MakespanArm,
    MakespanComparison,
    format_makespan_report,
    run_graydeg_study,
    run_mixed_fleet_study,
    run_resilience_study,
    run_straggler_study,
)
from repro.experiments.noise_convergence import (
    NoiseConvergenceResult,
    run_noise_convergence,
)
from repro.experiments.unstable_configs import (
    DetectionCurve,
    RelativeRangeDistribution,
    TransferabilityResult,
    detection_probability_curve,
    relative_range_distribution,
    run_transferability_study,
)

__all__ = [
    "AblationResult",
    "ArmSummary",
    "CloudStudySummary",
    "ComparisonResult",
    "DetectionCurve",
    "EqualCostResult",
    "MakespanArm",
    "MakespanComparison",
    "NoiseConvergenceResult",
    "RelativeRangeDistribution",
    "TransferabilityResult",
    "compare_samplers",
    "detection_probability_curve",
    "format_makespan_report",
    "relative_range_distribution",
    "run_cloud_study",
    "run_mixed_fleet_study",
    "run_equal_cost_comparison",
    "run_gp_optimizer_comparison",
    "run_graydeg_study",
    "run_naive_distributed_comparison",
    "run_noise_adjuster_ablation",
    "run_noise_convergence",
    "run_outlier_detector_ablation",
    "run_resilience_study",
    "run_straggler_study",
    "run_transferability_study",
]

"""Figs. 3, 4, 6 and Table 1 — the longitudinal cloud measurement study (§3.2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cloud.study import LongitudinalStudy, StudyResult


#: Paper-reported coefficients of variation for Fig. 4 (non-burstable D8s_v5).
PAPER_COVS = {
    "cpu": 0.0017,
    "disk": 0.0036,
    "memory": 0.0492,
    "os": 0.0982,
    "cache": 0.1439,
}

_BENCH_BY_COMPONENT = {
    "cpu": "sysbench-cpu-prime",
    "disk": "fio-randwrite-libaio",
    "memory": "mlc-max-bandwidth",
    "os": "osbench-create-threads",
    "cache": "stress-ng-cache",
}


@dataclass
class CloudStudySummary:
    """Summary statistics for the measurement-study figures."""

    study: StudyResult
    component_cov: Dict[str, float] = field(default_factory=dict)
    burstable_std: Dict[str, float] = field(default_factory=dict)
    nonburstable_std: Dict[str, float] = field(default_factory=dict)
    long_vs_short_std: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def cov_table(self) -> List[Tuple[str, float, float]]:
        """Rows of (component, measured CoV, paper CoV) for Fig. 4."""
        return [
            (component, self.component_cov[component], PAPER_COVS[component])
            for component in ("cpu", "disk", "memory", "os", "cache")
        ]


def run_cloud_study(
    regions: Sequence[str] = ("westus2", "eastus"),
    weeks: int = 12,
    short_vms_per_week: int = 6,
    seed: int = 0,
    include_burstable: bool = True,
) -> CloudStudySummary:
    """Run the (scaled-down) longitudinal study and summarise Figs. 3, 4, 6."""
    study = LongitudinalStudy(
        regions=regions,
        weeks=weeks,
        short_vms_per_week=short_vms_per_week,
        seed=seed,
    ).run(include_burstable=include_burstable)

    summary = CloudStudySummary(study=study)

    # Fig. 4: per-component CoV across all short-lived VMs.
    for component, bench in _BENCH_BY_COMPONENT.items():
        summary.component_cov[component] = study.component_cov(bench)

    # Fig. 3: relative-performance spread, burstable vs non-burstable.
    if include_burstable:
        for bench in ("postgres-pgbench-rw", "redis-benchmark-write"):
            region = regions[0]
            summary.nonburstable_std[bench] = float(
                np.std(study.relative_performance(bench, region, burstable=False))
            )
            summary.burstable_std[bench] = float(
                np.std(study.relative_performance(bench, region, burstable=True))
            )

    # Fig. 6: long-running VM trace vs short-lived VM spread for memory BW.
    region = regions[0]
    long_trace = np.asarray(
        [v for _, v in study.long_lived_trace("mlc-max-bandwidth", region)]
    )
    short_samples = np.asarray(study.short_lived["mlc-max-bandwidth"][region])
    summary.long_vs_short_std["mlc-max-bandwidth"] = (
        float(np.std(long_trace)),
        float(np.std(short_samples)),
    )
    return summary


def format_report(summary: CloudStudySummary) -> str:
    """Text report covering Figs. 3, 4, 6 and the Table 1 scale row."""
    lines = ["Fig. 4 / Table 1 — component-level variability (CoV)", ""]
    lines.append(f"{'component':>10} {'measured':>10} {'paper':>10}")
    for component, measured, paper in summary.cov_table():
        lines.append(f"{component:>10} {measured:>9.2%} {paper:>9.2%}")

    if summary.burstable_std:
        lines += ["", "Fig. 3 — relative-performance spread (std of value/mean)", ""]
        lines.append(f"{'benchmark':>26} {'non-burstable':>14} {'burstable':>11}")
        for bench in summary.nonburstable_std:
            lines.append(
                f"{bench:>26} {summary.nonburstable_std[bench]:>14.3f} "
                f"{summary.burstable_std[bench]:>11.3f}"
            )

    long_std, short_std = summary.long_vs_short_std["mlc-max-bandwidth"]
    lines += [
        "",
        "Fig. 6 — memory bandwidth, long-running VM vs short-lived fleet",
        f"  std over time on one long-running VM : {long_std:.2f} GB/s",
        f"  std across short-lived VMs           : {short_std:.2f} GB/s",
        "",
        "Study scale (Table 1 last row analogue): "
        + ", ".join(f"{k}={v:.0f}" for k, v in summary.study.summary_table().items()),
    ]
    return "\n".join(lines)

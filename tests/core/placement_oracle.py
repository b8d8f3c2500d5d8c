"""Reference placement: the full O(n²) greedy heterogeneity ranking.

``MultiFidelityTaskScheduler`` selects only the first ``needed`` workers of
the greedy order, from per-region sorted heads.  This module keeps the
direct definition of that order — rank *every* eligible worker, one
``min`` over the remaining list per pick — as the oracle the fast path is
checked against.  It reads the scheduler's private bookkeeping and draws its
tie-breaks one scalar ``random()`` per eligible worker, exactly as the
original implementation did.
"""

from typing import Dict, List, Sequence

from repro.cloud.vm import VirtualMachine
from repro.core.scheduler import MultiFidelityTaskScheduler


def greedy_rank(
    scheduler: MultiFidelityTaskScheduler,
    eligible: List[VirtualMachine],
    used: Sequence[str],
) -> List[VirtualMachine]:
    """Order every eligible worker greedily by the 4-term placement key."""
    region_usage: Dict[str, int] = {}
    for worker_id in used:
        region = scheduler._region.get(worker_id)
        if region is not None:
            region_usage[region] = region_usage.get(region, 0) + 1
    tiebreak = {vm.vm_id: scheduler._rng.random() for vm in eligible}
    remaining = list(eligible)
    ordered: List[VirtualMachine] = []
    while remaining:
        best = min(
            remaining,
            key=lambda vm: (
                (scheduler._reserved[vm.vm_id] + 1) / scheduler._speed[vm.vm_id],
                region_usage.get(scheduler._region[vm.vm_id], 0),
                scheduler._load[vm.vm_id] / scheduler._speed[vm.vm_id],
                tiebreak[vm.vm_id],
            ),
        )
        remaining.remove(best)
        ordered.append(best)
        region = scheduler._region[best.vm_id]
        region_usage[region] = region_usage.get(region, 0) + 1
    return ordered


def reference_assign(
    scheduler: MultiFidelityTaskScheduler,
    config,
    target_budget: int,
    already_used: Sequence[str],
    excluded: Sequence[str] = (),
) -> List[VirtualMachine]:
    """``scheduler.assign`` with the greedy oracle in place of the fast path
    (heterogeneity placement; budget validation and metrics left out)."""
    used = list(dict.fromkeys(already_used))
    needed = target_budget - len(used)
    if needed <= 0:
        return []
    eligible = scheduler.eligible_workers(config, used + list(excluded))
    if len(eligible) < needed:
        raise RuntimeError("not enough unused workers to honour the budget")
    chosen = greedy_rank(scheduler, eligible, used)[:needed]
    for vm in chosen:
        scheduler._load[vm.vm_id] += 1
    return chosen

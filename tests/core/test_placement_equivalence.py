"""Property test: fast heterogeneity placement == the greedy-rank oracle.

``MultiFidelityTaskScheduler.assign`` selects the first ``needed`` workers
from per-region sorted heads; ``placement_oracle.reference_assign`` ranks
every eligible worker greedily.  On random mixed fleets (1-4 regions, 1-3
SKUs) with random reservations, loads, dead and suspended workers, used and
excluded lists and budgets, both must choose the same workers in the same
order and leave the scheduler RNG in the same state.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
from placement_oracle import reference_assign

from repro.cloud import Cluster, FleetSpec
from repro.core import MultiFidelityTaskScheduler
from repro.systems import PostgreSQLSystem

REGIONS = ("westus2", "eastus", "centralus", "cloudlab-wisconsin")
SKUS = ("Standard_D8s_v5", "Standard_D16s_v5", "Standard_D8s_v4")
CONFIG = PostgreSQLSystem().knob_space.default_configuration()


@st.composite
def fleets(draw):
    n_regions = draw(st.integers(1, len(REGIONS)))
    n_skus = draw(st.integers(1, len(SKUS)))
    groups = draw(
        st.lists(
            st.tuples(
                st.sampled_from(REGIONS[:n_regions]),
                st.sampled_from(SKUS[:n_skus]),
                st.integers(1, 6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return FleetSpec.of(groups)


@st.composite
def scenarios(draw):
    fleet = draw(fleets())
    n = fleet.n_workers
    ids = [f"worker-{i}" for i in range(n)]
    worker_lists = st.lists(st.sampled_from(ids), max_size=n)
    calls = draw(
        st.lists(
            st.tuples(
                st.integers(1, n),  # target budget
                st.lists(st.sampled_from(ids + ["worker-x"]), max_size=n),  # used
                worker_lists,  # excluded
            ),
            min_size=1,
            max_size=6,
        )
    )
    return {
        "fleet": fleet,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "reserved": draw(worker_lists),
        "loads": draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(1, 5)))),
        "dead": draw(st.lists(st.sampled_from(ids), max_size=n // 3)),
        "suspended": draw(st.lists(st.sampled_from(ids), max_size=n // 3)),
        "calls": calls,
    }


def _prepare(scenario):
    cluster = Cluster(seed=0, fleet=scenario["fleet"])
    scheduler = MultiFidelityTaskScheduler(cluster, seed=scenario["seed"])
    scheduler.reserve(scenario["reserved"])
    for worker_id, n_samples in scenario["loads"]:
        scheduler.record_external_load(worker_id, n_samples)
    for worker_id in scenario["dead"]:
        scheduler.mark_dead(worker_id)
    for worker_id in scenario["suspended"]:
        scheduler.suspend(worker_id)
    return scheduler


def _trace(assign, scenario):
    """Run the scenario's calls through ``assign``; record every outcome."""
    scheduler = _prepare(scenario)
    trace = []
    for budget, used, excluded in scenario["calls"]:
        try:
            chosen = [vm.vm_id for vm in assign(scheduler, CONFIG, budget, used, excluded)]
        except RuntimeError:
            chosen = "not enough eligible workers"
        else:
            scheduler.reserve(chosen)  # queues grow, as in a study
        trace.append((chosen, scheduler._rng.bit_generator.state, scheduler.load_snapshot()))
    return trace


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_assign_matches_greedy_oracle(scenario):
    assert _trace(MultiFidelityTaskScheduler.assign, scenario) == _trace(
        reference_assign, scenario
    )

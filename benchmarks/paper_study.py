"""The paper's headline study setting, shared by the seed-panel benchmarks.

PostgreSQL/mssales on 10 D8s_v5 workers in one region, tuned by SMAC under
the full TUNA sampler (§6), and the deployment protocol that scores a study:
the chosen configuration on fresh nodes, relative to the workload optimum,
median over rounds.
"""

import statistics

from repro.cloud import Cluster, FleetSpec
from repro.core import ExecutionEngine, TunaSampler
from repro.core.tuner import deploy_configuration
from repro.optimizers import build_optimizer
from repro.systems import get_system
from repro.workloads import get_workload

FLEET = (("westus2", "Standard_D8s_v5", 10),)
BATCH_SIZE = 10
#: Fresh 10-node deployments per study; the deploy cost is their median.
DEPLOY_ROUNDS = 20
DEPLOY_NODES = 10


def paper_sampler(seed, **sampler_kwargs):
    """A seeded ``TunaSampler`` over the paper's headline setting."""
    system = get_system("postgres")
    workload = get_workload("mssales")
    cluster = Cluster(seed=seed, fleet=FleetSpec.of(FLEET))
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer("smac", system.knob_space, seed=seed)
    return TunaSampler(optimizer, execution, cluster, seed=seed, **sampler_kwargs)


def deploy_rel_cost(sampler, config, seed):
    """Median cost of ``config`` over fresh deployments, relative to the
    workload optimum (1.0 is optimal, higher is worse)."""
    system = sampler.execution.system
    workload = sampler.execution.workload
    optimal = workload.optimal_performance
    costs = []
    for round_ in range(DEPLOY_ROUNDS):
        deployed = deploy_configuration(
            system, workload, config,
            sampler.cluster.provision_fresh_nodes(DEPLOY_NODES),
            seed=seed * 1000 + round_,
        )
        costs.append(
            optimal / deployed.mean if workload.higher_is_better
            else deployed.mean / optimal
        )
    return statistics.median(costs)

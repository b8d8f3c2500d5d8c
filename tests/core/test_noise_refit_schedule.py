"""The noise adjuster's refit schedule, pinned against a golden trajectory.

A short seeded paper-shaped study (PostgreSQL/mssales on 10 D8s_v5
workers, batch 10, SMAC) is reduced to the SHA-256 of its per-sample
``(config digest, worker, value, adjusted_value)`` sequence.  The adjusted
values carry every noise-adjuster prediction of the study, so the digest
moves whenever the forest is refitted on a different round or with a
different seed draw.  The recorded digest is that of the paper's §4.3
schedule — one rebuild per changed max-budget training set — and
``REFIT_GROWTH = 1.0`` must still reproduce it exactly.

The rest of the file holds the geometric schedule's contract: reuse below
the growth factor, refit at it, on a new worker or on a shrunk training
set; the round counters advance either way; and a study killed mid-lag
resumes bit-for-bit.
"""

import hashlib
import inspect

import numpy as np
import pytest

from repro.cloud import TELEMETRY_METRICS, Cluster, FleetSpec
from repro.configspace import ConfigurationSpace, FloatParameter
from repro.core import ExecutionEngine, StudyInterrupted, TunaSampler, TuningLoop
from repro.core import noise_adjuster as noise_adjuster_module
from repro.core.datastore import Sample
from repro.core.eventlog import config_digest
from repro.core.noise_adjuster import NoiseAdjuster
from repro.optimizers import build_optimizer
from repro.systems import get_system
from repro.workloads import get_workload

#: Digest of the every-point schedule's trajectory for ``paper_study(1)``.
GOLDEN_EVERY_POINT = "3d146cc88da52e620514f0fdda6747352e72f3496b440060fc67df62b8b0afc0"


def paper_sampler(seed):
    system = get_system("postgres")
    workload = get_workload("mssales")
    cluster = Cluster(
        seed=seed, fleet=FleetSpec.of((("westus2", "Standard_D8s_v5", 10),))
    )
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer("smac", system.knob_space, seed=seed)
    return TunaSampler(optimizer, execution, cluster, seed=seed)


def trajectory_digest(sampler):
    digest = hashlib.sha256()
    for sample in sampler.datastore.all_samples():
        record = (
            config_digest(sample.config),
            sample.worker_id,
            repr(sample.value),
            repr(sample.adjusted_value),
        )
        digest.update((",".join(record) + "\n").encode("utf-8"))
    return digest.hexdigest()


def paper_study(seed, max_samples=120):
    sampler = paper_sampler(seed)
    TuningLoop(sampler, max_samples=max_samples, batch_size=10).run()
    return sampler


def test_every_point_schedule_matches_the_golden_trajectory(monkeypatch):
    monkeypatch.setattr(noise_adjuster_module, "REFIT_GROWTH", 1.0)
    sampler = paper_study(1)
    # The pin only means something if the adjuster retrained mid-study,
    # often enough for a lagged schedule to skip a round: 120 samples give
    # seven max-budget landings (60 samples give only two).
    adjuster = sampler.noise_adjuster
    assert (adjuster.generation, adjuster.n_fits) == (7, 7)
    assert trajectory_digest(sampler) == GOLDEN_EVERY_POINT


def test_geometric_schedule_lags_the_every_point_trajectory():
    """The default schedule keeps the forest on at least one round of the
    pinned study, so its trajectory leaves the golden one."""
    sampler = paper_study(1)
    adjuster = sampler.noise_adjuster
    assert (adjuster.generation, adjuster.n_fits) == (7, 6)
    assert trajectory_digest(sampler) != GOLDEN_EVERY_POINT


# ---------------------------------------------------------------- unit contract
WORKERS = [f"worker-{i}" for i in range(6)]
SPACE = ConfigurationSpace([FloatParameter("x", 0.0, 1.0)], seed=0)


def config_group(index, workers):
    """One configuration's samples, one per worker, with varied telemetry."""
    rng = np.random.default_rng(index)
    config = SPACE.partial_configuration(x=(index + 1) / 100)
    samples = []
    for worker in workers:
        error = float(rng.normal(0.0, 0.05))
        telemetry = rng.random(len(TELEMETRY_METRICS))
        telemetry[0] = error
        samples.append(
            Sample(
                config=config,
                worker_id=worker,
                value=1000.0 * (1.0 + error),
                objective_unit="tx/s",
                iteration=index,
                budget=10,
                telemetry=telemetry,
            )
        )
    return samples


def base_groups():
    """20 usable rows: four configurations on workers 0-4."""
    return [config_group(i, WORKERS[:5]) for i in range(4)]


def fitted_adjuster():
    adjuster = NoiseAdjuster(worker_ids=WORKERS, seed=0)
    assert adjuster.train(base_groups()) is True
    assert adjuster.n_fits == 1
    return adjuster


def test_growth_factor_is_a_module_constant():
    assert noise_adjuster_module.REFIT_GROWTH == 1.25
    assert list(inspect.signature(NoiseAdjuster).parameters) == [
        "worker_ids", "n_trees", "min_training_configs", "seed",
    ]


def test_reuse_below_the_factor(monkeypatch):
    adjuster = fitted_adjuster()
    seed_state = adjuster._rng.bit_generator.state

    def no_features(*args, **kwargs):
        raise AssertionError("a reused round must not build features")

    monkeypatch.setattr(adjuster, "_features", no_features)
    # 24 rows < 1.25 x 20, on workers the fit has seen.
    assert adjuster.train(base_groups() + [config_group(4, WORKERS[:4])]) is True
    assert adjuster.n_fits == 1
    assert adjuster._rng.bit_generator.state == seed_state


def test_refit_at_the_factor():
    adjuster = fitted_adjuster()
    # 25 rows == 1.25 x 20.
    assert adjuster.train(base_groups() + [config_group(4, WORKERS[:5])]) is True
    assert adjuster.n_fits == 2


def test_refit_when_a_new_worker_appears():
    adjuster = fitted_adjuster()
    # Only 22 rows, but worker-5 was absent from the last fit.
    assert adjuster.train(base_groups() + [config_group(4, WORKERS[4:])]) is True
    assert adjuster.n_fits == 2


def test_refit_when_the_training_set_shrinks():
    adjuster = fitted_adjuster()
    assert adjuster.train(base_groups()[1:]) is True  # 15 rows
    assert adjuster.n_fits == 2


def test_generation_and_rows_advance_when_the_model_is_reused():
    adjuster = fitted_adjuster()
    assert (adjuster.generation, adjuster.n_training_samples) == (1, 20)
    groups = base_groups() + [config_group(4, WORKERS[:4])]
    adjuster.train(groups)
    adjuster.train(groups)
    assert adjuster.generation == 3
    assert adjuster.n_training_samples == 24
    assert adjuster.n_training_configs == 5


@pytest.mark.parametrize("kill_after", [10, 11])
def test_resume_killed_between_refits_is_bit_for_bit(tmp_path, kill_after):
    """Waves 10 and 11 of the pinned study end with the forest fitted on 50
    rows while 60 are on offer; the kill lands inside that lag."""
    reference = paper_study(1)
    log = str(tmp_path / "events.jsonl")
    sampler = paper_sampler(1)
    with pytest.raises(StudyInterrupted):
        TuningLoop(
            sampler,
            max_samples=120,
            batch_size=10,
            event_log=log,
            checkpoint_path=str(tmp_path / "study.ckpt"),
            stop_after_waves=kill_after,
        ).run()
    lagging = sampler.noise_adjuster
    assert (lagging.n_training_samples, lagging._fit_rows) == (60, 50)
    resumed = TuningLoop.resume(log)
    resumed.run()
    assert trajectory_digest(resumed.sampler) == trajectory_digest(reference)
    assert resumed.sampler.noise_adjuster.generation == reference.noise_adjuster.generation

"""Posterior batch proposals: one SMAC forest per data change.

Under ``liar="posterior"`` a fantasy records the CL-min lie but leaves the
fitted surrogate valid, so the asks of one wave share a single forest and
each scores EI under its own bootstrap resample of the trees.  The first
ask after each refit takes the legacy path, which keeps lockstep
``batch_size=1`` runs (and the sequential oracle) identical to CL-min; the
GP refits on every ask and so behaves as CL-min throughout.
"""

import copy
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import Cluster
from repro.configspace import ConfigurationSpace, FloatParameter, IntegerParameter
from repro.core import ExecutionEngine, StudyInterrupted, TunaSampler, TuningLoop
from repro.ml.forest import RandomForestRegressor
from repro.obs.metrics import MetricsRegistry
from repro.optimizers import GaussianProcessOptimizer, RandomSearchOptimizer, SMACOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC


def _load_run_sequential():
    """``run_sequential`` from ``tests/core/sequential_oracle.py``, by path."""
    path = Path(__file__).resolve().parents[1] / "core" / "sequential_oracle.py"
    spec = importlib.util.spec_from_file_location("sequential_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_sequential


run_sequential = _load_run_sequential()


def make_space(seed=0):
    return ConfigurationSpace(
        [
            FloatParameter("x", -2.0, 2.0),
            FloatParameter("y", -2.0, 2.0),
            IntegerParameter("k", 1, 9),
        ],
        seed=seed,
    )


def cost(config):
    return float((config["x"] - 0.3) ** 2 + (config["y"] + 0.5) ** 2 + 0.1 * config["k"])


def warm_smac(seed, n_obs=12):
    opt = SMACOptimizer(
        make_space(), seed=seed, n_initial_design=4, n_candidates=50,
        n_local=10, n_trees=8,
    )
    opt.metrics = MetricsRegistry()
    for _ in range(n_obs):
        config = opt.ask()
        opt.tell(config, cost(config))
    return opt


def rng_state(opt):
    return opt._rng.bit_generator.state


class TestOneForestPerDataChange:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    def test_k_asks_after_one_tell_cost_one_refit(self, seed, k):
        opt = warm_smac(seed)
        refits = opt.metrics.counter_value("optimizer.surrogate.refits")
        posterior = opt.metrics.counter_value("optimizer.posterior_asks")
        configs = opt.ask_batch(k, liar="posterior")
        assert len(configs) == k
        assert opt.metrics.counter_value("optimizer.surrogate.refits") == refits + 1
        assert opt.metrics.counter_value("optimizer.posterior_asks") == posterior + k - 1
        assert opt.n_pending == k
        # Every pending lie is the CL-min lie, and the next real data change
        # models all of them in one refit.
        best = min(obs.cost for obs in opt.observations)
        assert [obs.cost for obs in opt.pending_fantasies] == [best] * k
        opt.tell(configs[0], cost(configs[0]))
        opt.ask()
        assert opt.metrics.counter_value("optimizer.surrogate.refits") == refits + 2
        assert opt._unmodelled_fantasies == 0

    def test_cl_min_refits_on_every_ask(self):
        opt = warm_smac(3)
        refits = opt.metrics.counter_value("optimizer.surrogate.refits")
        opt.ask_batch(5, liar="min")
        assert opt.metrics.counter_value("optimizer.surrogate.refits") == refits + 5
        assert opt.metrics.counter_value("optimizer.posterior_asks") == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), in_flight=st.integers(0, 6))
    def test_first_ask_after_a_refit_is_the_legacy_ask(self, seed, in_flight):
        opt = warm_smac(seed)
        configs = opt.ask_batch(in_flight + 1, liar="posterior")
        opt.tell(configs[0], cost(configs[0]))
        posterior, cl_min = copy.deepcopy(opt), copy.deepcopy(opt)
        (a,) = posterior.ask_batch(1, liar="posterior")
        (b,) = cl_min.ask_batch(1, liar="min")
        assert a == b
        assert rng_state(posterior) == rng_state(cl_min)
        assert posterior.metrics.counter_value("optimizer.posterior_asks") == (
            opt.metrics.counter_value("optimizer.posterior_asks")
        )

    def test_later_asks_resample_the_trees(self):
        opt = warm_smac(5)
        opt.ask_batch(1, liar="posterior")
        before = rng_state(opt)
        opt.ask()
        # A posterior ask draws the pool, n_trees tree indices and the
        # tie-break from the optimizer's generator, without a refit.
        assert rng_state(opt) != before
        assert opt.metrics.counter_value("optimizer.posterior_asks") == 1


class TestGaussianProcess:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
    def test_gp_asks_identical_under_both(self, seed, k):
        opt = GaussianProcessOptimizer(make_space(), seed=seed, n_initial_design=4,
                                       n_candidates=60)
        for _ in range(8):
            config = opt.ask()
            opt.tell(config, cost(config))
        posterior, cl_min = copy.deepcopy(opt), copy.deepcopy(opt)
        assert posterior.ask_batch(k, liar="posterior") == cl_min.ask_batch(k, liar="min")
        assert rng_state(posterior) == rng_state(cl_min)
        assert [o.cost for o in posterior.pending_fantasies] == [
            o.cost for o in cl_min.pending_fantasies
        ]


def make_sampler(seed, liar, n_workers=10):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    opt = SMACOptimizer(
        system.knob_space, seed=seed, n_initial_design=5,
        n_candidates=60, n_local=20, n_trees=6,
    )
    return TunaSampler(opt, execution, cluster, seed=seed, liar=liar)


def trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget, s.crashed, s.config)
        for s in sampler.datastore.all_samples()
    ]


class TestStudies:
    def test_default_liar_is_posterior(self):
        assert inspect.signature(TunaSampler).parameters["liar"].default == "posterior"

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_sequential_and_lockstep_identical_under_both(self, seed):
        runs = {}
        for liar in ("min", "posterior"):
            for driver in ("sequential", "lockstep"):
                sampler = make_sampler(seed, liar)
                if driver == "sequential":
                    result = run_sequential(sampler, max_samples=50)
                else:
                    result = TuningLoop(sampler, max_samples=50, batch_size=1).run()
                runs[liar, driver] = (
                    trajectory(sampler), result.wall_clock_hours, result.best_config
                )
        reference = runs["min", "sequential"]
        assert all(run == reference for run in runs.values())

    @pytest.mark.parametrize("liar", ["min", "posterior"])
    def test_tells_retract_every_fantasy(self, liar):
        sampler = make_sampler(4, liar)
        TuningLoop(sampler, max_samples=40, batch_size=6).run()
        opt = sampler.optimizer
        assert opt.n_pending == 0
        assert not any(obs.metadata.get("fantasy") for obs in opt.observations)

    def test_posterior_asks_serve_waves(self):
        sampler = make_sampler(4, "posterior")
        registry = MetricsRegistry()
        TuningLoop(sampler, max_samples=40, batch_size=6, metrics=registry).run()
        asks = registry.counter_value("optimizer.asks")
        refits = registry.counter_value("optimizer.surrogate.refits")
        assert registry.counter_value("optimizer.posterior_asks") > 0
        assert refits < asks

    @settings(max_examples=4, deadline=None)
    @given(kill_after=st.integers(1, 6))
    def test_killed_at_any_wave_resumes_bit_for_bit(self, tmp_path_factory, kill_after):
        kwargs = dict(max_samples=30, batch_size=5)
        reference = make_sampler(9, "posterior")
        ref_result = TuningLoop(reference, **kwargs).run()

        workdir = tmp_path_factory.mktemp("resume")
        log = str(workdir / "events.jsonl")
        with pytest.raises(StudyInterrupted):
            TuningLoop(
                make_sampler(9, "posterior"),
                event_log=log,
                checkpoint_path=str(workdir / "study.ckpt"),
                stop_after_waves=kill_after,
                **kwargs,
            ).run()
        resumed = TuningLoop.resume(log)
        result = resumed.run()
        assert trajectory(resumed.sampler) == trajectory(reference)
        assert result.wall_clock_hours == ref_result.wall_clock_hours
        assert result.best_config == ref_result.best_config
        assert resumed.sampler.optimizer.n_pending == 0


class TestLiarValidation:
    def test_tuna_sampler_rejects_unknown_liar_at_construction(self):
        with pytest.raises(ValueError, match="liar"):
            make_sampler(0, "median")

    def test_random_search_ask_batch_rejects_unknown_liar(self):
        opt = RandomSearchOptimizer(make_space(), seed=0)
        state = rng_state(opt)
        with pytest.raises(ValueError, match="liar"):
            opt.ask_batch(2, liar="median")
        assert rng_state(opt) == state
        assert len(opt.ask_batch(2, liar="posterior")) == 2

    def test_ask_batch_rejects_unknown_liar_before_asking(self):
        opt = warm_smac(0)
        state = rng_state(opt)
        with pytest.raises(ValueError, match="liar"):
            opt.ask_batch(2, liar="median")
        assert rng_state(opt) == state
        assert opt.n_pending == 0


def test_forest_tree_subset_matches_the_ensemble_formula():
    rng = np.random.default_rng(0)
    X, y = rng.random((40, 3)), rng.random(40)
    forest = RandomForestRegressor(n_estimators=6, seed=1).fit(X, y)
    Q = rng.random((25, 3))
    full = forest.predict_mean_std(Q)
    every = forest.predict_mean_std(Q, trees=np.arange(6))
    assert all(np.array_equal(a, b) for a, b in zip(full, every))
    trees = np.array([4, 0, 4, 2, 2, 2])
    per_tree = [forest.trees_[t].predict_with_variance_pointer(Q) for t in trees]
    means = np.stack([m for m, _ in per_tree], axis=1)
    variances = np.stack([v for _, v in per_tree], axis=1)
    mean, std = forest.predict_mean_std(Q, trees=trees)
    np.testing.assert_allclose(mean, means.mean(axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        std, np.sqrt(np.maximum(means.var(axis=1) + variances.mean(axis=1), 1e-12)),
        rtol=0, atol=1e-12,
    )
    for bad in ([], [6], [-1], [[0, 1]]):
        with pytest.raises(ValueError):
            forest.predict_mean_std(Q, trees=bad)

"""Sampling methodologies: TUNA and the baselines it is compared against.

* :class:`TunaSampler` — the full pipeline of Fig. 7: multi-fidelity budgets,
  outlier detection, noise adjustment, ``min`` aggregation.
* :class:`TraditionalSampler` — the state-of-the-art baseline (§6): a single
  node sequentially evaluating each suggested configuration exactly once.
* :class:`NaiveDistributedSampler` — the §6.5.2 equal-cost baseline: every
  configuration evaluated on every node of the cluster.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.cluster import Cluster
from repro.configspace import Configuration
from repro.core.aggregation import (
    AggregationPolicy,
    aggregate,
    apply_instability_penalty,
)
from repro.core.async_engine import WorkRequest
from repro.core.datastore import Datastore, Sample
from repro.core.execution import ExecutionEngine
from repro.core.multi_fidelity import SuccessiveHalvingSchedule
from repro.core.noise_adjuster import NoiseAdjuster
from repro.core.outlier import OutlierDetector
from repro.core.scheduler import MultiFidelityTaskScheduler
from repro.optimizers.base import Optimizer, check_liar, objective_to_cost

if TYPE_CHECKING:  # annotation only
    from repro.workloads.base import Objective


@dataclass
class IterationReport:
    """What one tuning iteration did and reported to the optimizer."""

    iteration: int
    config: Configuration
    budget: int
    reported_value: float  # objective units, after adjustment/penalty
    raw_values: List[float]
    unstable: bool
    n_new_samples: int
    wall_clock_hours: float
    details: Dict = field(default_factory=dict)


class Sampler(abc.ABC):
    """A sampling methodology driving one tuning run.

    The unit of work is a :class:`~repro.core.async_engine.WorkRequest`:
    :meth:`propose_work` decides what to run next (ask the optimizer, pick
    nodes), :meth:`complete_work` consumes the finished samples (aggregate,
    tell the optimizer).  The tuning loop submits proposals to the
    execution engine and feeds completions back as they land: one request
    at a time in lockstep mode, several in flight at once in larger
    batches.
    """

    name = "abstract"

    #: Optional hook set by the tuning loop when speculative
    #: re-execution or crash recovery is armed: maps a configuration to the
    #: workers currently running engine-initiated copies of it (speculative
    #: duplicates, crash retries), so placement can exclude them without
    #: counting them towards the budget.  ``None`` (the default) means no
    #: exclusions — the legacy behaviour.
    speculation_probe = None

    def __init__(
        self,
        optimizer: Optimizer,
        execution: ExecutionEngine,
        cluster: Cluster,
        seed: Optional[int] = None,
    ) -> None:
        self.optimizer = optimizer
        self.execution = execution
        self.cluster = cluster
        self.datastore = Datastore()
        self._rng = np.random.default_rng(seed)

    @property
    def objective(self) -> Objective:
        return self.execution.workload.objective

    @abc.abstractmethod
    def propose_work(self, iteration: int) -> WorkRequest:
        """Decide the next configuration/budget/node set to evaluate."""

    @abc.abstractmethod
    def complete_work(
        self, request: WorkRequest, new_samples: List[Sample]
    ) -> IterationReport:
        """Consume the finished samples of a request and tell the optimizer."""

    def complete_work_batch(
        self, completed: List[Tuple[WorkRequest, List[Sample]]]
    ) -> List[IterationReport]:
        """Consume a *wave* of completed requests (same event-loop drain).

        The default simply completes them one at a time; samplers that can
        batch their optimizer ``tell``s (one surrogate refit per wave rather
        than one per landed result) override this.
        """
        return [self.complete_work(request, samples) for request, samples in completed]

    @abc.abstractmethod
    def best_configuration(self) -> Tuple[Configuration, float]:
        """The configuration this methodology would deploy, plus its catalog value."""

    # -- helpers -------------------------------------------------------
    def _better(self, a: float, b: float) -> bool:
        return a > b if self.objective.higher_is_better else a < b


class TraditionalSampler(Sampler):
    """Single-machine, single-sample-per-configuration tuning (§6 baseline)."""

    name = "traditional"

    def __init__(
        self,
        optimizer: Optimizer,
        execution: ExecutionEngine,
        cluster: Cluster,
        seed: Optional[int] = None,
        worker_index: int = 0,
    ) -> None:
        super().__init__(optimizer, execution, cluster, seed=seed)
        if not 0 <= worker_index < cluster.n_workers:
            raise ValueError("worker_index out of range")
        self.worker = cluster.workers[worker_index]

    def propose_work(self, iteration: int) -> WorkRequest:
        config = self.optimizer.ask_batch(1)[0]
        return WorkRequest(config, budget=1, vms=[self.worker], iteration=iteration)

    def complete_work(
        self, request: WorkRequest, new_samples: List[Sample]
    ) -> IterationReport:
        (sample,) = new_samples
        self.datastore.add(sample)
        cost = objective_to_cost(sample.value, self.objective)
        self.optimizer.tell(request.config, cost, budget=1)
        return IterationReport(
            iteration=request.iteration,
            config=request.config,
            budget=1,
            reported_value=sample.value,
            raw_values=[sample.value],
            unstable=False,
            n_new_samples=1,
            wall_clock_hours=self.execution.duration_hours_for(self.worker),
            details={"crashed": sample.crashed},
        )

    def best_configuration(self) -> Tuple[Configuration, float]:
        samples = self.datastore.all_samples()
        if not samples:
            raise RuntimeError("no samples collected yet")
        best = samples[0]
        for sample in samples[1:]:
            if self._better(sample.value, best.value):
                best = sample
        return best.config, best.value


class NaiveDistributedSampler(Sampler):
    """Every configuration on every node, aggregated with ``min`` (§6.5.2)."""

    name = "naive-distributed"

    def __init__(
        self,
        optimizer: Optimizer,
        execution: ExecutionEngine,
        cluster: Cluster,
        seed: Optional[int] = None,
        aggregation: AggregationPolicy = AggregationPolicy.MIN,
    ) -> None:
        super().__init__(optimizer, execution, cluster, seed=seed)
        self.aggregation = aggregation
        self._catalog: Dict[Configuration, float] = {}

    def propose_work(self, iteration: int) -> WorkRequest:
        config = self.optimizer.ask_batch(1)[0]
        return WorkRequest(
            config,
            budget=self.cluster.n_workers,
            vms=list(self.cluster.workers),
            iteration=iteration,
        )

    def complete_work(
        self, request: WorkRequest, new_samples: List[Sample]
    ) -> IterationReport:
        config, budget = request.config, request.budget
        self.datastore.extend(new_samples)
        values = [s.value for s in new_samples]
        agg = aggregate(values, self.objective, self.aggregation)
        self._catalog[config] = agg
        self.optimizer.tell(config, objective_to_cost(agg, self.objective), budget=budget)
        return IterationReport(
            iteration=request.iteration,
            config=config,
            budget=budget,
            reported_value=agg,
            raw_values=values,
            unstable=False,
            n_new_samples=len(new_samples),
            wall_clock_hours=self.execution.request_duration_hours(request.vms),
            details={},
        )

    def best_configuration(self) -> Tuple[Configuration, float]:
        if not self._catalog:
            raise RuntimeError("no configurations evaluated yet")
        best_config = None
        best_value = None
        for config, value in self._catalog.items():
            if best_value is None or self._better(value, best_value):
                best_config, best_value = config, value
        return best_config, best_value


class TunaSampler(Sampler):
    """The TUNA sampling pipeline (Fig. 7).

    Parameters
    ----------
    use_noise_adjuster, use_outlier_detector:
        Ablation switches used by §6.6 (Figs. 19 and 20).
    budgets:
        Successive-halving node budgets; the top budget must not exceed the
        cluster size.
    eta:
        Successive-halving promotion ratio (top ``1/eta`` of a rung moves
        up); the schedule's default when ``None``.
    placement:
        Node-placement policy for the task scheduler:
        ``"heterogeneity"`` (default) trades queue depth against SKU speed
        and region diversity — on a homogeneous cluster it reproduces the
        legacy placement bit-for-bit; ``"fifo"`` is the naive round-robin
        baseline the heterogeneous-fleet benchmark compares against.
    liar:
        Fantasy strategy for in-flight configurations, one of
        :data:`~repro.optimizers.base.LIAR_STRATEGIES`; the §6.6-style
        ablation knob.  The default ``"posterior"`` lets SMAC serve the
        in-flight asks of a wave from one fitted forest by resampling its
        trees instead of refitting after every constant-liar fantasy; the
        first ask after each refit is unchanged, so lockstep
        ``batch_size=1`` runs are the same as under ``"min"``, the legacy
        behaviour, bit-for-bit.
    """

    name = "tuna"

    def __init__(
        self,
        optimizer: Optimizer,
        execution: ExecutionEngine,
        cluster: Cluster,
        seed: Optional[int] = None,
        budgets: Tuple[int, ...] = (1, 3, 10),
        eta: Optional[float] = None,
        aggregation: AggregationPolicy = AggregationPolicy.MIN,
        outlier_threshold: float = 0.30,
        use_noise_adjuster: bool = True,
        use_outlier_detector: bool = True,
        placement: str = "heterogeneity",
        liar: str = "posterior",
    ) -> None:
        check_liar(liar)
        super().__init__(optimizer, execution, cluster, seed=seed)
        if budgets[-1] > cluster.n_workers:
            raise ValueError("maximum budget cannot exceed the cluster size")
        schedule_kwargs = {} if eta is None else {"eta": eta}
        self.schedule = SuccessiveHalvingSchedule(
            objective=self.objective, budgets=budgets, **schedule_kwargs
        )
        self.scheduler = MultiFidelityTaskScheduler(
            cluster,
            seed=int(self._rng.integers(0, 2**31 - 1)),
            placement=placement,
        )
        self.outlier_detector = OutlierDetector(threshold=outlier_threshold)
        self.aggregation = aggregation
        self.use_noise_adjuster = use_noise_adjuster
        self.use_outlier_detector = use_outlier_detector
        self.noise_adjuster = NoiseAdjuster(
            worker_ids=cluster.worker_ids,
            seed=int(self._rng.integers(0, 2**31 - 1)),
        )
        self.liar = liar
        self._catalog: Dict[Configuration, Tuple[int, float]] = {}  # budget, value
        self._unstable_configs: set = set()
        # Workers currently running in-flight samples of a configuration;
        # they count towards the configuration's budget and must never
        # receive another sample of it.
        self._in_flight: Dict[Configuration, List[str]] = {}

    # ------------------------------------------------------------------ steps
    def _propose(self) -> Tuple[Configuration, int, str]:
        promotion, skipped = None, []
        while True:
            candidate = self.schedule.propose_promotion()
            if candidate is None:
                break
            if candidate[1] <= self.scheduler.n_alive:
                promotion = candidate
                break
            # Graceful degradation: node deaths shrank the fleet below this
            # rung's distinct-node budget, so the promotion can never be
            # scheduled again.  Park it (kept pending so the next
            # propose_promotion offers the rung's runner-up) and roll all
            # parked entries back afterwards — the study continues on the
            # survivors instead of deadlocking on an unreachable rung.
            skipped.append(candidate[0])
        for config in skipped:
            self.schedule.rollback_promotion(config)
        if promotion is not None:
            config, budget = promotion
            return config, budget, "promotion"
        config = self.optimizer.ask_batch(1, liar=self.liar)[0]
        # With several requests in flight the optimizer can re-suggest a
        # configuration whose samples have not landed yet.  The constant-liar
        # fantasy recorded by the duplicate ask steers the next suggestion
        # elsewhere, so retrying converges quickly; all fantasies for the
        # configuration are retracted together when its real result arrives.
        for _ in range(4):
            if config not in self._in_flight:
                break
            config = self.optimizer.ask_batch(1, liar=self.liar)[0]
        return config, self.schedule.min_budget, "new"

    def _adjust_samples(self, samples: List[Sample], unstable: bool) -> List[float]:
        if self.use_noise_adjuster:
            adjusted = self.noise_adjuster.adjust_many(samples, is_outlier=unstable)
        else:
            adjusted = [sample.value for sample in samples]
        for sample, value in zip(samples, adjusted):
            sample.adjusted_value = value
        return adjusted

    def _retrain_noise_adjuster(self) -> None:
        if not self.use_noise_adjuster:
            return
        groups = []
        for config in self.schedule.configs_at_max_budget():
            if config in self._unstable_configs:
                continue
            groups.append(self.datastore.samples_for(config))
        if groups:
            self.noise_adjuster.train(groups)

    def propose_work(self, iteration: int) -> WorkRequest:
        config, budget, kind = self._propose()

        in_flight = list(self._in_flight.get(config, []))
        if kind == "promotion" and in_flight:
            # Promotion decisions must rest on landed samples only: counting
            # unlanded duplicates towards the budget would record the higher
            # rung from fewer distinct-node results than it claims.  Defer —
            # the async driver drains a completion and retries.
            self.schedule.rollback_promotion(config)
            raise RuntimeError(
                f"promotion deferred: samples of {config!r} are still in flight"
            )
        used_workers = self.datastore.workers_used(config)
        # Workers running speculative duplicates of this configuration hold
        # a result for an *existing* slot: exclude them from placement
        # without letting them count towards the budget.
        speculative = (
            list(self.speculation_probe(config))
            if self.speculation_probe is not None
            else []
        )
        try:
            vms = self.scheduler.assign(
                config, budget, used_workers + in_flight, excluded=speculative
            )
            if not vms and not used_workers:
                # Every sample counting towards the budget is still in
                # flight, so there is nothing to aggregate yet; schedule one
                # genuine sample on a fresh node instead of reporting on an
                # empty set.
                vms = self.scheduler.assign(
                    config,
                    min(len(in_flight) + 1, self.scheduler.n_workers),
                    in_flight,
                    excluded=speculative,
                )
                if not vms:
                    # In-flight duplicates already occupy every worker; an
                    # empty request would complete with nothing to report.
                    # Defer until they land.
                    raise RuntimeError(
                        f"proposal deferred: every worker already runs an "
                        f"in-flight sample of {config!r}"
                    )
        except (RuntimeError, ValueError):
            # Promotion is transactional: scheduling failed, so release the
            # reservation and leave the configuration proposable in its rung
            # rather than silently dropping it from the race (the async
            # driver retries once in-flight work frees workers).  A failed
            # new suggestion likewise retracts the one fantasy this proposal
            # recorded — not every fantasy for the configuration, which
            # would strip the lie still guarding an in-flight duplicate.
            if kind == "promotion":
                self.schedule.rollback_promotion(config)
            else:
                self.optimizer.retract_fantasy(config)
            raise
        if kind == "promotion":
            self.schedule.commit_promotion(config)

        worker_ids = [vm.vm_id for vm in vms]
        if worker_ids:
            self._in_flight.setdefault(config, []).extend(worker_ids)
            self.scheduler.reserve(worker_ids)
        return WorkRequest(config, budget, vms, iteration, kind=kind)

    def _complete(
        self,
        request: WorkRequest,
        new_samples: List[Sample],
        tells: List[Tuple[Configuration, float, float]],
    ) -> IterationReport:
        """Consume a finished request; its optimizer ``tell`` is appended to
        ``tells``, the wave's batched tell."""
        config, budget = request.config, request.budget
        worker_ids = request.worker_ids
        if worker_ids:
            self.scheduler.release(worker_ids)
            in_flight = self._in_flight.get(config, [])
            for worker_id in worker_ids:
                if worker_id in in_flight:
                    in_flight.remove(worker_id)
            if not in_flight:
                self._in_flight.pop(config, None)

        self.datastore.extend(new_samples)
        all_samples = self.datastore.samples_for(config)
        if not all_samples:
            raise RuntimeError(
                f"request for {config!r} completed without any samples to report"
            )

        unstable = False
        if self.use_outlier_detector:
            unstable = self.outlier_detector.is_unstable(all_samples)
            if unstable:
                self._unstable_configs.add(config)

        adjusted_values = self._adjust_samples(all_samples, unstable)
        agg = aggregate(adjusted_values, self.objective, self.aggregation)
        if unstable:
            agg = apply_instability_penalty(agg, self.objective)

        self.schedule.record(config, budget, agg)
        self._catalog[config] = (budget, agg)
        tells.append((config, objective_to_cost(agg, self.objective), float(budget)))

        # Training happens after inference so no information leaks into the
        # values reported this iteration (§6.6).
        if budget == self.schedule.max_budget and not unstable:
            self._retrain_noise_adjuster()

        # Samples on different nodes run in parallel, so a request costs one
        # evaluation of wall-clock — the slowest assigned worker's, in a
        # mixed fleet — unless it scheduled nothing (a promotion fully
        # covered by reused samples), which is free: charging it a full
        # evaluation would skew the equal-cost comparison of §6.5.
        wall_clock_hours = (
            self.execution.request_duration_hours(request.vms) if new_samples else 0.0
        )

        return IterationReport(
            iteration=request.iteration,
            config=config,
            budget=budget,
            reported_value=agg,
            raw_values=[s.value for s in all_samples],
            unstable=unstable,
            n_new_samples=len(new_samples),
            wall_clock_hours=wall_clock_hours,
            details={
                "adjusted_values": adjusted_values,
                "model_generation": self.noise_adjuster.generation,
            },
        )

    def complete_work(
        self, request: WorkRequest, new_samples: List[Sample]
    ) -> IterationReport:
        return self.complete_work_batch([(request, new_samples)])[0]

    def complete_work_batch(
        self, completed: List[Tuple[WorkRequest, List[Sample]]]
    ) -> List[IterationReport]:
        """Complete a wave of requests with one batched optimizer tell.

        Completions that land in the same event-loop drain go through a
        single :meth:`~repro.optimizers.base.Optimizer.tell_batch`, so the
        surrogate refits once per wave instead of once per landed result
        (single-``tell`` semantics are unchanged: same observations, same
        retracted fantasies, one cache invalidation instead of several).
        An empty wave is a no-op: nothing recorded, no data-version bump.
        """
        if not completed:
            return []
        tells: List[Tuple[Configuration, float, float]] = []
        reports = [self._complete(request, samples, tells) for request, samples in completed]
        self.optimizer.tell_batch(tells)
        return reports

    # ------------------------------------------------------------------ output
    def best_configuration(self) -> Tuple[Configuration, float]:
        """Best stable configuration, preferring the highest budget reached."""
        if not self._catalog:
            raise RuntimeError("no configurations evaluated yet")
        candidates = []
        for config, (budget, value) in self._catalog.items():
            if config in self._unstable_configs:
                continue
            candidates.append((budget, value, config))
        if not candidates:  # everything unstable: fall back to the full catalog
            candidates = [
                (budget, value, config)
                for config, (budget, value) in self._catalog.items()
            ]
        max_budget_reached = max(budget for budget, _, _ in candidates)
        finalists = [c for c in candidates if c[0] == max_budget_reached]
        best = finalists[0]
        for entry in finalists[1:]:
            if self._better(entry[1], best[1]):
                best = entry
        return best[2], best[1]

    @property
    def n_unstable_configs(self) -> int:
        return len(self._unstable_configs)


def build_sampler(
    name: str,
    optimizer: Optimizer,
    execution: ExecutionEngine,
    cluster: Cluster,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> Sampler:
    """Instantiate a sampler by name (``tuna``, ``traditional``, ``naive``)."""
    name = name.lower()
    if name == "tuna":
        return TunaSampler(optimizer, execution, cluster, seed=seed, **kwargs)
    if name == "traditional":
        return TraditionalSampler(optimizer, execution, cluster, seed=seed, **kwargs)
    if name in ("naive", "naive-distributed"):
        return NaiveDistributedSampler(optimizer, execution, cluster, seed=seed, **kwargs)
    raise KeyError(f"unknown sampler {name!r}; known: tuna, traditional, naive")

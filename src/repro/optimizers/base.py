"""Common ask/tell optimizer interface.

All optimizers *minimise a cost*.  The tuning loop converts the workload's
objective into a cost with :func:`objective_to_cost` (throughput is negated;
runtimes and latencies pass through).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace import Configuration, ConfigurationSpace
from repro.workloads.base import Objective


def objective_to_cost(value: float, objective: Objective) -> float:
    """Convert an objective value into a cost to be minimised."""
    if objective.higher_is_better:
        return -float(value)
    return float(value)


def cost_to_objective(cost: float, objective: Objective) -> float:
    """Inverse of :func:`objective_to_cost`."""
    if objective.higher_is_better:
        return -float(cost)
    return float(cost)


#: Known strategies for in-flight fantasies (§6.6 ablation).  Both record
#: the best cost seen so far for a pending configuration (the constant
#: liar CL-min: aggressive, it pushes later asks away from the pending
#: point).  ``"min"`` invalidates the fitted surrogate; ``"posterior"``
#: does not: SMAC serves the asks that follow from the same forest, each
#: scoring EI under a bootstrap resample of its trees (batch Thompson
#: sampling), and the lies reach the surrogate at its next refit.
LIAR_STRATEGIES = ("min", "posterior")


def check_liar(liar: str) -> None:
    """Raise ``ValueError`` unless ``liar`` is one of :data:`LIAR_STRATEGIES`."""
    if liar not in LIAR_STRATEGIES:
        raise ValueError(f"unknown liar strategy {liar!r}; known: {LIAR_STRATEGIES}")


@dataclass
class OptimizerObservation:
    """One (configuration, cost) observation reported to an optimizer."""

    config: Configuration
    cost: float
    budget: float = 1.0
    metadata: Dict = field(default_factory=dict)


class Optimizer(abc.ABC):
    """Sequential model-based optimizer with an ask/tell interface.

    Batched/asynchronous callers use :meth:`ask_batch`, which records a
    *pending fantasy* (constant-liar observation) for every suggestion so
    that several configurations can be in flight at once without the
    acquisition function collapsing onto a single point.  Fantasies live in
    a separate list and are retracted automatically when the real result is
    reported via :meth:`tell`.
    """

    def __init__(self, space: ConfigurationSpace, seed: Optional[int] = None) -> None:
        self.space = space
        self._rng = np.random.default_rng(seed)
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` (attached by
        #: the tuning loop).  Instrumented sites are ``is not None``-guarded
        #: and write-only, so an attached registry is trajectory-inert.
        self.metrics = None
        self.observations: List[OptimizerObservation] = []
        #: In-flight constant-liar observations, retracted on the real tell.
        self._pending: List[OptimizerObservation] = []
        #: Monotonic fingerprint of the training data (real + pending);
        #: bumped by every tell, retract and constant-liar fantasy so
        #: surrogate caches can key on it.
        self._data_version = 0
        #: Posterior fantasies recorded since the last :meth:`_training_data`
        #: (they leave ``_data_version`` alone, so a cached surrogate has not
        #: seen them).
        self._unmodelled_fantasies = 0

    # -- interface -------------------------------------------------------
    @abc.abstractmethod
    def ask(self) -> Configuration:
        """Suggest the next configuration to evaluate."""

    def ask_batch(self, n: int, liar: str = "min") -> List[Configuration]:
        """Suggest ``n`` configurations to run concurrently.

        After each suggestion a constant-liar fantasy is recorded, so later
        suggestions in the batch (and later batches, while results are still
        in flight) see the earlier ones as already evaluated and spread out
        instead of piling onto the current acquisition maximum.  ``liar``
        picks the fantasy statistic (see :data:`LIAR_STRATEGIES`); the
        default CL-min is the legacy behaviour.
        """
        check_liar(liar)
        if n < 1:
            raise ValueError("batch size must be >= 1")
        configs: List[Configuration] = []
        for _ in range(n):
            config = self.ask()
            self.fantasize(config, liar=liar)
            configs.append(config)
        return configs

    def tell(
        self,
        config: Configuration,
        cost: float,
        budget: float = 1.0,
        metadata: Optional[Dict] = None,
    ) -> None:
        """Report the cost observed for a configuration.

        Any pending fantasies for the configuration are retracted first: the
        real observation replaces the lie.
        """
        if self.metrics is not None:
            self.metrics.inc("optimizer.tells")
        self._record(config, cost, budget, metadata)
        self._data_version += 1

    def tell_batch(
        self, results: Sequence[Tuple[Configuration, float, float]]
    ) -> None:
        """Report several results that landed in the same event-loop drain.

        Semantically identical to calling :meth:`tell` once per
        ``(config, cost, budget)`` triple, in order — same observations, same
        fantasy retraction, one shared :meth:`_record` path — but the
        training-data fingerprint advances once for the whole wave, so a
        cached surrogate is invalidated (and refit) a single time per wave
        rather than once per landed result.  Validation is atomic: a
        non-finite cost anywhere in the wave records nothing.
        """
        results = list(results)
        for _, cost, _ in results:
            if not np.isfinite(cost):
                raise ValueError("cost must be finite; penalise crashes before telling")
        if not results:
            return
        if self.metrics is not None:
            self.metrics.inc("optimizer.tells", len(results))
            self.metrics.inc("optimizer.tell_batches")
        for config, cost, budget in results:
            self._record(config, cost, budget, None)
        self._data_version += 1

    def _record(
        self,
        config: Configuration,
        cost: float,
        budget: float,
        metadata: Optional[Dict],
    ) -> None:
        """Shared body of :meth:`tell` / :meth:`tell_batch`: retract the
        configuration's pending fantasies and append the real observation
        (fingerprint bumping is the caller's job)."""
        if not np.isfinite(cost):
            raise ValueError("cost must be finite; penalise crashes before telling")
        self._retract_quietly(config, all_matching=True)
        self.observations.append(
            OptimizerObservation(config, float(cost), float(budget), metadata or {})
        )

    # -- in-flight fantasies ---------------------------------------------------
    def fantasize(
        self, config: Configuration, budget: float = 1.0, liar: str = "min"
    ) -> OptimizerObservation:
        """Record a constant-liar observation for an in-flight configuration.

        The lie is the best cost seen so far (CL-min), which collapses the
        acquisition function around the pending point and steers subsequent
        asks away from it.  With no real observations yet the minimum is
        taken over the pending lies, or 0.0 for a completely cold optimizer
        (harmless: asks fall back to random sampling until two real
        observations exist).

        ``"posterior"`` records the CL-min lie without advancing the data
        fingerprint: a cached surrogate stays valid, and the fantasy is
        counted as unmodelled until the next fit (see
        :data:`LIAR_STRATEGIES`).
        """
        check_liar(liar)
        pool = self.observations or self._pending
        lie = min((obs.cost for obs in pool), default=0.0)
        observation = OptimizerObservation(
            config, float(lie), float(budget), {"fantasy": True, "liar": liar}
        )
        self._pending.append(observation)
        if liar == "posterior":
            self._unmodelled_fantasies += 1
        else:
            self._data_version += 1
        return observation

    def retract_fantasy(self, config: Configuration, all_matching: bool = False) -> bool:
        """Drop pending fantasies for ``config``; returns whether any existed."""
        found = self._retract_quietly(config, all_matching=all_matching)
        if found:
            self._data_version += 1
        return found

    def _retract_quietly(self, config: Configuration, all_matching: bool = False) -> bool:
        """Drop pending fantasies without advancing the data fingerprint
        (batched tells bump it once for the whole wave)."""
        found = False
        remaining: List[OptimizerObservation] = []
        for obs in self._pending:
            if obs.config == config and (all_matching or not found):
                found = True
                continue
            remaining.append(obs)
        if found:
            self._pending = remaining
        return found

    @property
    def pending_fantasies(self) -> List[OptimizerObservation]:
        return list(self._pending)

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    @property
    def data_version(self) -> int:
        """Cheap fingerprint of the training data (real + pending lies),
        except for posterior fantasies not yet modelled."""
        return self._data_version

    # -- shared helpers -------------------------------------------------------
    @property
    def n_observations(self) -> int:
        """Number of *real* observations (pending fantasies excluded)."""
        return len(self.observations)

    def best_observation(self) -> OptimizerObservation:
        """The lowest-cost observation, restricted to the highest budget seen."""
        if not self.observations:
            raise RuntimeError("no observations yet")
        max_budget = max(obs.budget for obs in self.observations)
        candidates = [obs for obs in self.observations if obs.budget >= max_budget]
        return min(candidates, key=lambda obs: obs.cost)

    @staticmethod
    def _incumbent_indices(y: np.ndarray) -> List[int]:
        """Training rows of the best tenth of the costs (at least one), best
        first: the incumbents whose neighbours join the candidate pool."""
        return np.argsort(y, kind="stable")[: max(1, len(y) // 10)].tolist()

    def _training_data(self) -> tuple:
        """Encode observations (real + pending fantasies) for surrogate fitting.

        If a configuration has been observed at several budgets, only its
        highest-budget observation is kept (the most trustworthy one), and
        within the same budget the most recent observation wins.  Pending
        constant-liar fantasies make in-flight configurations look evaluated
        to the surrogate, but a lie never shadows a real observation of the
        same configuration — the lie is the global best cost, which would
        pull the acquisition *towards* the pending point instead of away.
        Every pending lie is modelled from here on, so the count of
        unmodelled posterior fantasies restarts at zero.
        """
        self._unmodelled_fantasies = 0
        best_per_config: Dict[Configuration, OptimizerObservation] = {}
        for obs in self.observations:
            existing = best_per_config.get(obs.config)
            if existing is None or obs.budget >= existing.budget:
                best_per_config[obs.config] = obs
        for obs in self._pending:
            if obs.config not in best_per_config:
                best_per_config[obs.config] = obs
        configs = list(best_per_config.keys())
        X = self.space.encode_batch(configs)
        y = np.array([best_per_config[c].cost for c in configs], dtype=float)
        return X, y, configs

"""SMAC-style Bayesian optimization with a random-forest surrogate.

This mirrors the structure of SMAC3 (the optimizer the paper uses by
default, §5): an initial design of random configurations, a random-forest
surrogate with uncertainty estimates, Expected Improvement as acquisition,
and a candidate pool mixing uniformly random configurations with local
perturbations of the best configurations seen so far ("local search").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.configspace import CandidatePool, Configuration, ConfigurationSpace
from repro.ml.forest import RandomForestRegressor
from repro.optimizers.acquisition import expected_improvement
from repro.optimizers.base import Optimizer


class SMACOptimizer(Optimizer):
    """Random-forest Bayesian optimizer.

    Parameters
    ----------
    space:
        The configuration space to search.
    n_initial_design:
        Number of random configurations evaluated before the surrogate is
        trusted (the paper's "initialization set").
    n_candidates:
        Number of random candidates scored by EI per ask.
    n_local:
        Number of local perturbations of the best configurations added to the
        candidate pool.
    n_trees:
        Size of the random-forest surrogate.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: Optional[int] = None,
        n_initial_design: int = 10,
        n_candidates: int = 400,
        n_local: int = 60,
        n_trees: int = 24,
        xi: float = 0.01,
        initial_design: Optional[List[Configuration]] = None,
    ) -> None:
        super().__init__(space, seed=seed)
        if n_initial_design < 1:
            raise ValueError("n_initial_design must be >= 1")
        self.n_initial_design = n_initial_design
        self.n_candidates = n_candidates
        self.n_local = n_local
        self.n_trees = n_trees
        self.xi = xi
        self._initial_design: List[Configuration] = (
            list(initial_design) if initial_design is not None else []
        )
        self._initial_served = 0
        # The last fit as (data_version, fitted): the data version is bumped
        # by every tell/retract and every constant-liar fantasy, so
        # back-to-back ask() calls without an intervening data change reuse
        # the forest instead of refitting all n_trees trees on identical
        # data, and so do asks behind posterior fantasies (see _ask_impl).
        self._last_fit: Optional[Tuple[int, tuple]] = None

    # -- initial design ------------------------------------------------------
    def _next_initial(self) -> Optional[Configuration]:
        if self._initial_served < len(self._initial_design):
            config = self._initial_design[self._initial_served]
            self._initial_served += 1
            return config
        if self._initial_served < self.n_initial_design:
            self._initial_served += 1
            return self.space.sample(self._rng)
        return None

    # -- surrogate ------------------------------------------------------
    def _fit_surrogate(self) -> tuple:
        if self._last_fit is not None and self._last_fit[0] == self.data_version:
            if self.metrics is not None:
                self.metrics.inc("optimizer.surrogate.cache_hits")
            return self._last_fit[1]
        if self.metrics is not None:
            self.metrics.inc("optimizer.surrogate.refits")
        X, y, configs = self._training_data()
        forest = RandomForestRegressor(
            n_estimators=self.n_trees,
            min_samples_leaf=1,
            min_samples_split=3,
            max_features=5.0 / 6.0,
            seed=int(self._rng.integers(0, 2**31 - 1)),
        )
        if self.metrics is not None:
            with self.metrics.timer("optimizer.refit_seconds"):
                forest.fit(X, y)
        else:
            forest.fit(X, y)
        fitted = (forest, X, y, configs)
        self._last_fit = (self.data_version, fitted)
        return fitted

    def _candidate_pool(
        self, X: np.ndarray, y: np.ndarray, configs: List[Configuration]
    ) -> CandidatePool:
        top = self._incumbent_indices(y) if configs and self.n_local > 0 else []
        return self.space.candidate_pool(
            self.n_candidates,
            self._rng,
            incumbents=[configs[i] for i in top],
            per_incumbent=max(1, self.n_local // len(top)) if len(top) else 0,
            scale=0.15,
            incumbent_rows=X[top],
        )

    # -- ask ------------------------------------------------------
    def ask(self) -> Configuration:
        if self.metrics is not None:
            self.metrics.inc("optimizer.asks")
            with self.metrics.timer("optimizer.ask_seconds"):
                return self._ask_impl()
        return self._ask_impl()

    def _ask_impl(self) -> Configuration:
        initial = self._next_initial()
        if initial is not None:
            return initial
        if self.n_observations < 2:
            return self.space.sample(self._rng)

        forest, X, y, configs = self._fit_surrogate()
        pool = self._candidate_pool(X, y, configs)
        if not pool:
            # Degenerate pool (n_candidates=0 and no local search): fall back
            # to a random sample instead of letting ``ei.max()`` raise on an
            # empty array.
            return self.space.sample(self._rng)
        trees = None
        if self._unmodelled_fantasies:
            # Posterior ask: the cached forest has not seen the in-flight
            # posterior fantasies.  Instead of refitting with them, score EI
            # under a bootstrap resample of the trees, so each in-flight ask
            # follows its own posterior draw (batch Thompson sampling).
            trees = self._rng.integers(0, self.n_trees, size=self.n_trees)
            if self.metrics is not None:
                self.metrics.inc("optimizer.posterior_asks")
        mean, std = forest.predict_mean_std(pool.X, trees=trees)
        ei = expected_improvement(mean, std, best_cost=float(np.min(y)), xi=self.xi)
        # Break ties randomly so repeated asks don't collapse to one point.
        best_indices = np.flatnonzero(ei >= ei.max() - 1e-12)
        choice = int(self._rng.choice(best_indices))
        return pool.configuration(choice)

"""OtterTune-style Gaussian-process Bayesian optimizer (§6.6)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.configspace import Configuration, ConfigurationSpace
from repro.ml.gaussian_process import GaussianProcessRegressor
from repro.ml.kernels import Matern52Kernel
from repro.optimizers.acquisition import expected_improvement
from repro.optimizers.base import Optimizer


class GaussianProcessOptimizer(Optimizer):
    """GP + Expected Improvement optimizer over the unit-cube encoding."""

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: Optional[int] = None,
        n_initial_design: int = 10,
        n_candidates: int = 500,
        length_scale: float = 0.35,
        noise: float = 1e-4,
        xi: float = 0.01,
    ) -> None:
        super().__init__(space, seed=seed)
        if n_initial_design < 1:
            raise ValueError("n_initial_design must be >= 1")
        self.n_initial_design = n_initial_design
        self.n_candidates = n_candidates
        self.length_scale = length_scale
        self.noise = noise
        self.xi = xi
        self._initial_served = 0

    def ask(self) -> Configuration:
        if self._initial_served < self.n_initial_design:
            self._initial_served += 1
            return self.space.sample(self._rng)
        if self.n_observations < 2:
            # Not enough *real* data for a GP fit; pending constant-liar
            # fantasies alone carry no signal worth modelling.
            return self.space.sample(self._rng)

        # Training data includes pending fantasies, so batched asks spread
        # out instead of collapsing onto the current EI maximum.  The GP is
        # refit on every ask, so a posterior fantasy (the CL-min lie) is
        # modelled at once and "posterior" behaves exactly as "min".
        X, y, configs = self._training_data()
        gp = GaussianProcessRegressor(
            kernel=Matern52Kernel(length_scale=self.length_scale),
            noise=self.noise,
            normalize_y=True,
        )
        gp.fit(X, y)

        top = self._incumbent_indices(y) if configs else []
        pool = self.space.candidate_pool(
            self.n_candidates,
            self._rng,
            incumbents=[configs[i] for i in top],
            per_incumbent=20,
            scale=0.1,
            incumbent_rows=X[top],
        )
        mean, std = gp.predict(pool.X, return_std=True)
        ei = expected_improvement(mean, std, best_cost=float(np.min(y)), xi=self.xi)
        best_indices = np.flatnonzero(ei >= ei.max() - 1e-12)
        return pool.configuration(int(self._rng.choice(best_indices)))

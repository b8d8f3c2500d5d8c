"""Pure random search baseline."""

from __future__ import annotations

from typing import List, Optional

from repro.configspace import Configuration, ConfigurationSpace
from repro.optimizers.base import Optimizer, check_liar


class RandomSearchOptimizer(Optimizer):
    """Uniformly random suggestions (the weakest sensible baseline)."""

    def __init__(self, space: ConfigurationSpace, seed: Optional[int] = None) -> None:
        super().__init__(space, seed=seed)

    def ask(self) -> Configuration:
        return self.space.sample(self._rng)

    def ask_batch(self, n: int, liar: str = "min") -> List[Configuration]:
        # Random suggestions are independent of the observation history, so
        # no constant-liar fantasies are needed to keep a batch diverse
        # (the liar strategy is checked for interface parity, then ignored).
        check_liar(liar)
        if n < 1:
            raise ValueError("batch size must be >= 1")
        return [self.ask() for _ in range(n)]

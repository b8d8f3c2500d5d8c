"""Tests for the liar strategies behind ``Optimizer.ask_batch(liar=...)``.

Both strategies record the CL-min fantasy (the best cost seen so far);
retraction must work identically for each, and the default must remain the
legacy CL-min bit-for-bit.
"""

import pytest

from repro.configspace import ConfigurationSpace, FloatParameter
from repro.optimizers import LIAR_STRATEGIES
from repro.optimizers.base import Optimizer


def make_space(seed=0):
    return ConfigurationSpace(
        [
            FloatParameter("x", 0.0, 1.0),
            FloatParameter("y", 0.0, 1.0),
        ],
        seed=seed,
    )


class SequentialOptimizer(Optimizer):
    """Deterministic asks so lie bookkeeping is easy to assert."""

    def ask(self):
        return self.space.sample(self._rng)


def warm_optimizer(costs=(3.0, 1.0, 2.0)):
    opt = SequentialOptimizer(make_space(), seed=0)
    for cost in costs:
        opt.tell(opt.ask(), cost)
    return opt


class TestLiarStatistics:
    def test_known_strategies(self):
        assert LIAR_STRATEGIES == ("min", "posterior")

    @pytest.mark.parametrize("liar, expected", [("min", 1.0)])
    def test_fantasy_matches_the_chosen_statistic(self, liar, expected):
        opt = warm_optimizer()
        fantasy = opt.fantasize(make_space(seed=9).sample(), liar=liar)
        assert fantasy.cost == pytest.approx(expected)
        assert fantasy.metadata["fantasy"] is True
        assert fantasy.metadata["liar"] == liar

    @pytest.mark.parametrize("liar", LIAR_STRATEGIES)
    def test_ask_batch_passes_the_strategy_through(self, liar):
        opt = warm_optimizer()
        batch = opt.ask_batch(3, liar=liar)
        assert len(batch) == 3
        assert [obs.metadata["liar"] for obs in opt.pending_fantasies] == [liar] * 3

    def test_default_is_cl_min(self):
        opt = warm_optimizer()
        fantasy = opt.fantasize(make_space(seed=9).sample())
        assert fantasy.cost == pytest.approx(1.0)
        assert fantasy.metadata["liar"] == "min"

    def test_unknown_strategy_raises(self):
        opt = warm_optimizer()
        with pytest.raises(ValueError, match="liar"):
            opt.fantasize(make_space(seed=9).sample(), liar="median")
        with pytest.raises(ValueError, match="liar"):
            opt.ask_batch(2, liar="median")

    def test_cold_optimizer_lies_zero_for_every_variant(self):
        for liar in LIAR_STRATEGIES:
            opt = SequentialOptimizer(make_space(), seed=0)
            fantasy = opt.fantasize(opt.ask(), liar=liar)
            assert fantasy.cost == 0.0


class TestRetractionPerVariant:
    @pytest.mark.parametrize("liar", LIAR_STRATEGIES)
    def test_real_tell_retracts_the_fantasy(self, liar):
        opt = warm_optimizer()
        (config,) = opt.ask_batch(1, liar=liar)
        assert opt.n_pending == 1
        opt.tell(config, 0.5)
        assert opt.n_pending == 0
        assert opt.observations[-1].config == config
        assert not opt.observations[-1].metadata.get("fantasy")

    @pytest.mark.parametrize("liar", LIAR_STRATEGIES)
    def test_manual_retraction(self, liar):
        opt = warm_optimizer()
        config = make_space(seed=9).sample()
        opt.fantasize(config, liar=liar)
        assert opt.retract_fantasy(config) is True
        assert opt.n_pending == 0

    def test_mixed_variants_retract_together_on_tell(self):
        opt = warm_optimizer()
        config = make_space(seed=9).sample()
        opt.fantasize(config, liar="min")
        opt.fantasize(config, liar="posterior")
        opt.tell(config, 0.25)
        assert opt.n_pending == 0

"""Unit tests for the fail-stop crash models."""

import numpy as np
import pytest

from repro.faults import (
    CompositeCrashModel,
    CrashContext,
    CrashDecision,
    CrashModel,
    NodeDeathModel,
    TransientCrashModel,
    build_crash_model,
)


def ctx(worker="worker-0", start=0.0, duration=1.0, speculative=False):
    return CrashContext(
        worker_id=worker,
        start_hours=start,
        duration_hours=duration,
        speculative=speculative,
    )


class TestTransientCrashModel:
    def test_seeded_reproducibility(self):
        a = TransientCrashModel(seed=3, rate=0.3)
        b = TransientCrashModel(seed=3, rate=0.3)
        decisions_a = [a.decide(ctx(start=float(i))) for i in range(200)]
        decisions_b = [b.decide(ctx(start=float(i))) for i in range(200)]
        assert decisions_a == decisions_b
        assert any(d.failed for d in decisions_a)
        assert any(not d.failed for d in decisions_a)

    def test_fixed_draw_count_per_decision(self):
        """Surviving and failing decisions consume the same number of draws,
        so the stream position never depends on earlier outcomes."""
        model = TransientCrashModel(seed=3, rate=0.5)
        reference = TransientCrashModel(seed=3, rate=0.5)
        # Consume 10 decisions on the model; advance the reference stream by
        # hand the same number of (2-draw) steps and compare positions via
        # the next decision.
        for i in range(10):
            model.decide(ctx(start=float(i)))
        rng = reference.stream_for("worker-0")
        for _ in range(10):
            rng.random()
            rng.random()
        assert model.decide(ctx(start=99.0)) == reference.decide(ctx(start=99.0))

    def test_failure_lands_inside_the_window(self):
        model = TransientCrashModel(seed=1, rate=1.0)
        for i in range(20):
            decision = model.decide(ctx(start=float(i), duration=2.0))
            assert decision.failed
            assert float(i) <= decision.fail_at_hours <= float(i) + 2.0
            assert not decision.worker_dead
            assert decision.kind == "transient"

    def test_speculative_channel_is_independent(self):
        """Speculative decisions draw from their own stream: interleaving
        them must not shift the regular channel's outcomes."""
        plain = TransientCrashModel(seed=5, rate=0.4)
        mixed = TransientCrashModel(seed=5, rate=0.4)
        plain_decisions = [plain.decide(ctx(start=float(i))) for i in range(50)]
        mixed_decisions = []
        for i in range(50):
            mixed.decide(ctx(start=float(i), speculative=True))
            mixed_decisions.append(mixed.decide(ctx(start=float(i))))
        assert plain_decisions == mixed_decisions

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TransientCrashModel(seed=0, rate=1.5)


class TestNodeDeathModel:
    def test_death_time_is_lazy_and_cached(self):
        model = NodeDeathModel(seed=7, mtbf_hours=10.0)
        first = model.death_time("worker-3")
        assert model.death_time("worker-3") == first
        # Other workers' fates are independent of query order.
        other = NodeDeathModel(seed=7, mtbf_hours=10.0)
        other.death_time("worker-9")
        assert other.death_time("worker-3") == first

    def test_run_ending_before_death_survives(self):
        model = NodeDeathModel(seed=7, mtbf_hours=10.0)
        death = model.death_time("worker-0")
        ok = model.decide(ctx(start=0.0, duration=death * 0.5))
        assert not ok.failed

    def test_run_crossing_death_fails_at_death(self):
        model = NodeDeathModel(seed=7, mtbf_hours=10.0)
        death = model.death_time("worker-0")
        dead = model.decide(ctx(start=0.0, duration=death + 1.0))
        assert dead.failed and dead.worker_dead
        assert dead.fail_at_hours == death
        assert dead.kind == "node-death"

    def test_run_starting_after_death_fails_instantly(self):
        model = NodeDeathModel(seed=7, mtbf_hours=10.0)
        death = model.death_time("worker-0")
        late = model.decide(ctx(start=death + 5.0, duration=1.0))
        assert late.failed and late.worker_dead
        assert late.fail_at_hours == death + 5.0  # clamped to its start

    def test_mean_death_time_tracks_mtbf(self):
        model = NodeDeathModel(seed=11, mtbf_hours=48.0)
        deaths = [model.death_time(f"w-{i}") for i in range(2000)]
        assert np.mean(deaths) == pytest.approx(48.0, rel=0.1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NodeDeathModel(seed=0, mtbf_hours=0.0)
        with pytest.raises(ValueError):
            NodeDeathModel(seed=0, shape=-1.0)


class TestCompositeCrashModel:
    def test_earliest_failure_wins(self):
        class At(CrashModel):
            name = "scripted"

            def __init__(self, at):
                super().__init__(seed=0)
                self.at = at

            def decide(self, context):
                return CrashDecision(failed=True, fail_at_hours=self.at, kind="s")

        composite = CompositeCrashModel([At(3.0), At(1.0), At(2.0)])
        decision = composite.decide(ctx(duration=10.0))
        assert decision.failed
        assert decision.fail_at_hours == 1.0


class TestBuildCrashModel:
    def test_kwargs_forwarded(self):
        model = build_crash_model("transient", seed=1, rate=0.42)
        assert model.rate == 0.42

"""Tests for the stochastic fault models and the straggler detector."""

import pytest

from repro.faults import (
    BrownoutModel,
    CompositeFaultModel,
    FaultContext,
    FaultModel,
    InterferenceBurstModel,
    LognormalTailModel,
    NoFaultModel,
    SpeculationPolicy,
    StragglerDetector,
    build_fault_model,
)


def ctx(worker="worker-0", start=0.0, duration=0.1, concurrent=0, n_workers=10, speculative=False):
    return FaultContext(
        worker_id=worker,
        start_hours=start,
        duration_hours=duration,
        concurrent_items=concurrent,
        n_workers=n_workers,
        speculative=speculative,
    )


class TestLognormalTailModel:
    def test_reproducible_for_fixed_seed(self):
        a = LognormalTailModel(seed=7)
        b = LognormalTailModel(seed=7)
        draws_a = [a.stretch(ctx()) for _ in range(50)]
        draws_b = [b.stretch(ctx()) for _ in range(50)]
        assert draws_a == draws_b

    def test_per_worker_streams_are_order_independent(self):
        a = LognormalTailModel(seed=3)
        b = LognormalTailModel(seed=3)
        # Interleave workers differently; each worker's own sequence must
        # be unchanged.
        seq_a = [a.stretch(ctx(worker="w1")) for _ in range(20)]
        for _ in range(20):
            b.stretch(ctx(worker="w2"))
        seq_b = [b.stretch(ctx(worker="w1")) for _ in range(20)]
        assert seq_a == seq_b

    def test_stretch_never_shrinks_and_has_a_heavy_tail(self):
        model = LognormalTailModel(seed=0, rate=1.0, sigma=1.0, scale=2.0)
        draws = [model.stretch(ctx()) for _ in range(400)]
        assert min(draws) >= 1.0
        assert max(draws) > 5.0  # the long tail exists
        assert max(draws) <= model.max_stretch

    def test_clean_runs_keep_exact_duration(self):
        model = LognormalTailModel(seed=0, rate=0.0)
        assert all(model.stretch(ctx()) == 1.0 for _ in range(20))

    def test_speculative_channel_does_not_shift_the_primary_stream(self):
        a = LognormalTailModel(seed=5)
        b = LognormalTailModel(seed=5)
        seq_a = [a.stretch(ctx()) for _ in range(20)]
        seq_b = []
        for i in range(20):
            if i % 3 == 0:
                b.stretch(ctx(speculative=True))  # extra duplicate draws
            seq_b.append(b.stretch(ctx()))
        assert seq_a == seq_b

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LognormalTailModel(rate=1.5)
        with pytest.raises(ValueError):
            LognormalTailModel(sigma=0.0)
        with pytest.raises(ValueError, match="max_stretch"):
            LognormalTailModel(max_stretch=0.5)
        assert LognormalTailModel(max_stretch=1.0).max_stretch == 1.0


class TestInterferenceBurstModel:
    def test_bursts_couple_to_colocated_load(self):
        idle = InterferenceBurstModel(seed=11, base_rate=0.15, coupling=3.0)
        busy = InterferenceBurstModel(seed=11, base_rate=0.15, coupling=3.0)
        idle_draws = [idle.stretch(ctx(concurrent=0)) for _ in range(600)]
        busy_draws = [busy.stretch(ctx(concurrent=10)) for _ in range(600)]
        idle_hits = sum(d > 1.0 for d in idle_draws)
        busy_hits = sum(d > 1.0 for d in busy_draws)
        assert busy_hits > idle_hits * 1.5

    def test_burst_magnitude_is_capped(self):
        model = InterferenceBurstModel(seed=0, base_rate=1.0, max_extra=2.0)
        assert all(model.stretch(ctx()) <= 3.0 for _ in range(200))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InterferenceBurstModel(base_rate=1.5)
        with pytest.raises(ValueError, match="max_extra"):
            InterferenceBurstModel(max_extra=-0.9)
        # A zero cap is legal: every burst collapses to a clean run.
        model = InterferenceBurstModel(seed=0, base_rate=1.0, max_extra=0.0)
        assert all(model.stretch(ctx()) == 1.0 for _ in range(20))


class TestBrownoutModel:
    def test_binary_stretch_values(self):
        model = BrownoutModel(seed=2, mean_healthy_hours=1.0, mean_brownout_hours=0.5, slowdown=3.0)
        draws = {model.stretch(ctx(start=t * 0.25)) for t in range(400)}
        assert draws <= {1.0, 3.0}
        assert draws == {1.0, 3.0}  # both states visited over 100 hours

    def test_state_is_persistent_between_queries(self):
        model = BrownoutModel(seed=4, mean_healthy_hours=2.0, mean_brownout_hours=1.0)
        # Two queries at the same time see the same state.
        assert model.stretch(ctx(start=10.0)) == model.stretch(ctx(start=10.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutModel(mean_healthy_hours=0.0)
        with pytest.raises(ValueError):
            BrownoutModel(slowdown=0.5)


class TestCompositeAndRegistry:
    def test_composite_multiplies(self):
        always = LognormalTailModel(seed=0, rate=1.0, sigma=0.1, scale=1.0)
        model = CompositeFaultModel([always, NoFaultModel()])
        assert not model.is_null
        assert model.stretch(ctx()) > 1.0
        assert CompositeFaultModel([NoFaultModel()]).is_null

    def test_kwargs_forwarded(self):
        model = build_fault_model("lognormal", seed=0, rate=0.5, scale=3.0)
        assert model.rate == 0.5 and model.scale == 3.0


class TestStragglerDetector:
    def test_cold_start_never_fires(self):
        detector = StragglerDetector(SpeculationPolicy(min_history=5))
        for _ in range(4):
            detector.observe(1.0)
        assert detector.threshold() is None
        assert not detector.is_straggler(100.0)

    def test_quantile_threshold(self):
        policy = SpeculationPolicy(quantile=0.5, slack=2.0, min_history=5)
        detector = StragglerDetector(policy)
        for value in (1.0, 1.0, 1.0, 1.0, 1.0):
            detector.observe(value)
        assert detector.threshold() == pytest.approx(2.0)
        assert detector.is_straggler(2.1)
        assert not detector.is_straggler(1.9)

    def test_observe_invalidates_cached_threshold(self):
        detector = StragglerDetector(SpeculationPolicy(quantile=0.5, slack=1.0, min_history=1))
        detector.observe(1.0)
        assert detector.threshold() == pytest.approx(1.0)
        for _ in range(9):
            detector.observe(11.0)
        assert detector.threshold() > 5.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            StragglerDetector().observe(-0.1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SpeculationPolicy(quantile=1.5)
        with pytest.raises(ValueError):
            SpeculationPolicy(slack=0.9)
        with pytest.raises(ValueError):
            SpeculationPolicy(min_history=0)
        with pytest.raises(ValueError):
            SpeculationPolicy(max_clones_per_item=0)


class TestFaultModelInterface:
    def test_custom_model_subclassing(self):
        class Doubler(FaultModel):
            name = "doubler"

            def stretch(self, context):
                return 2.0

        model = Doubler()
        assert model.stretch(ctx()) == 2.0
        assert not model.is_null

"""Unit tests for the gray-failure partition models."""

import pytest

from repro.cloud import Cluster
from repro.core import ClusterEventLoop, WorkRequest
from repro.faults import (
    CompositePartitionModel,
    FlakyReconnectModel,
    PartitionContext,
    PartitionDecision,
    PartitionModel,
    PartitionOutageModel,
    StallModel,
)


def ctx(worker="worker-0", start=0.0, duration=1.0, speculative=False):
    return PartitionContext(
        worker_id=worker,
        start_hours=start,
        duration_hours=duration,
        speculative=speculative,
    )


@pytest.mark.parametrize(
    "model_cls,kind",
    [
        (StallModel, "stall"),
        (PartitionOutageModel, "partition"),
        (FlakyReconnectModel, "flaky"),
    ],
)


class TestActiveModels:
    def test_seeded_reproducibility(self, model_cls, kind):
        a = model_cls(seed=3, rate=0.4)
        b = model_cls(seed=3, rate=0.4)
        decisions_a = [a.decide(ctx(start=float(i))) for i in range(200)]
        decisions_b = [b.decide(ctx(start=float(i))) for i in range(200)]
        assert decisions_a == decisions_b
        assert any(d.delayed for d in decisions_a)
        assert any(not d.delayed for d in decisions_a)

    def test_delayed_decisions_carry_the_kind_and_a_positive_delay(
        self, model_cls, kind
    ):
        model = model_cls(seed=1, rate=1.0)
        for i in range(20):
            decision = model.decide(ctx(start=float(i)))
            assert decision.delayed
            assert decision.kind == kind
            assert decision.delay_hours > 0
            assert 0.0 <= decision.silent_fraction <= 1.0

    def test_fixed_draw_count_per_decision(self, model_cls, kind):
        """Responsive and delayed decisions consume the same number of
        draws, so the stream position never depends on earlier outcomes."""
        model = model_cls(seed=3, rate=0.5)
        reference = model_cls(seed=3, rate=0.5)
        for i in range(10):
            model.decide(ctx(start=float(i)))
        rng = reference.stream_for("worker-0")
        for _ in range(10):
            # Every model draws exactly three times per decision.
            rng.random()
            if model_cls is FlakyReconnectModel:
                rng.integers(1, reference.max_blips + 1)
                rng.exponential(1.0)
            else:
                rng.exponential(1.0)
                rng.random()
        assert model.decide(ctx(start=99.0)) == reference.decide(ctx(start=99.0))

    def test_speculative_channel_is_independent(self, model_cls, kind):
        plain = model_cls(seed=5, rate=0.4)
        mixed = model_cls(seed=5, rate=0.4)
        plain_decisions = [plain.decide(ctx(start=float(i))) for i in range(50)]
        mixed_decisions = []
        for i in range(50):
            mixed.decide(ctx(start=float(i), speculative=True))
            mixed_decisions.append(mixed.decide(ctx(start=float(i))))
        assert plain_decisions == mixed_decisions

    def test_per_worker_streams_are_query_order_independent(self, model_cls, kind):
        a = model_cls(seed=9, rate=0.5)
        b = model_cls(seed=9, rate=0.5)
        # Interleave another worker's queries on b only.
        a_decisions = [a.decide(ctx(worker="worker-2", start=float(i))) for i in range(30)]
        b_decisions = []
        for i in range(30):
            b.decide(ctx(worker="worker-7", start=float(i)))
            b_decisions.append(b.decide(ctx(worker="worker-2", start=float(i))))
        assert a_decisions == b_decisions

    def test_rate_validation(self, model_cls, kind):
        with pytest.raises(ValueError):
            model_cls(seed=0, rate=1.5)


class TestFlakyReconnectModel:
    def test_silence_only_at_report_time(self):
        model = FlakyReconnectModel(seed=2, rate=1.0)
        decision = model.decide(ctx())
        assert decision.silent_fraction == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FlakyReconnectModel(seed=0, blip_hours=0.0)
        with pytest.raises(ValueError):
            FlakyReconnectModel(seed=0, max_blips=0)


class TestCompositePartitionModel:
    def test_longest_silence_dominates(self):
        class Fixed(PartitionModel):
            name = "fixed"

            def __init__(self, delay):
                super().__init__(seed=0)
                self.delay = delay

            def decide(self, context):
                if self.delay is None:
                    return PartitionDecision(delayed=False)
                return PartitionDecision(
                    delayed=True, delay_hours=self.delay, kind="stall"
                )

        composite = CompositePartitionModel(
            [Fixed(0.5), Fixed(None), Fixed(2.0), Fixed(1.0)]
        )
        decision = composite.decide(ctx())
        assert decision.delayed and decision.delay_hours == 2.0


class TestDelayedReportCounts:
    def test_loop_counts_delayed_reports_by_kind(self):
        decisions = iter(
            [
                PartitionDecision(delayed=True, delay_hours=0.5, kind="stall"),
                PartitionDecision(delayed=True, delay_hours=1.5, kind="partition"),
                PartitionDecision(delayed=True, delay_hours=0.1, kind="flaky"),
            ]
        )

        class Scripted(PartitionModel):
            name = "scripted"

            def decide(self, context):
                return next(decisions)

        cluster = Cluster(n_workers=3, seed=0)
        loop = ClusterEventLoop(cluster, partition_model=Scripted(seed=0))
        request = WorkRequest(config=None, budget=1, vms=[], iteration=0)
        for vm in cluster.workers:
            loop.submit(request, vm, 1.0)
        counters = loop.counters
        assert counters.total("loop.reports.delayed") == 3
        assert counters.labelled("loop.reports.delayed") == {
            "loop.reports.delayed{kind=flaky}": 1.0,
            "loop.reports.delayed{kind=partition}": 1.0,
            "loop.reports.delayed{kind=stall}": 1.0,
        }
        assert counters.total("loop.reports.delay_hours") == pytest.approx(2.1)

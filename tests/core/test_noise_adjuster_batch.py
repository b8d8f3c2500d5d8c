"""Property test: ``NoiseAdjuster.adjust_many`` == per-sample ``adjust``.

The batched path runs one scaler transform and one forest ``predict`` over
every sample the model applies to; the result must be bit-for-bit the list
of per-sample :meth:`~repro.core.noise_adjuster.NoiseAdjuster.adjust`
values — same ±30% clip, same division — with crashed, telemetry-less and
unstable samples (and everything before the first training round) keeping
their raw values.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cloud.telemetry import TELEMETRY_METRICS
from repro.configspace import ConfigurationSpace, FloatParameter
from repro.core.datastore import Sample
from repro.core.noise_adjuster import NoiseAdjuster


def make_samples(rng, config, workers, n, noise, crash_p=0.0, blind_p=0.0):
    samples = []
    for _ in range(n):
        error = float(rng.normal(0.0, noise))
        telemetry = rng.random(len(TELEMETRY_METRICS))
        telemetry[0] = error
        samples.append(
            Sample(
                config=config,
                worker_id=str(rng.choice(workers)),
                value=float(1000.0 * (1.0 + error)),
                objective_unit="tx/s",
                iteration=0,
                budget=1,
                crashed=bool(rng.random() < crash_p),
                telemetry=None if rng.random() < blind_p else telemetry,
            )
        )
    return samples


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_workers=st.integers(1, 30),
    n_configs=st.integers(0, 5),
    per_config=st.integers(2, 8),
    n_query=st.integers(0, 16),
    noise=st.sampled_from([0.01, 0.1, 0.6]),
    n_trees=st.integers(1, 8),
    is_outlier=st.booleans(),
)
def test_adjust_many_equals_per_sample_adjust(
    seed, n_workers, n_configs, per_config, n_query, noise, n_trees, is_outlier
):
    rng = np.random.default_rng(seed)
    space = ConfigurationSpace([FloatParameter("x", 0.0, 1.0)], seed=seed)
    workers = [f"worker-{i}" for i in range(n_workers)]
    adjuster = NoiseAdjuster(worker_ids=workers, n_trees=n_trees, seed=seed)
    groups = [
        make_samples(rng, space.sample(rng), workers, per_config, noise)
        for _ in range(n_configs)
    ]
    adjuster.train(groups)
    # Query samples may come from workers the model never saw (all-zero
    # one-hot) and may be crashed or carry no telemetry.
    query = make_samples(
        rng, space.sample(rng), workers + ["worker-new"], n_query, noise,
        crash_p=0.2, blind_p=0.2,
    )
    expected = [adjuster.adjust(sample, is_outlier=is_outlier) for sample in query]
    got = adjuster.adjust_many(query, is_outlier=is_outlier)
    assert [type(value) for value in got] == [float] * len(query)
    assert np.array(got).tobytes() == np.array(expected, dtype=float).tobytes()
    for sample, value in zip(query, got):
        if is_outlier or sample.crashed or sample.telemetry is None or not adjuster.is_trained:
            assert value == sample.value

"""Microbenchmark — vectorized all-trees-at-once forest training throughput.

Like the surrogate-inference benchmark, this guards a *performance property*
of the reproduction rather than a paper result: the level-synchronous
builder (:mod:`repro.ml.treebuilder`) must train the SMAC-shaped 24-tree
forest at n=1000 rows at least ``SPEEDUP_TARGET``x faster than the per-node
pointer reference (``fit_pointer``), and the end-to-end ``SMACOptimizer.ask()``
path — surrogate fit, candidate generation, batched prediction, EI — must
stay inside an absolute latency budget so a regression in any stage fails CI
even if the others got faster.  The warm ask is timed on an all-float space
and on the 21-knob PostgreSQL space (``warm_ask_mixed_seconds``), whose
integer and boolean knobs the candidate pool handles differently.

Two study-shaped fits are timed as well: the noise adjuster's 30x525 matrix
(25 telemetry columns plus a 500-worker one-hot, ``min_samples_leaf=2``),
whose speedup over the pointer reference is recorded as ``wide_speedup``,
and a 60x21 SMAC surrogate refit.  Every shape's tracemalloc peak during
one fit (``fit_peak_mb``) is deterministic for fixed inputs and is
capped at ``PEAK_CAP_FACTOR`` times the peak of the per-feature builder
the feature-blocked one replaced, so the builder's scratch stays bounded.

The fits a paper-scale study makes are timed last (``STUDY_SHAPES``): the
noise adjuster's forest at 30 and 90 rows over 25 telemetry columns plus a
10-worker one-hot, and a SMAC refit on 40 encoded PostgreSQL configurations.
Their median fit times (``study_fit_ms``) and tracemalloc peaks
(``study_fit_peak_mb``) are reported only, not capped.

The two fits are bit-for-bit equivalent (asserted here on the emitted node
tables, and exhaustively in ``tests/ml/test_fit_equivalence.py``), so the
speedup compares identical work.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_forest_fit.py -q -s
"""

import time
import tracemalloc

import numpy as np
from bench_artifacts import write_bench_json

from repro.configspace import ConfigurationSpace, FloatParameter
from repro.ml.forest import RandomForestRegressor
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.optimizers import SMACOptimizer
from repro.systems.postgres.knobs import build_postgres_knob_space

N_TREES = 24
N_TRAIN = 1000
N_FEATURES = 12
SPEEDUP_TARGET = 5.0
WIDE_SPEEDUP_TARGET = 10.0

#: tracemalloc peak (MiB) of one fit under the per-feature builder (one
#: scan and one partition per level and feature, constant columns scanned),
#: as this benchmark recorded it in ``benchmarks/baselines/BENCH_FOREST_FIT.json``
#: before the blocked builder replaced it; the blocked builder may use at
#: most ``PEAK_CAP_FACTOR`` times as much.
PER_FEATURE_PEAK_MB = {"n1000_d12": 17.30, "n30_d525": 3.52, "n60_d21": 0.84}
PEAK_CAP_FACTOR = 1.15

#: End-to-end ask() budgets, deliberately loose (>10x the locally measured
#: latency) so CI machine jitter cannot flip them while a return to per-node
#: Python training (~seconds at this shape) still fails loudly.
ASK_N_OBSERVATIONS = 200
ASK_COLD_BUDGET_SECONDS = 1.0  # surrogate refit + candidates + predict + EI
ASK_WARM_BUDGET_SECONDS = 0.25  # cached surrogate: candidates + predict + EI

#: Timed fits per study shape; ``study_fit_ms`` is their median.
STUDY_FIT_REPEATS = 15


def _forest(seed=0):
    return RandomForestRegressor(
        n_estimators=N_TREES,
        min_samples_leaf=1,
        min_samples_split=3,
        max_features=5.0 / 6.0,
        seed=seed,
    )


def _noise_forest(seed=0):
    """The noise adjuster's forest (see ``repro.core.noise_adjuster``)."""
    return RandomForestRegressor(n_estimators=N_TREES, min_samples_leaf=2, seed=seed)


def _smac_problem(n, d):
    rng = np.random.default_rng(0)
    X = rng.random((n, d))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 3] ** 2 + rng.normal(0.0, 0.3, n)
    return X, y


def _noise_problem(n=30, n_workers=500):
    """Standardised telemetry plus a worker one-hot, as the noise adjuster fits.

    Called with the 10-worker fleet of a paper-scale study, every one-hot
    column is two-valued and most rows share a worker with others.
    """
    rng = np.random.default_rng(1)
    telemetry = rng.normal(size=(n, 25))
    workers = [f"worker-{i}" for i in range(n_workers)]
    encoder = OneHotEncoder(categories=workers).fit([])
    one_hot = np.stack(
        [encoder.transform_one(workers[i]) for i in rng.integers(0, n_workers, size=n)]
    )
    X = StandardScaler().fit_transform(np.hstack([telemetry, one_hot]))
    y = 0.05 * rng.normal(size=n) + 0.02 * telemetry[:, 0]
    return X, y


def _postgres_problem(n):
    """Encoded PostgreSQL knob configurations, as a SMAC refit sees them."""
    space = build_postgres_knob_space(seed=0)
    configs = space.sample_batch(n, rng=np.random.default_rng(2))
    y = np.array([_postgres_cost(config) for config in configs])
    return space.encode_batch(configs), y + np.random.default_rng(3).normal(0.0, 0.01, n)


#: shape name -> (forest factory, problem factory)
FIT_SHAPES = {
    "n1000_d12": (_forest, lambda: _smac_problem(N_TRAIN, N_FEATURES)),
    "n30_d525": (_noise_forest, _noise_problem),
    "n60_d21": (_forest, lambda: _smac_problem(60, 21)),
}


#: The fits of a paper-scale study (see ``repro.core.noise_adjuster`` and
#: ``repro.optimizers.smac``): shape name -> (forest factory, problem factory).
STUDY_SHAPES = {
    "noise_30x35": (_noise_forest, lambda: _noise_problem(30, 10)),
    "noise_90x35": (_noise_forest, lambda: _noise_problem(90, 10)),
    "smac_40x21": (_forest, lambda: _postgres_problem(40)),
}


def _fit_peak_mb(make_forest, X, y):
    """tracemalloc peak (MiB) of one fit — deterministic for fixed inputs."""
    forest = make_forest(seed=0)
    tracemalloc.start()
    try:
        forest.fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _assert_same_trees(fast, ref):
    for tree_a, tree_b in zip(fast.trees_, ref.trees_):
        assert np.array_equal(tree_a.flat.value, tree_b.flat.value)
        assert np.array_equal(tree_a.flat.left, tree_b.flat.left)


def _best_of(fn, repeats):
    """Fastest of ``repeats`` calls, and the last call's result."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _median_fit_ms(make_forest, X, y, repeats):
    """Median wall time (ms) of ``repeats`` fits of a fresh forest."""
    times = []
    for _ in range(repeats):
        forest = make_forest(seed=0)
        t0 = time.perf_counter()
        forest.fit(X, y)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def test_bench_forest_fit(once):
    def run():
        X, y = _smac_problem(N_TRAIN, N_FEATURES)
        vectorized, fast = _best_of(lambda: _forest(seed=0).fit(X, y), repeats=3)
        pointer, ref = _best_of(lambda: _forest(seed=0).fit_pointer(X, y), repeats=2)
        # The ratios only mean something if both paths build the same trees.
        _assert_same_trees(fast, ref)

        X_wide, y_wide = _noise_problem()
        wide, fast = _best_of(lambda: _noise_forest(seed=0).fit(X_wide, y_wide), repeats=5)
        wide_pointer, ref = _best_of(
            lambda: _noise_forest(seed=0).fit_pointer(X_wide, y_wide), repeats=1
        )
        _assert_same_trees(fast, ref)

        X_small, y_small = _smac_problem(60, 21)
        small, _ = _best_of(lambda: _forest(seed=0).fit(X_small, y_small), repeats=10)

        peaks = {
            name: _fit_peak_mb(make_forest, *make_problem())
            for name, (make_forest, make_problem) in FIT_SHAPES.items()
        }
        study_ms = {}
        study_peaks = {}
        for name, (make_forest, make_problem) in STUDY_SHAPES.items():
            X_study, y_study = make_problem()
            study_ms[name] = _median_fit_ms(
                make_forest, X_study, y_study, STUDY_FIT_REPEATS
            )
            study_peaks[name] = _fit_peak_mb(make_forest, X_study, y_study)
        return {
            "vectorized_seconds": vectorized,
            "pointer_seconds": pointer,
            "speedup": pointer / vectorized,
            "wide_seconds": wide,
            "wide_pointer_seconds": wide_pointer,
            "wide_speedup": wide_pointer / wide,
            "smac_60x21_seconds": small,
            "fit_peak_mb": peaks,
            "study_fit_ms": study_ms,
            "study_fit_peak_mb": study_peaks,
        }

    result = once(run)
    caps = {
        name: PEAK_CAP_FACTOR * peak for name, peak in PER_FEATURE_PEAK_MB.items()
    }

    print(f"\nForest training ({N_TREES} trees, n={N_TRAIN}, d={N_FEATURES})")
    print(f"  pointer reference fit: {result['pointer_seconds'] * 1e3:8.1f} ms")
    print(f"  vectorized fit:        {result['vectorized_seconds'] * 1e3:8.1f} ms")
    print(f"  speedup:               {result['speedup']:8.1f}x")
    print(f"Noise-adjuster fit ({N_TREES} trees, 30x525 one-hot, leaf 2)")
    print(f"  pointer reference fit: {result['wide_pointer_seconds'] * 1e3:8.1f} ms")
    print(f"  vectorized fit:        {result['wide_seconds'] * 1e3:8.1f} ms")
    print(f"  wide speedup:          {result['wide_speedup']:8.1f}x")
    print(f"SMAC refit ({N_TREES} trees, 60x21): {result['smac_60x21_seconds'] * 1e3:.1f} ms")
    for name, peak in result["fit_peak_mb"].items():
        print(f"  fit peak {name:10s} {peak:6.2f} MiB (cap {caps[name]:.2f})")
    print(f"Study-shaped fits ({N_TREES} trees, median of {STUDY_FIT_REPEATS})")
    for name, ms in result["study_fit_ms"].items():
        peak = result["study_fit_peak_mb"][name]
        print(f"  {name:12s} {ms:7.2f} ms  peak {peak:5.2f} MiB")
    print(f"  total        {sum(result['study_fit_ms'].values()):7.2f} ms")

    write_bench_json(
        "forest_fit",
        {
            "speedup": result["speedup"],
            "speedup_target": SPEEDUP_TARGET,
            "vectorized_seconds": result["vectorized_seconds"],
            "pointer_seconds": result["pointer_seconds"],
            "wide_speedup": result["wide_speedup"],
            "wide_speedup_target": WIDE_SPEEDUP_TARGET,
            "wide_seconds": result["wide_seconds"],
            "wide_pointer_seconds": result["wide_pointer_seconds"],
            "smac_60x21_seconds": result["smac_60x21_seconds"],
            "fit_peak_mb": result["fit_peak_mb"],
            "fit_peak_mb_cap": caps,
            "study_fit_ms": result["study_fit_ms"],
            "study_fit_ms_total": sum(result["study_fit_ms"].values()),
            "study_fit_peak_mb": result["study_fit_peak_mb"],
        },
        parameters={
            "n_trees": N_TREES,
            "n_train": N_TRAIN,
            "n_features": N_FEATURES,
            "fit_shapes": sorted(FIT_SHAPES),
            "study_shapes": sorted(STUDY_SHAPES),
            "study_fit_repeats": STUDY_FIT_REPEATS,
        },
    )

    assert result["speedup"] >= SPEEDUP_TARGET, (
        f"vectorized forest fit is only {result['speedup']:.1f}x faster than "
        f"the pointer reference (target {SPEEDUP_TARGET}x)"
    )
    assert result["wide_speedup"] >= WIDE_SPEEDUP_TARGET, (
        f"noise-adjuster-shaped fit is only {result['wide_speedup']:.1f}x faster "
        f"than the pointer reference (target {WIDE_SPEEDUP_TARGET}x)"
    )
    for name, cap in caps.items():
        peak = result["fit_peak_mb"][name]
        assert peak <= cap, f"{name} fit peaked at {peak:.2f} MiB, over its {cap:.2f} MiB cap"


def _warmed_optimizer(space, cost):
    """SMAC on ``space`` told ``ASK_N_OBSERVATIONS`` noisy random samples,
    with the initial design consumed so every later ask is modelled."""
    opt = SMACOptimizer(space, seed=0, n_initial_design=1)
    rng = np.random.default_rng(1)
    for config in space.sample_batch(ASK_N_OBSERVATIONS, rng=rng):
        opt.tell(config, float(cost(config) + rng.normal(0.0, 0.01)))
    opt.ask()
    return opt


def _postgres_cost(config):
    cost = (np.log(config["shared_buffers_mb"]) / np.log(16_384) - 0.6) ** 2
    cost += (config["checkpoint_completion_target"] - 0.7) ** 2
    cost += 0.05 * (config["max_parallel_workers_per_gather"] - 4) ** 2 / 16
    return cost + (0.0 if config["synchronous_commit"] else 0.03)


def test_bench_ask_latency(once):
    def run():
        space = ConfigurationSpace(
            [FloatParameter(f"x{i}", 0.0, 1.0) for i in range(N_FEATURES)], seed=0
        )
        opt = _warmed_optimizer(
            space, lambda c: (c["x0"] - 0.7) ** 2 + (c["x3"] - 0.2) ** 2
        )

        def cold_ask():
            opt._last_fit = None
            opt.ask()

        cold, _ = _best_of(cold_ask, repeats=3)
        warm, _ = _best_of(opt.ask, repeats=5)
        mixed = _warmed_optimizer(build_postgres_knob_space(seed=0), _postgres_cost)
        warm_mixed, _ = _best_of(mixed.ask, repeats=5)
        return {
            "cold_ask_seconds": cold,
            "warm_ask_seconds": warm,
            "warm_ask_mixed_seconds": warm_mixed,
        }

    result = once(run)

    print(f"\nSMAC ask() latency ({ASK_N_OBSERVATIONS} observations, d={N_FEATURES})")
    print(
        f"  cold (refit + candidates + EI): {result['cold_ask_seconds'] * 1e3:8.1f} ms"
        f"  (budget {ASK_COLD_BUDGET_SECONDS * 1e3:.0f} ms)"
    )
    print(
        f"  warm (cached surrogate):        {result['warm_ask_seconds'] * 1e3:8.1f} ms"
        f"  (budget {ASK_WARM_BUDGET_SECONDS * 1e3:.0f} ms)"
    )
    print(
        f"  warm, 21-knob postgres space:   {result['warm_ask_mixed_seconds'] * 1e3:8.1f} ms"
        f"  (budget {ASK_WARM_BUDGET_SECONDS * 1e3:.0f} ms)"
    )

    write_bench_json(
        "ask_latency",
        {
            "cold_ask_seconds": result["cold_ask_seconds"],
            "cold_budget_seconds": ASK_COLD_BUDGET_SECONDS,
            "warm_ask_seconds": result["warm_ask_seconds"],
            "warm_ask_mixed_seconds": result["warm_ask_mixed_seconds"],
            "warm_budget_seconds": ASK_WARM_BUDGET_SECONDS,
        },
        parameters={
            "n_observations": ASK_N_OBSERVATIONS,
            "n_features": N_FEATURES,
            "n_trees": N_TREES,
            "mixed_space": "postgres",
        },
    )

    assert result["cold_ask_seconds"] <= ASK_COLD_BUDGET_SECONDS
    assert result["warm_ask_seconds"] <= ASK_WARM_BUDGET_SECONDS
    assert result["warm_ask_mixed_seconds"] <= ASK_WARM_BUDGET_SECONDS

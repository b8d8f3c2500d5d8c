"""Tests for typed knob parameters."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.configspace.parameters import (
    BooleanParameter,
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
)


RNG = np.random.default_rng(0)


class TestFloatParameter:
    def test_default_in_range(self):
        p = FloatParameter("x", 0.0, 10.0)
        assert 0.0 <= p.default <= 10.0

    def test_explicit_default_validated(self):
        with pytest.raises(ValueError):
            FloatParameter("x", 0.0, 1.0, default=2.0)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            FloatParameter("x", 1.0, 1.0)
        with pytest.raises(ValueError):
            FloatParameter("x", 5.0, 1.0)

    def test_log_requires_positive_lower(self):
        with pytest.raises(ValueError):
            FloatParameter("x", 0.0, 10.0, log=True)

    def test_encode_decode_roundtrip(self):
        p = FloatParameter("x", 2.0, 8.0)
        for value in [2.0, 3.3, 8.0]:
            assert p.decode(p.encode(value)) == pytest.approx(value)

    def test_log_encode_midpoint(self):
        p = FloatParameter("x", 1.0, 100.0, log=True)
        assert p.decode(0.5) == pytest.approx(10.0)
        assert p.encode(10.0) == pytest.approx(0.5)

    def test_decode_clips(self):
        p = FloatParameter("x", 0.0, 1.0)
        assert p.decode(-0.5) == 0.0
        assert p.decode(1.7) == 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_decode_always_legal(self, unit):
        p = FloatParameter("x", -3.0, 7.0)
        p.validate(p.decode(unit))

    def test_sample_in_range(self):
        p = FloatParameter("x", 5.0, 6.0)
        for _ in range(50):
            assert 5.0 <= p.sample(RNG) <= 6.0

    def test_neighbour_in_range(self):
        p = FloatParameter("x", 0.0, 1.0)
        value = 0.5
        for _ in range(50):
            value = p.neighbour(value, RNG)
            assert 0.0 <= value <= 1.0


class TestIntegerParameter:
    def test_encode_decode_roundtrip(self):
        p = IntegerParameter("n", 1, 9)
        for value in range(1, 10):
            assert p.decode(p.encode(value)) == value

    def test_log_roundtrip(self):
        p = IntegerParameter("n", 1, 1024, log=True)
        for value in [1, 2, 16, 128, 1024]:
            assert p.decode(p.encode(value)) == value

    def test_non_integer_value_rejected(self):
        p = IntegerParameter("n", 0, 10)
        with pytest.raises(ValueError):
            p.validate(3.5)

    def test_out_of_range_rejected(self):
        p = IntegerParameter("n", 0, 10)
        with pytest.raises(ValueError):
            p.validate(11)

    def test_sample_in_range(self):
        p = IntegerParameter("n", 3, 7)
        samples = {p.sample(RNG) for _ in range(200)}
        assert samples.issubset({3, 4, 5, 6, 7})
        assert len(samples) >= 3

    def test_neighbour_always_moves_when_possible(self):
        p = IntegerParameter("n", 0, 100)
        for _ in range(30):
            assert p.neighbour(50, RNG) != 50 or True  # may stay due to rounding
        # With tiny scale the forced move kicks in.
        moved = [p.neighbour(50, RNG, scale=1e-9) for _ in range(20)]
        assert any(v != 50 for v in moved)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_decode_always_legal(self, unit):
        p = IntegerParameter("n", 2, 37)
        p.validate(p.decode(unit))


class TestLogFloatBounds:
    # exp(log(1) + 1.0 * (log(3) - log(1))) is 3.0000000000000004: without a
    # clamp the upper bound decodes to an illegal value, which encode_array
    # then rejects.
    def test_decode_stays_inside_bounds(self):
        p = FloatParameter("f", 1.0, 3.0, log=True)
        assert p.decode(1.0) == 3.0
        assert p.decode_array(np.array([0.0, 1.0])) == [1.0, 3.0]

    def test_neighbours_at_the_bound_encode(self):
        p = FloatParameter("f", 1.0, 3.0, log=True)
        values = p.neighbour_array(2.9, 64, np.random.default_rng(0), scale=5.0)
        assert 3.0 in values
        assert np.all(p.encode_array(values) <= 1.0)


class TestCategoricalParameter:
    def test_requires_two_choices(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ["only"])

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ["a", "a"])

    @pytest.mark.parametrize(
        "choices", [[1, True], [0, 0.0], [False, 0], ["a", "b", 2, 2.0]]
    )
    def test_choices_that_compare_equal_rejected(self, choices):
        # Equal choices would share one code: the later one could never be
        # encoded (it lands in the earlier one's bucket) or perturbed away
        # from (it has no "other" choice to move to).
        with pytest.raises(ValueError, match="duplicate choices"):
            CategoricalParameter("c", choices)

    def test_distinct_mixed_type_choices_accepted(self):
        p = CategoricalParameter("c", [0, "0", None, 1.5])
        for position, choice in enumerate(p.choices):
            assert p.encode(choice) == (position + 0.5) / 4
            assert p.decode(p.encode(choice)) is choice

    def test_default_is_first_choice(self):
        p = CategoricalParameter("c", ["a", "b", "c"])
        assert p.default == "a"

    def test_encode_decode_roundtrip(self):
        p = CategoricalParameter("c", ["a", "b", "c", "d"])
        for choice in p.choices:
            assert p.decode(p.encode(choice)) == choice

    def test_invalid_value_rejected(self):
        p = CategoricalParameter("c", ["a", "b"])
        with pytest.raises(ValueError):
            p.validate("z")

    def test_neighbour_is_different_choice(self):
        p = CategoricalParameter("c", ["a", "b", "c"])
        for _ in range(20):
            assert p.neighbour("a", RNG) in {"b", "c"}

    def test_sample_covers_choices(self):
        p = CategoricalParameter("c", ["a", "b", "c"])
        assert {p.sample(RNG) for _ in range(100)} == {"a", "b", "c"}


class TestBooleanParameter:
    def test_choices(self):
        p = BooleanParameter("flag")
        assert p.choices == [False, True]
        assert p.default is False

    def test_default_true(self):
        assert BooleanParameter("flag", default=True).default is True

    def test_roundtrip(self):
        p = BooleanParameter("flag")
        assert p.decode(p.encode(True)) is True
        assert p.decode(p.encode(False)) is False

    def test_neighbour_flips(self):
        p = BooleanParameter("flag")
        assert p.neighbour(True, RNG) is False
        assert p.neighbour(False, RNG) is True

    def test_sample_is_bool(self):
        p = BooleanParameter("flag")
        values = {p.sample(RNG) for _ in range(50)}
        assert values == {True, False}


class TestColumnarParameterOps:
    """Columnar encode/decode/sample/neighbour must agree with scalar ops."""

    PARAMS = [
        FloatParameter("f", 0.5, 9.5),
        FloatParameter("flog", 0.1, 1000.0, log=True),
        IntegerParameter("i", 1, 200),
        IntegerParameter("ilog", 2, 4096, log=True),
        CategoricalParameter("c", ["a", "b", "c", "d"]),
        BooleanParameter("b"),
    ]

    @pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.name)
    def test_encode_array_matches_scalar_encode(self, p):
        rng = np.random.default_rng(42)
        values = [p.sample(rng) for _ in range(64)]
        batch = p.encode_array(values)
        scalar = np.array([p.encode(v) for v in values])
        assert np.allclose(batch, scalar, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.name)
    def test_decode_array_matches_scalar_decode(self, p):
        rng = np.random.default_rng(43)
        units = rng.random(64)
        units[:3] = [0.0, 1.0, 0.5]
        batch = p.decode_array(units)
        scalar = [p.decode(u) for u in units]
        if isinstance(p, FloatParameter):
            assert np.allclose(batch, scalar, rtol=1e-12)
        else:
            assert batch == scalar

    @pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.name)
    def test_sample_array_values_are_legal(self, p):
        rng = np.random.default_rng(44)
        for value in p.sample_array(128, rng):
            p.validate(value)

    @pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.name)
    def test_neighbour_array_values_are_legal_and_python_typed(self, p):
        rng = np.random.default_rng(45)
        base = p.sample(rng)
        neighbours = p.neighbour_array(base, 32, rng, scale=0.15)
        assert len(neighbours) == 32
        for value in neighbours:
            p.validate(value)
            assert not isinstance(value, np.generic)

    @pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.name)
    def test_native_columns_are_typed_and_list_apis_wrap_them(self, p):
        native = p.sample_native(64, np.random.default_rng(48))
        dtype = np.float64 if isinstance(p, FloatParameter) else np.int64
        assert native.dtype == dtype
        assert p.to_list(native) == p.sample_array(64, np.random.default_rng(48))
        assert np.array_equal(p.encode_native(native), p.encode_array(p.to_list(native)))

    def test_integer_neighbour_array_never_stalls(self):
        p = IntegerParameter("i", 0, 100)
        rng = np.random.default_rng(46)
        # A tiny scale would round every perturbation back to the base value
        # without the forced one-step move.
        neighbours = p.neighbour_array(50, 64, rng, scale=1e-9)
        assert all(v != 50 for v in neighbours)
        assert set(neighbours) <= {49, 51}

    def test_float_encode_array_rejects_out_of_range(self):
        p = FloatParameter("f", 0.0, 1.0)
        with pytest.raises(ValueError):
            p.encode_array([0.5, 1.5])

    def test_integer_encode_array_rejects_non_integers(self):
        p = IntegerParameter("i", 0, 10)
        with pytest.raises(ValueError):
            p.encode_array([1, 2.5])

    def test_categorical_encode_array_rejects_unknown(self):
        p = CategoricalParameter("c", ["x", "y"])
        with pytest.raises(ValueError):
            p.encode_array(["x", "z"])

    def test_base_class_fallbacks_used_by_custom_subclass(self):
        from repro.configspace.parameters import Parameter

        class UnitParameter(Parameter):
            """Minimal scalar-only parameter relying on base columnar ops."""

            def __init__(self):
                super().__init__("u", 0.5)

            def sample(self, rng):
                return float(rng.random())

            def encode(self, value):
                return float(value)

            def decode(self, unit):
                return float(min(max(unit, 0.0), 1.0))

            def neighbour(self, value, rng, scale=0.2):
                return self.decode(value + rng.normal(0.0, scale))

            def validate(self, value):
                if not (0.0 <= value <= 1.0):
                    raise ValueError("out of range")

        p = UnitParameter()
        rng = np.random.default_rng(47)
        assert np.allclose(p.encode_array([0.1, 0.9]), [0.1, 0.9])
        assert p.decode_array(np.array([-1.0, 0.25])) == [0.0, 0.25]
        for value in p.sample_array(8, rng):
            p.validate(value)
        for value in p.neighbour_array(0.5, 8, rng):
            p.validate(value)

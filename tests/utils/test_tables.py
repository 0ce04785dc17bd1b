"""Tests for :mod:`repro.utils.tables`."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.deployment.knowledge import DeploymentKnowledge
from repro.deployment.models import paper_deployment_model
from repro.utils.tables import LookupTable1D


class TestConstruction:
    def test_from_function_knot_count(self):
        table = LookupTable1D.from_function(np.sin, 0.0, np.pi, 10)
        assert table.num_intervals == 10
        assert table.knots.shape == (11,)
        assert table.domain == (0.0, pytest.approx(np.pi))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            LookupTable1D(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]))

    def test_rejects_non_monotone_knots(self):
        with pytest.raises(ValueError):
            LookupTable1D(np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 2.0]))

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError):
            LookupTable1D(np.array([0.0]), np.array([1.0]))

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            LookupTable1D.from_function(np.sin, 1.0, 1.0, 5)

    def test_knots_are_read_only(self):
        table = LookupTable1D.from_function(np.cos, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            table.knots[0] = 99.0


def _assert_bitwise_equal(actual, expected):
    """Equal bits, except that any NaN matches any NaN."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(
        actual[~nan].view(np.int64), expected[~nan].view(np.int64)
    )


def _interp_reference(table, z):
    lo, hi = table.domain
    return np.interp(np.clip(z, lo, hi), table.knots, table.values)


#: Queries every table must answer like np.interp: both signed zeros and
#: the non-finite values.
_SPECIAL = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])


class TestOneEvaluator:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        lo=st.floats(-1e3, 1e3),
        width=st.floats(1e-2, 1e4),
        intervals=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50),
    )
    def test_equals_interp_bitwise(self, lo, width, intervals, seed, queries):
        rng = np.random.default_rng(seed)

        def values(xs):
            # Rough values with repeats (some zero slopes) and signed zeros.
            ys = rng.uniform(-1e3, 1e3, xs.size) * rng.choice([1e-300, 1.0, 1e6])
            ys[rng.random(xs.size) < 0.1] = 0.0
            ys[rng.random(xs.size) < 0.1] = -0.0
            flat = rng.random(xs.size) < 0.1
            ys[flat] = ys[0]
            return ys

        table = LookupTable1D.from_function(values, lo, lo + width, intervals)
        knots = np.asarray(table.knots)
        span = rng.uniform(0.0, 2.0 * width, 200)
        z = np.concatenate(
            [
                knots,
                np.nextafter(knots, -np.inf),
                np.nextafter(knots, np.inf),
                knots[0] - span,
                knots[-1] + span,
                rng.uniform(knots[0], knots[-1], 1000),
                _SPECIAL,
                np.asarray(queries, dtype=np.float64),
            ]
        )
        _assert_bitwise_equal(table(z), _interp_reference(table, z))
        _assert_bitwise_equal(
            table(z.reshape(-1, 1)), _interp_reference(table, z)[:, None]
        )
        for scalar in (lo, lo + 0.5 * width, np.nan):
            out = table(scalar)
            assert isinstance(out, float)
            _assert_bitwise_equal(out, _interp_reference(table, scalar))

    def test_paper_gz_table_on_every_integer_square_root(self):
        """Every √s the squared-distance table caches, through ``GzTable``."""
        knowledge = DeploymentKnowledge(paper_deployment_model(), 300, 100.0)
        end = knowledge._squared_distance_table.size - 1
        roots = np.sqrt(np.arange(end + 1, dtype=np.float64))
        gz = knowledge.gz_table
        want = _interp_reference(gz.table, roots)
        _assert_bitwise_equal(gz.table(roots), want)
        _assert_bitwise_equal(gz(roots), np.clip(want, 0.0, 1.0))

    @pytest.mark.parametrize("intervals", [1, 2, 8, 1000])
    def test_exact_at_domain_edges(self, intervals):
        """``lo`` reads the first value and ``hi`` the padded top knot's."""
        table = LookupTable1D.from_function(np.exp, -1.0, 2.0, intervals)
        ys = table.values
        z = np.array([-np.inf, -2.0, -1.0, 2.0, 3.0, np.inf])
        np.testing.assert_array_equal(table(z), [ys[0]] * 3 + [ys[-1]] * 3)
        inner = np.nextafter([-1.0, 2.0], [np.inf, -np.inf])
        _assert_bitwise_equal(table(inner), _interp_reference(table, inner))

    @pytest.mark.parametrize(
        "lo, hi, intervals, query, step",
        [
            # floor((z − lo)/Δ) lands one interval too high: 0.3·10 = 3.0,
            # but 0.3 lies just below the knot 0.30000000000000004.
            (0.0, 1.0, 10, 0.3, -1),
            # ... and one too low: the knot 0.3 computes to 0.999… · Δ.
            (0.1, 0.7, 3, 0.3, +1),
        ],
        ids=["down", "up"],
    )
    def test_one_step_correction_brackets_the_query(
        self, lo, hi, intervals, query, step
    ):
        table = LookupTable1D.from_function(lambda x: x**3, lo, hi, intervals)
        xs, ys = np.asarray(table.knots), np.asarray(table.values)
        naive = int((query - lo) * (intervals / (hi - lo)))
        bracket = int(np.searchsorted(xs, query, side="right")) - 1
        assert bracket == naive + step  # the case needs the correction
        # Reading the uncorrected interval's line would miss the bits.
        slope = (ys[naive + 1] - ys[naive]) / (xs[naive + 1] - xs[naive])
        assert slope * (query - xs[naive]) + ys[naive] != table(query)
        _assert_bitwise_equal(table(query), _interp_reference(table, query))

    def test_reads_no_binary_search(self, monkeypatch):
        """The bracket comes from index arithmetic, never a search."""
        table = LookupTable1D.from_function(np.exp, -1.0, 2.0, 64)
        z = np.random.default_rng(5).uniform(-2.0, 3.0, 5000)
        want = _interp_reference(table, z)

        def refuse(*args, **kwargs):
            raise AssertionError("the lookup table searched its knots")

        for name in ("interp", "searchsorted", "digitize"):
            monkeypatch.setattr(np, name, refuse)
        _assert_bitwise_equal(table(z), want)

    def test_negative_zero_values_read_back_as_positive_zero(self):
        table = LookupTable1D(np.array([0.0, 1.0, 2.0]), np.array([-0.0, 1.0, -0.0]))
        assert not np.signbit(table.values).any()
        _assert_bitwise_equal(table(np.array([0.0, 2.0])), [0.0, 0.0])

    def test_rejects_non_uniform_knots(self):
        with pytest.raises(ValueError, match="evenly spaced"):
            LookupTable1D(np.array([0.0, 0.1, 0.2, 10.0]), np.zeros(4))

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
            ([0.0, 1.0, 2.0], [0.0, 1.0, np.inf]),
            ([-np.inf, 0.0, 1.0], [0.0, 1.0, 2.0]),
            ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0]),
            ([0.0, 1.0], [-1e308, 1e308]),  # the slope overflows
        ],
    )
    def test_rejects_non_finite_tables(self, xs, ys):
        with pytest.raises(ValueError, match="finite"):
            LookupTable1D(np.array(xs), np.array(ys))


class TestEvaluation:
    def test_exact_at_knots(self):
        table = LookupTable1D.from_function(np.square, 0.0, 4.0, 8)
        np.testing.assert_allclose(table(table.knots), np.square(table.knots))

    def test_interpolates_linear_function_exactly(self):
        table = LookupTable1D.from_function(lambda x: 3 * x + 1, 0.0, 10.0, 5)
        zs = np.linspace(0.0, 10.0, 37)
        np.testing.assert_allclose(table(zs), 3 * zs + 1, atol=1e-12)

    def test_scalar_query_returns_float(self):
        table = LookupTable1D.from_function(np.square, 0.0, 2.0, 4)
        out = table(1.3)
        assert isinstance(out, float)

    def test_clamping_outside_domain(self):
        table = LookupTable1D.from_function(np.square, 1.0, 3.0, 4)
        assert table(0.0) == pytest.approx(1.0)
        assert table(10.0) == pytest.approx(9.0)

    def test_accuracy_improves_with_resolution(self):
        coarse = LookupTable1D.from_function(np.sin, 0.0, np.pi, 8)
        fine = LookupTable1D.from_function(np.sin, 0.0, np.pi, 256)
        assert fine.max_abs_error(np.sin) < coarse.max_abs_error(np.sin)

    def test_max_abs_error_small_for_smooth_function(self):
        table = LookupTable1D.from_function(np.sin, 0.0, np.pi, 500)
        assert table.max_abs_error(np.sin, samples=2000) < 1e-4

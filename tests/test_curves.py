import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risingbandits import (
    ExponentialCurve,
    PowerCurve,
    StaircaseCurve,
    TabulatedCurve,
)


class TestExponentialCurve:
    def test_exact_values(self):
        curve = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)
        assert curve.eval(1) == 0.5
        assert curve.eval(2) == 0.7
        assert curve.eval(3) == 0.8
        assert curve.eval(5) == 0.875

    def test_starts_at_initial_and_saturates(self):
        curve = ExponentialCurve(limit=0.95, initial=0.3, decay=0.8)
        assert curve.eval(1) == pytest.approx(0.3, abs=1e-15)
        assert curve.eval(1000) == pytest.approx(0.95, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ExponentialCurve(limit=0.5, initial=0.6, decay=0.5)
        with pytest.raises(ValueError):
            ExponentialCurve(limit=1.1, initial=0.5, decay=0.5)
        with pytest.raises(ValueError):
            ExponentialCurve(limit=0.9, initial=0.5, decay=1.0)
        with pytest.raises(ValueError):
            ExponentialCurve(limit=0.9, initial=0.0, decay=0.5)

    def test_rejects_bad_pull_index(self):
        curve = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)
        with pytest.raises(ValueError):
            curve.eval(0)

    @settings(max_examples=50, deadline=None)
    @given(
        limit=st.floats(0.2, 1.0),
        frac=st.floats(0.05, 0.99),
        decay=st.floats(0.01, 0.99),
        n=st.integers(1, 200),
    )
    def test_monotone_and_bounded(self, limit, frac, decay, n):
        curve = ExponentialCurve(limit=limit, initial=frac * limit, decay=decay)
        assert 0.0 <= curve.eval(n) <= curve.eval(n + 1) <= limit


class TestPowerCurve:
    def test_exact_values(self):
        curve = PowerCurve(limit=0.8, scale=0.4, exponent=1.0)
        assert curve.eval(1) == pytest.approx(0.4, abs=1e-15)
        assert curve.eval(2) == pytest.approx(0.6, abs=1e-15)
        assert curve.eval(4) == pytest.approx(0.7, abs=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PowerCurve(limit=0.8, scale=0.0, exponent=1.0)
        with pytest.raises(ValueError):
            PowerCurve(limit=0.8, scale=0.4, exponent=0.0)
        with pytest.raises(ValueError):
            PowerCurve(limit=0.3, scale=0.4, exponent=1.0)
        with pytest.raises(ValueError):
            PowerCurve(limit=1.2, scale=0.4, exponent=1.0)

    @pytest.mark.parametrize(
        "limit, scale, exponent", [(0.9, math.nan, 1.0), (0.9, 0.5, math.nan), (math.nan, 0.5, 1.0)]
    )
    def test_rejects_nan_parameters(self, limit, scale, exponent):
        with pytest.raises(ValueError, match="power curve needs"):
            PowerCurve(limit=limit, scale=scale, exponent=exponent)

    @settings(max_examples=50, deadline=None)
    @given(
        limit=st.floats(0.2, 1.0),
        frac=st.floats(0.05, 0.99),
        exponent=st.floats(0.1, 3.0),
        n=st.integers(1, 200),
    )
    def test_monotone_and_bounded(self, limit, frac, exponent, n):
        curve = PowerCurve(limit=limit, scale=frac * limit, exponent=exponent)
        assert 0.0 <= curve.eval(n) <= curve.eval(n + 1) <= limit


class TestTabulatedCurve:
    def test_holds_last_value_beyond_table(self):
        curve = TabulatedCurve([0.1, 0.4, 0.6])
        assert curve.eval(1) == 0.1
        assert curve.eval(3) == 0.6
        assert curve.eval(100) == 0.6
        assert curve.limit == 0.6

    def test_rejects_empty_decreasing_or_out_of_range(self):
        with pytest.raises(ValueError):
            TabulatedCurve([])
        with pytest.raises(ValueError):
            TabulatedCurve([0.5, 0.4])
        with pytest.raises(ValueError):
            TabulatedCurve([0.5, 1.2])
        with pytest.raises(ValueError):
            TabulatedCurve([-0.1])


class TestStaircaseCurve:
    def test_plateaus_then_jumps(self):
        curve = StaircaseCurve(initial=0.5, limit=0.9, plateau_length=3, jump_fraction=0.5)
        # Gap 0.4 halves after each plateau of three pulls.
        assert curve.eval(1) == curve.eval(2) == curve.eval(3) == pytest.approx(0.5)
        assert curve.eval(4) == curve.eval(6) == pytest.approx(0.7)
        assert curve.eval(7) == pytest.approx(0.8)
        assert curve.limit == 0.9
        assert curve.initial == 0.5

    def test_violates_concavity(self):
        curve = StaircaseCurve(initial=0.5, limit=0.9, plateau_length=3, jump_fraction=0.5)
        increments = [curve.eval(n + 1) - curve.eval(n) for n in range(1, 10)]
        assert any(b > a + 1e-12 for a, b in zip(increments, increments[1:]))

    @pytest.mark.parametrize("initial, limit", [(-0.1, 0.5), (0.6, 0.5), (0.5, 1.1)])
    def test_rejects_start_or_limit_out_of_order(self, initial, limit):
        with pytest.raises(ValueError, match="0 <= initial <= limit <= 1"):
            StaircaseCurve(initial=initial, limit=limit, plateau_length=3, jump_fraction=0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StaircaseCurve(initial=0.5, limit=0.9, plateau_length=0, jump_fraction=0.5)
        with pytest.raises(ValueError):
            StaircaseCurve(initial=0.5, limit=0.9, plateau_length=3, jump_fraction=0.0)
        with pytest.raises(ValueError):
            StaircaseCurve(initial=0.5, limit=0.9, plateau_length=3, jump_fraction=1.5)

    def test_rejects_nan_plateau_length(self):
        with pytest.raises(ValueError, match="plateau_length"):
            StaircaseCurve(initial=0.5, limit=0.9, plateau_length=math.nan, jump_fraction=0.5)

    def test_plateau_length_is_a_count(self):
        # A plateau of 2.5 pulls would alternate plateaus of 3 and 2; 3.0 equals a count but is not one.
        for value in (2.5, 3.0):
            with pytest.raises(ValueError, match=f"^plateau_length must be an integer >= 1, got {value}$"):
                StaircaseCurve(initial=0.1, limit=0.9, plateau_length=value, jump_fraction=0.5)
        counted = StaircaseCurve(initial=0.1, limit=0.9, plateau_length=np.int64(3), jump_fraction=0.5)
        plain = StaircaseCurve(initial=0.1, limit=0.9, plateau_length=3, jump_fraction=0.5)
        assert [counted.eval(n) for n in range(1, 10)] == [plain.eval(n) for n in range(1, 10)]


@pytest.mark.parametrize(
    "curve",
    [
        ExponentialCurve(limit=0.9, initial=0.5, decay=0.5),
        PowerCurve(limit=0.8, scale=0.4, exponent=1.0),
        TabulatedCurve([0.1, 0.4, 0.6]),
        StaircaseCurve(initial=0.3, limit=0.9, plateau_length=2, jump_fraction=0.5),
    ],
    ids=lambda curve: type(curve).__name__,
)
def test_every_curve_rejects_pull_index_below_one(curve):
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"pull index must be >= 1, got {n}"):
            curve.eval(n)

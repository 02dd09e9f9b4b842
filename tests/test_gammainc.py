"""Hand-rolled incomplete gamma versus independent oracles.

scipy.special is used here only as a reference implementation; the package
itself never calls it for these functions.
"""
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import masec.gammainc
from masec.cli import main
from masec.gammainc import (
    inverse_lower_incomplete_gamma,
    lower_incomplete_gamma_reg,
)
from masec.surrogate import fit_linear_surrogate


class TestForward:
    def test_matches_scipy_over_wide_grid(self):
        a = np.array([0.11, 0.5, 1.0, 2.0, 3.7, 10.0, 47.3, 100.0, 250.0])
        t = np.array([0.01, 0.3, 1.0, 2.5, 5.0, 12.0, 40.0, 110.0, 260.0])
        aa, tt = np.meshgrid(a, t)
        got = lower_incomplete_gamma_reg(aa, tt)
        want = special.gammainc(aa, tt)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_exponential_special_case(self):
        # P(1, t) = 1 - exp(-t), no scipy involved
        t = np.linspace(0.01, 30.0, 200)
        got = lower_incomplete_gamma_reg(1.0, t)
        assert np.max(np.abs(got - (1.0 - np.exp(-t)))) < 1e-13

    def test_erlang_special_case(self):
        # P(3, t) = 1 - e^-t (1 + t + t^2/2)
        for t in (0.5, 2.0, 7.0, 20.0):
            want = 1.0 - math.exp(-t) * (1.0 + t + t * t / 2.0)
            assert lower_incomplete_gamma_reg(3.0, t) == pytest.approx(
                want, abs=1e-13)

    def test_nonpositive_threshold_is_zero(self):
        assert lower_incomplete_gamma_reg(2.0, 0.0) == 0.0
        assert lower_incomplete_gamma_reg(2.0, -1.5) == 0.0

    def test_scalar_in_scalar_out(self):
        out = lower_incomplete_gamma_reg(2.0, 1.0)
        assert isinstance(out, float)

    def test_broadcasts(self):
        out = lower_incomplete_gamma_reg(np.array([1.0, 2.0]), 3.0)
        assert out.shape == (2,)

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma_reg(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma_reg(-2.0, 1.0)

    @given(st.floats(min_value=0.05, max_value=300.0),
           st.floats(min_value=1e-6, max_value=400.0))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_scipy_everywhere(self, a, t):
        got = lower_incomplete_gamma_reg(a, t)
        assert got == pytest.approx(special.gammainc(a, t), abs=1e-12)

    @given(st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_threshold(self, a):
        t = np.linspace(0.0, 4.0 * a, 80)
        vals = lower_incomplete_gamma_reg(a, t)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0
        assert np.all((vals >= 0.0) & (vals <= 1.0))


def _bisect_quantile(a: float, eps: float) -> float:
    # deliberately naive reference: plain interval bisection to 1e-13
    lo, hi = 0.0, 10.0 * a + 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lower_incomplete_gamma_reg(a, mid) < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNonFiniteForward:
    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_shape(self, a):
        with pytest.raises(ValueError, match="positive and finite"):
            lower_incomplete_gamma_reg(a, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            lower_incomplete_gamma_reg(np.array([2.0, a]), 1.0)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="t must not be NaN"):
            lower_incomplete_gamma_reg(2.0, np.nan)
        with pytest.raises(ValueError, match="t must not be NaN"):
            lower_incomplete_gamma_reg(2.0, np.array([1.0, np.nan]))

    def test_infinite_threshold_is_one(self):
        out = lower_incomplete_gamma_reg(2.0, np.inf)
        assert isinstance(out, float) and out == 1.0
        assert lower_incomplete_gamma_reg(2.0, -np.inf) == 0.0

    def test_infinite_threshold_leaves_finite_lanes_unchanged(self):
        a = np.array([0.3, 2.0, 7.5, 40.0])
        t = np.array([0.2, np.inf, 9.0, -np.inf])
        got = lower_incomplete_gamma_reg(a, t)
        assert got[1] == 1.0 and got[3] == 0.0
        for i in (0, 2):
            assert got[i] == lower_incomplete_gamma_reg(a[i], t[i])


class TestInverse:
    def test_round_trip(self):
        a = np.linspace(0.5, 120.0, 240)
        for eps in (0.001, 0.05, 0.3, 0.5, 0.77, 0.95, 0.99):
            t = inverse_lower_incomplete_gamma(eps, a)
            back = lower_incomplete_gamma_reg(a, t)
            assert np.max(np.abs(back - eps)) < 1e-9

    def test_matches_scipy(self):
        a = np.linspace(1.0, 100.0, 150)
        for eps in (0.01, 0.1, 0.5, 0.9, 0.99):
            got = inverse_lower_incomplete_gamma(eps, a)
            want = special.gammaincinv(a, eps)
            assert np.max(np.abs(got - want) / want) < 1e-9

    def test_matches_naive_bisection(self):
        for a, eps in ((0.8, 0.37), (3.7, 0.62)):
            got = inverse_lower_incomplete_gamma(eps, a)
            assert got == pytest.approx(_bisect_quantile(a, eps), abs=1e-10)

    def test_zero_probability_maps_to_zero(self):
        assert inverse_lower_incomplete_gamma(0.0, 5.0) == 0.0
        out = inverse_lower_incomplete_gamma(0.0, np.array([1.0, 9.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_scalar_in_scalar_out(self):
        out = inverse_lower_incomplete_gamma(0.5, 2.0)
        assert isinstance(out, float)

    def test_batched_call_matches_scalar_calls_bit_for_bit(self):
        # each lane's arithmetic is independent of the other lanes; the
        # largest eps needs a grown bracket at a = 0.3, where
        # P(a, a + 20 sqrt(a) + 20) < eps, beside ordinary lanes of that shape
        top = np.nextafter(1.0, 0.0)
        assert lower_incomplete_gamma_reg(
            0.3, 0.3 + 20.0 * math.sqrt(0.3) + 20.0) < top
        eps = np.array([0.0, 0.001, 0.01, 0.3, 0.5, 0.77, 0.99, top])
        a = np.array([0.3, 1.0, 2.5, 7.0, 40.0, 100.0, 150.0, 1e3])
        grid = inverse_lower_incomplete_gamma(eps[:, None], a[None, :])
        assert grid.shape == (eps.size, a.size)
        for i, e in enumerate(eps):
            row = inverse_lower_incomplete_gamma(float(e), a)
            assert np.array_equal(grid[i], row)
            for j, s in enumerate(a):
                one = inverse_lower_incomplete_gamma(float(e), float(s))
                assert isinstance(one, float)
                assert one == grid[i, j]

    def test_small_shape_root_far_below_one(self):
        # the root is about 6e-101: bisection from 0 cannot reach it
        got = inverse_lower_incomplete_gamma(0.01, 0.02)
        want = special.gammaincinv(0.02, 0.01)
        assert abs(got - want) / want < 1e-9

    @pytest.mark.parametrize("eps,a", [(1e-20, 3.0), (1e-300, 1.0),
                                       (1e-12, 10.0), (1e-100, 50.0)])
    def test_small_quantile_is_relatively_accurate(self, eps, a):
        # an absolute stop at 1e-12 accepts any t with P(a, t) <= 1e-12
        # here, hundreds of times the true quantile at (1e-20, 3)
        got = inverse_lower_incomplete_gamma(eps, a)
        assert got == pytest.approx(special.gammaincinv(a, eps), rel=1e-12)

    def test_relative_stop_leaves_the_default_table(self, monkeypatch):
        # from eps = 0.01 up the stop is the absolute 1e-12, bit for bit
        relative = fit_linear_surrogate()
        monkeypatch.setattr(masec.gammainc, "_stop",
                            lambda eps: np.full(eps.shape, 1e-12))
        absolute = fit_linear_surrogate()
        assert relative.eps_grid[0] == 0.01
        assert relative.slope.tobytes() == absolute.slope.tobytes()
        assert relative.intercept.tobytes() == absolute.intercept.tobytes()

    def test_tiny_eps_scan_matches_scipy(self):
        # Wilson-Hilferty's cube falls under its clip at tiny eps; the
        # small-t start reaches roots down to 1e-160 and below
        for e in np.geomspace(1e-300, 3e-3, 60).tolist():
            for a in np.geomspace(0.1, 100.0, 15).tolist():
                want = special.gammaincinv(a, e)
                try:
                    got = inverse_lower_incomplete_gamma(e, a)
                except ValueError:
                    assert want < np.finfo(float).tiny
                    continue
                assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("eps,a", [(1e-320, 2.0), (1e-300, 100.0),
                                       (1e-260, 3.0)])
    def test_tiny_eps_above_shape_one(self, eps, a):
        got = inverse_lower_incomplete_gamma(eps, a)
        assert got == pytest.approx(special.gammaincinv(a, eps), rel=1e-9)

    def test_default_fit_starts_from_wilson_hilferty(self, monkeypatch):
        # the default grid never takes the small-t start above a = 1, so
        # every lane starts, and ends, where it did before that start
        guess, starts = masec.gammainc._initial_guess, []

        def recording(eps, a, log_gam):
            starts.append((eps, a, guess(eps, a, log_gam)))
            return starts[-1][2]
        monkeypatch.setattr(masec.gammainc, "_initial_guess", recording)
        fit_linear_surrogate()
        (eps, a, got), = starts
        z = np.array([NormalDist().inv_cdf(e) for e in eps.tolist()])
        cube = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
        assert cube.min() > 0.05
        assert got.tobytes() == np.maximum(a * cube**3, 1e-8).tobytes()

    def test_root_below_float_range_is_a_value_error(self):
        # about 1e-2000 at eps 0.01, a 0.001
        with pytest.raises(ValueError, match="below the float range"):
            inverse_lower_incomplete_gamma(0.01, np.array([0.5, 0.001]))

    def test_default_fit_evaluates_few_elements(self, monkeypatch):
        # one bracket check per shape and about two passes of P per lane
        counted = []
        forward = masec.gammainc._reg_positive

        def counting(a, t, log_gam):
            counted.append(a.size)
            return forward(a, t, log_gam)

        monkeypatch.setattr(masec.gammainc, "_reg_positive", counting)
        fit_linear_surrogate()
        assert sum(counted) <= 210_000

    def test_fit_table_cli_on_small_shapes(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        args = ["fit-table", "--hi", "2", "--points", "50", "--out", str(out)]
        assert main(args + ["--lo", "0.02"]) == 0
        assert out.is_file()
        capsys.readouterr()
        assert main(args + ["--lo", "0.001"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_rejects_bad_probability(self):
        for eps in (-0.1, 1.0, 1.5, np.nan, np.array([0.5, 1.0])):
            with pytest.raises(ValueError):
                inverse_lower_incomplete_gamma(eps, 2.0)

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            inverse_lower_incomplete_gamma(0.5, 0.0)

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_shape(self, a):
        with pytest.raises(ValueError, match="positive and finite"):
            inverse_lower_incomplete_gamma(0.5, a)
        with pytest.raises(ValueError, match="positive and finite"):
            inverse_lower_incomplete_gamma(np.array([0.5, 0.5]),
                                           np.array([2.0, a]))

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.3, max_value=150.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, eps, a):
        t = inverse_lower_incomplete_gamma(eps, a)
        assert t > 0.0
        assert lower_incomplete_gamma_reg(a, t) == pytest.approx(eps, abs=1e-9)

    def test_monotone_in_probability(self):
        a = 4.2
        qs = [inverse_lower_incomplete_gamma(e, a)
              for e in np.linspace(0.01, 0.99, 40)]
        assert np.all(np.diff(qs) > 0.0)

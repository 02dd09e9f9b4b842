"""Hand-rolled incomplete gamma versus independent oracles.

scipy.special is used here only as a reference implementation; the package
itself never calls it for these functions.
"""
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import masec
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


def _random_pairs(n, seed=0):
    """a log-uniform in [0.05, 200] and t = a lognormal(0, 0.8)."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(math.log(0.05), math.log(200.0), n))
    return a, a * rng.lognormal(0.0, 0.8, n)


# (a, t) lanes at the branches of the one-element path: t <= 0, t = inf,
# t on both sides of a + 1 (the series / continued fraction split), a tiny
# shape, and the largest shapes and thresholds of the surrogate fit
_EDGE_LANES = [
    (2.0, 0.0), (2.0, -0.0), (2.0, -1.5), (2.0, -np.inf), (2.0, np.inf),
    (3.0, np.nextafter(4.0, 0.0)), (3.0, 4.0), (3.0, np.nextafter(4.0, 5.0)),
    (0.25, np.nextafter(1.25, 0.0)), (0.25, 1.25),
    (1e-3, 1e-300), (1e-3, 1e-3), (1e-3, 0.5), (1e-3, 1.001), (1e-3, 30.0),
    (1.0, 1e-12), (47.3, 2.0), (100.0, 300.0), (250.0, 260.0),
]


class TestOneElementPath:
    """A call with one element runs on Python floats; it returns the bits
    the array path gives the same lane in a batched call."""

    def test_random_pairs_match_the_batch(self):
        a, t = _random_pairs(20_000)
        batch = lower_incomplete_gamma_reg(a, t)
        one = [lower_incomplete_gamma_reg(x, y)
               for x, y in zip(a.tolist(), t.tolist())]
        assert all(isinstance(p, float) for p in one)
        assert np.array(one).tobytes() == batch.tobytes()

    def test_edge_lanes_match_the_batch(self):
        a, t = (np.array(v) for v in zip(*_EDGE_LANES))
        batch = lower_incomplete_gamma_reg(a, t)
        got = [lower_incomplete_gamma_reg(float(x), float(y))
               for x, y in _EDGE_LANES]
        assert [p.hex() for p in got] == [p.hex() for p in batch.tolist()]
        assert got[:4] == [0.0] * 4 and got[4] == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lanes_that_settle_far_apart_match_the_batch(self):
        # series lanes settle within a few terms (t << a) or after hundreds
        # (t near a ~ 1e3), continued-fraction lanes within a few steps
        # (t >> a) or after dozens (t just above a + 1 at large a); the
        # early lanes keep iterating, silently, until the last one settles
        quick_series = [(100.0, 1.0), (500.0, 0.5), (37.0, 0.2)]
        slow_series = [(1000.0, 999.0), (1000.0, 1000.9), (2000.0, 2000.5)]
        quick_frac = [(2.0, 200.0), (0.5, 80.0), (5.0, 400.0)]
        slow_frac = [(1000.0, 1001.5), (2000.0, 2001.01), (500.0, 501.2)]

        def steps(a, t):
            recurrence = (masec.gammainc._series if t < a + 1.0
                          else masec.gammainc._cont_frac)
            return 1 + sum(1 for _ in itertools.takewhile(
                lambda step: step[1], recurrence(a, t)))
        assert max(steps(*lane) for lane in quick_series + quick_frac) <= 8
        assert min(steps(*lane) for lane in slow_frac) >= 60
        assert min(steps(*lane) for lane in slow_series) >= 250

        lanes = [lane for kinds in zip(quick_series, slow_series, quick_frac,
                                       slow_frac) for lane in kinds]
        a, t = (np.array(v) for v in zip(*lanes))
        batch = lower_incomplete_gamma_reg(a, t)
        got = [lower_incomplete_gamma_reg(x, y) for x, y in lanes]
        assert [p.hex() for p in got] == [p.hex() for p in batch.tolist()]

    @pytest.mark.parametrize("a,t,shape", [
        (np.array([3.0]), 4.0, (1,)),
        (3.0, np.array([[4.0]]), (1, 1)),
        (np.array([[3.0]]), np.array([4.0]), (1, 1)),
        (np.array(3.0), 4.0, ()),
        (np.float64(3.0), np.array([np.inf]), (1,)),
    ])
    def test_one_element_arrays_keep_their_shape(self, a, t, shape):
        got = lower_incomplete_gamma_reg(a, t)
        assert isinstance(got, np.ndarray) and got.shape == shape
        want = lower_incomplete_gamma_reg(np.array([3.0, 9.0]),
                                          np.array([float(np.ravel(t)[0]), 1.0]))
        assert got.ravel().tobytes() == want[:1].tobytes()

    def test_runs_without_the_array_path(self, monkeypatch):
        want = lower_incomplete_gamma_reg(np.array([3.2, 5.0]), 2.7)

        def refuse(a, t, log_gam, log_t):
            raise AssertionError("array path")
        monkeypatch.setattr(masec.gammainc, "_reg_positive", refuse)
        for a in (3.2, np.array([3.2]), np.array([[3.2]])):
            got = lower_incomplete_gamma_reg(a, 2.7)
            assert np.ravel(got).tobytes() == want[:1].tobytes()
        with pytest.raises(AssertionError, match="array path"):
            lower_incomplete_gamma_reg(np.array([3.2, 5.0]), 2.7)

    @pytest.mark.parametrize("a,t,match", [
        (0.0, 1.0, "positive and finite"),
        (-2.0, 1.0, "positive and finite"),
        (np.nan, 1.0, "positive and finite"),
        (np.inf, 1.0, "positive and finite"),
        (2.0, np.nan, "t must not be NaN"),
    ])
    def test_one_element_arrays_are_checked(self, a, t, match):
        for args in ((a, t), (np.array([a]), t), (a, np.array([[t]]))):
            with pytest.raises(ValueError, match=match):
                lower_incomplete_gamma_reg(*args)


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

    def test_an_overflowing_exp_is_inf(self):
        # math.exp raises past ln(max float); the whole call then falls back
        # to the element rule, inf where it overflows, as numpy's exp
        got = masec.gammainc._libm(math.exp, np.array([1000.0, 0.0]))
        assert got.tolist() == [math.inf, 1.0]


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

    def test_a_stalled_iteration_raises(self, monkeypatch):
        # a P above every eps never meets it; the constant needs no bracket
        # growth, so the 200 steps run out and the residual check raises
        monkeypatch.setattr(masec.gammainc, "_reg_positive",
                            lambda a, t, log_gam, log_t: np.full(t.shape, 2.0))
        with pytest.raises(RuntimeError, match="quantile iteration stalled"):
            inverse_lower_incomplete_gamma(0.5, 3.0)

    def test_a_residual_within_the_slack_returns_after_the_loop(
            self, monkeypatch):
        # P offset by +delta and -delta on alternate calls, with the stop
        # tol = 1e-12 < delta <= 100 tol: each step aims at the last call's
        # root and the next call misses it by 2 delta, so no step stops the
        # lane; after the 200 steps the residual is within 100 tol and the
        # lane's t is returned, near the true quantile
        want = inverse_lower_incomplete_gamma(0.5, 5.0)
        exact, calls, delta = masec.gammainc._reg_positive, [], 1e-11

        def offset(*args):
            calls.append(len(calls) % 2)
            return exact(*args) + (delta if calls[-1] else -delta)

        monkeypatch.setattr(masec.gammainc, "_reg_positive", offset)
        got = inverse_lower_incomplete_gamma(0.5, 5.0)
        assert len(calls) == 1 + 200 + 1    # bracket, steps, final residual
        assert got == pytest.approx(want, abs=1e-9)

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
        assert got.tobytes() == np.maximum(a * (cube * cube * cube),
                                           1e-8).tobytes()

    def test_root_below_float_range_is_a_value_error(self):
        # about 1e-2000 at eps 0.01, a 0.001
        with pytest.raises(ValueError, match="below the float range"):
            inverse_lower_incomplete_gamma(0.01, np.array([0.5, 0.001]))

    def test_default_fit_evaluates_few_elements(self, monkeypatch):
        # one bracket check per shape and about two passes of P per lane
        counted = []
        forward = masec.gammainc._reg_positive

        def counting(a, t, log_gam, log_t):
            counted.append(a.size)
            return forward(a, t, log_gam, log_t)

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

    def test_only_a_fit_imports_statistics(self, tmp_path):
        # NormalDist seeds the quantile search, so a fresh process imports
        # statistics (and its fractions and decimal) only when it fits
        shipped = Path(masec.__file__).with_name("default_table.txt")
        out = tmp_path / "t.txt"
        run = ("import sys\n"
               "from masec.cli import main\n"
               "assert 'statistics' not in sys.modules\n"
               "assert main(['fit-table', '--out', sys.argv[1]]) == 0\n"
               "assert 'statistics' in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=str(Path(masec.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", run, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert out.read_bytes() == shipped.read_bytes()

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

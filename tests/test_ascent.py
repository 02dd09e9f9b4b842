"""Margin objective, its gradients, the ascent loop and the bisection."""
import dataclasses
import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import masec
from golden_cases import MULTI_GROUP
from masec import ascent, outage, zf
from masec.ascent import (
    OptimizerParams,
    apga_solve,
    ascend,
    bisection_outage_min,
    line_search,
    margin_grad_beamformer,
    margin_grad_positions,
    margin_objective,
    maximize_gamma_objective,
    write_trace,
)
from masec.bench import apply_variable, base_config, preset, run_scheme
from masec.gammainc import lower_incomplete_gamma_reg
from masec.model import (
    eve_los_matrix,
    feasible_region,
    main_channel,
    mrt_beamformer,
    project_positions,
    random_feasible_positions,
    unit_norm,
)
from masec.outage import (
    MomentMatch,
    gamma_moments,
    link_stats,
    moment_match,
    outage_threshold,
    secrecy_outage_closed_form,
)
from masec.surrogate import (DEFAULT_TAU, fit_linear_surrogate,
                             surrogate_lookup)


PRESET_NAMES = ("ob-demo", "zf-demo-far", "zf-demo-near", "k-sweep",
                "m-sweep", "cdf-demo")
# every preset; the default scenario at a power where few levels pass; and
# one whose beta0 and 2^rs are no powers of two, so a reordered product or
# quotient of them changes bits
SCENARIOS = {**{name: preset(name) for name in PRESET_NAMES},
             "pa=1.5": base_config(pa=1.5),
             "beta0=0.9,rs=2.2": base_config(beta0=0.9, rs=2.2)}


def shape_scenario(n, m):
    """A seeded ``base_config`` with n antennas and m eavesdroppers whose
    angles, path gains and Rician factors all differ, at a seeded power."""
    rng = np.random.default_rng(100 * n + m)
    return base_config(
        n_antennas=n, n_eves=m,
        thetas=tuple(np.sort(rng.uniform(0.05, 1.45, m)).tolist()),
        betas=tuple(np.exp(rng.uniform(math.log(0.05), math.log(5.0),
                                       m)).tolist()),
        ks=tuple(rng.uniform(0.0, 10.0, m).tolist()),
        pa=float(10.0 ** rng.uniform(1.5, 3.0)))


# every steering-row shape (M+1, N) with 2 <= N <= 8 and 1 <= M <= N - 1
SHAPES = [(n, m) for n in range(2, 9) for m in range(1, n)]


def cfg_two_eves():
    return base_config(n_eves=2, thetas=(np.pi / 6, np.pi / 3),
                       betas=(1.0, 0.7), ks=(4.0, 2.0))


def rand_point(cfg, seed):
    rng = np.random.default_rng(seed)
    x = random_feasible_positions(feasible_region(cfg), rng)
    wv = rng.standard_normal(cfg.n_antennas) + 1j * rng.standard_normal(cfg.n_antennas)
    return wv / np.linalg.norm(wv), x


def margin_oracle(w, x, eps, table, cfg):
    """Term-by-term reconstruction of the margin from raw channel pieces."""
    slope, intercept = surrogate_lookup(table, eps)
    bob = abs(np.dot(main_channel(x, cfg), w)) ** 2
    g = np.abs(eve_los_matrix(x, cfg) @ w) ** 2
    c = cfg.betas_arr / (cfg.ks_arr + 1.0)
    lin = float(np.sum(c * (cfg.ks_arr * g + 1.0)))
    quad = float(np.sum(c**2 * (2.0 * cfg.ks_arr * g + 1.0)))
    thr = bob / 2**cfg.rs + cfg.sigma2 / cfg.pa * (2.0**-cfg.rs - 1.0)
    return lin * thr - slope * lin**2 - intercept * quad


class TestMarginObjective:
    def test_matches_term_by_term_oracle(self, table):
        cfg = cfg_two_eves()
        for seed in range(6):
            w, x = rand_point(cfg, seed)
            for eps in (0.05, 0.4, 0.8):
                got = margin_objective(w, x, eps, table, cfg)
                assert got == pytest.approx(
                    margin_oracle(w, x, eps, table, cfg), rel=1e-12)

    def test_is_the_oracle_per_unit_beta0(self, table):
        # every term of the margin is a power squared: the margin is that
        # of the scenario with every power divided by beta0
        cfg = SCENARIOS["beta0=0.9,rs=2.2"]
        for seed in range(4):
            w, x = rand_point(cfg, seed)
            for eps in (0.05, 0.4, 0.8):
                got = margin_objective(w, x, eps, table, cfg)
                assert got == pytest.approx(
                    margin_oracle(w, x, eps, table, cfg) / 0.9**2, rel=1e-12)

    @pytest.mark.parametrize("function", [
        margin_objective, margin_grad_beamformer, margin_grad_positions])
    @pytest.mark.parametrize("spoil,message", [
        (lambda w, x: (w, x + 1j), "x must be real"),
        (lambda w, x: (np.r_[w[:-1], np.nan], x), "w must be finite"),
        (lambda w, x: (w[:-1], x), r"w must have shape \(5,\), got \(4,\)"),
    ], ids=["complex x", "nan w", "short w"])
    def test_rejects_a_bad_point(self, table, function, spoil, message):
        cfg = preset("ob-demo")
        x = feasible_region(cfg).midpoints()
        w, x = spoil(mrt_beamformer(x, cfg), x)
        with pytest.raises(ValueError, match=message):
            function(w, x, 0.3, table, cfg)

    def test_sign_agrees_with_quantile_condition(self, table):
        # margin is the outage condition f2 - slope*f1 - intercept cleared
        # of its positive denominator, so the signs must agree
        cfg = cfg_two_eves()
        for seed in range(10):
            w, x = rand_point(cfg, seed)
            mom = gamma_moments(link_stats(w, x, cfg))
            f1 = mom.shape
            f2 = outage_threshold(w, x, cfg) / mom.scale
            for eps in (0.1, 0.5, 0.9):
                slope, intercept = surrogate_lookup(table, eps)
                cond = f2 - slope * f1 - intercept
                m = margin_objective(w, x, eps, table, cfg)
                assert np.sign(m) == np.sign(cond)

    def test_nonincreasing_in_eps(self, table):
        cfg = cfg_two_eves()
        w, x = rand_point(cfg, 3)
        vals = [margin_objective(w, x, e, table, cfg)
                for e in np.linspace(0.01, 0.99, 25)]
        assert np.all(np.diff(vals) <= 1e-12)


class TestGradients:
    def test_beamformer_gradient_vs_central_differences(self, table):
        cfg = cfg_two_eves()
        h = 1e-6
        for seed in range(5):
            w, x = rand_point(cfg, seed)
            eps = 0.3 + 0.1 * seed
            grad = margin_grad_beamformer(w, x, eps, table, cfg)
            n = cfg.n_antennas
            fd = np.empty(2 * n)
            for j in range(n):
                for part, off in ((1.0, 0), (1j, n)):
                    wp = np.array(w); wp[j] += h * part
                    wm = np.array(w); wm[j] -= h * part
                    fd[j + off] = (margin_objective(wp, x, eps, table, cfg)
                                   - margin_objective(wm, x, eps, table, cfg)) / (2 * h)
            # complex gradient stores half the (Re, Im) pair gradient
            full = 2.0 * np.concatenate((grad.real, grad.imag))
            assert np.max(np.abs(full - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_position_gradient_vs_central_differences(self, table):
        cfg = cfg_two_eves()
        h = 1e-6
        for seed in range(5):
            w, x = rand_point(cfg, seed + 50)
            eps = 0.2 + 0.12 * seed
            grad = margin_grad_positions(w, x, eps, table, cfg)
            fd = np.empty(cfg.n_antennas)
            for j in range(cfg.n_antennas):
                xp = x.copy(); xp[j] += h
                xm = x.copy(); xm[j] -= h
                fd[j] = (margin_objective(w, xp, eps, table, cfg)
                         - margin_objective(w, xm, eps, table, cfg)) / (2 * h)
            assert np.max(np.abs(grad - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_position_gradient_vanishes_at_rayleigh(self, table):
        # K=0 removes every position-dependent term from the statistics
        cfg = base_config(ks=(0.0,))
        w, x = rand_point(cfg, 1)
        grad = margin_grad_positions(w, x, 0.4, table, cfg)
        bobpart = np.abs(grad)
        # only the Bob-gain term survives; it scales with lin/2^rs
        fd = np.empty(cfg.n_antennas)
        h = 1e-6
        for j in range(cfg.n_antennas):
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            fd[j] = (margin_objective(w, xp, 0.4, table, cfg)
                     - margin_objective(w, xm, 0.4, table, cfg)) / (2 * h)
        assert np.allclose(grad, fd, atol=1e-6)
        assert bobpart.max() > 0.0  # Bob term still moves


class TestAscent:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
    def test_trace_monotone(self, table, name, eps):
        cfg = preset(name)
        x0 = feasible_region(cfg).midpoints()
        res = apga_solve(mrt_beamformer(x0, cfg), x0,
                         *surrogate_lookup(table, eps), cfg)
        objs = [r.objective for r in res.trace]
        assert np.all(np.diff(objs) >= -1e-12)

    def test_iterates_stay_feasible(self, table):
        cfg = preset("ob-demo")
        reg = feasible_region(cfg)
        w0, x0 = rand_point(cfg, 9)
        res = apga_solve(w0, x0, *surrogate_lookup(table, 0.45), cfg)
        assert np.linalg.norm(res.w) == pytest.approx(1.0, abs=1e-12)
        assert reg.contains(res.x)

    def test_beam_only_mode_freezes_positions(self, table):
        cfg = preset("ob-demo")
        x0 = feasible_region(cfg).midpoints()
        res = apga_solve(mrt_beamformer(x0, cfg), x0,
                         *surrogate_lookup(table, 0.4), cfg,
                         mode="beam_only")
        assert np.array_equal(res.x, x0)

    def test_mrt_mode_keeps_matched_filter(self, table):
        cfg = preset("ob-demo")
        x0 = feasible_region(cfg).midpoints()
        res = apga_solve(mrt_beamformer(x0, cfg), x0,
                         *surrogate_lookup(table, 0.3), cfg,
                         mode="positions_mrt")
        assert np.allclose(res.w, mrt_beamformer(res.x, cfg))

    def test_rejects_unknown_mode(self, table):
        cfg = preset("ob-demo")
        x0 = feasible_region(cfg).midpoints()
        with pytest.raises(ValueError, match="mode"):
            apga_solve(mrt_beamformer(x0, cfg), x0,
                       *surrogate_lookup(table, 0.3), cfg,
                       mode="other")

    def test_improves_over_start(self, table):
        cfg = preset("ob-demo")
        w0, x0 = rand_point(cfg, 13)
        start = margin_objective(w0, x0, 0.5, table, cfg)
        res = apga_solve(w0, x0, *surrogate_lookup(table, 0.5), cfg)
        assert res.objective >= start - 1e-12
        assert res.converged

    @pytest.mark.parametrize("name,mode,delta0", [
        ("ob-demo", "joint", 1.0), ("m-sweep", "joint", 1.0),
        ("zf-demo-far", "beam_only", 1.0), ("ob-demo", "positions_mrt", 1.0),
        ("zf-demo-near", "joint", 0.25)])
    def test_block_steps_grow_at_most_twofold(self, monkeypatch, table, name,
                                              mode, delta0):
        monkeypatch.setattr(ascent, "DELTA0", delta0)
        cfg = preset(name)
        x0 = feasible_region(cfg).midpoints()
        res = apga_solve(mrt_beamformer(x0, cfg), x0,
                         *surrogate_lookup(table, 0.3), cfg,
                         mode=mode)
        blocks = {"joint": ("delta_beam", "delta_pos"),
                  "beam_only": ("delta_beam",),
                  "positions_mrt": ("delta_pos",)}[mode]
        for block in blocks:
            steps = [getattr(r, block) for r in res.trace
                     if getattr(r, block) is not None]
            assert len(steps) > 3
            last = delta0
            for step in steps:
                assert step <= min(delta0, 2.0 * last)
                last = step

    def test_relative_stop_ends_a_large_objective(self, table):
        # a starved power budget makes the margin about -sigma2/pa * lin,
        # thousands in magnitude, so an absolute 1e-8 change is out of reach
        cfg = base_config(pa=1e-3)
        x0 = feasible_region(cfg).midpoints()
        res = apga_solve(mrt_beamformer(x0, cfg), x0,
                         *surrogate_lookup(table, 0.5), cfg)
        assert abs(res.objective) > 100.0
        assert res.converged
        assert res.n_iter < 100
        last, prev = res.trace[-1].objective, res.trace[-2].objective
        assert abs(last - prev) < ascent.OBJ_TOL * abs(last)


def recomputing_apga(w0, x0, eps, table, cfg, mode):
    """``apga_solve`` rebuilt from ``ascend`` and ``line_search`` on the
    public margin and gradients, which recompute the gains at every call."""
    region = feasible_region(cfg)
    w, x = unit_norm(np.asarray(w0, dtype=complex)), np.asarray(x0)
    w_prev, x_prev = w, x

    def extrapolate(obj, beta):
        nonlocal w, x, w_prev, x_prev
        w_last, x_last, w_prev, x_prev = w_prev, x_prev, w, x
        if not beta:
            return obj, None
        y_w = unit_norm(w + beta * (w - w_last))
        # beam_only keeps x where it is, even outside the region
        y_x = (project_positions(x + beta * (x - x_last), region)
               if mode == "joint" else x)
        margin = margin_objective(y_w, y_x, eps, table, cfg)
        if not margin > obj:
            return obj, None
        w, x = y_w, y_x
        return margin, beta

    def beam(obj, delta):
        nonlocal w
        g = margin_grad_beamformer(w, x, eps, table, cfg)
        found = line_search(
            lambda c: (margin_objective(c, x, eps, table, cfg), None), w, obj,
            g, unit_norm, delta)
        if found is not None:
            _, w, obj, _ = found
        return obj, found

    def pos(obj, delta):
        nonlocal w, x
        if mode == "positions_mrt":
            w = mrt_beamformer(x, cfg)
            obj = margin_objective(w, x, eps, table, cfg)
        g = margin_grad_positions(w, x, eps, table, cfg)
        found = line_search(
            lambda c: (margin_objective(w, c, eps, table, cfg), None), x, obj,
            g, lambda c: project_positions(c, region), delta)
        if found is not None:
            _, x, obj, _ = found
        return obj, found

    obj, trace, converged = ascend(
        margin_objective(w, x, eps, table, cfg),
        OptimizerParams().max_outer,
        beam=None if mode == "positions_mrt" else beam,
        pos=None if mode == "beam_only" else pos,
        extrapolate=None if mode == "positions_mrt" else extrapolate,
        target=None if mode == "positions_mrt" else 0.0)
    return w, x, obj, trace, converged


class TestGainReuse:
    """Each evaluated candidate's gains serve both gradients at it."""

    @pytest.mark.parametrize("mode", ["joint", "beam_only", "positions_mrt"])
    @pytest.mark.parametrize("name", list(SCENARIOS))
    @pytest.mark.parametrize("eps", [0.2, 0.6])
    def test_equals_the_recomputing_ascent(self, table, name, mode, eps):
        cfg = SCENARIOS[name]
        x0 = feasible_region(cfg).midpoints()
        w0 = mrt_beamformer(x0, cfg)
        res = apga_solve(w0, x0, *surrogate_lookup(table, eps), cfg, mode=mode)
        w, x, obj, trace, converged = recomputing_apga(w0, x0, eps, table,
                                                       cfg, mode)
        assert res.w.tobytes() == w.tobytes()
        assert res.x.tobytes() == x.tobytes()
        assert (res.objective, res.n_iter, res.converged) == \
            (obj, len(trace), converged)
        assert res.trace == trace

    @pytest.mark.parametrize("mode", ["joint", "beam_only", "positions_mrt"])
    @pytest.mark.parametrize("n, m", SHAPES)
    def test_equals_the_recomputing_ascent_at_every_shape(self, table, n, m,
                                                          mode):
        # the lane's ndarray.dot products hold the bits of the stacked
        # helpers' np.matvec and @ on every (M+1, N) rows up to 8 x 8
        cfg = shape_scenario(n, m)
        x0 = feasible_region(cfg).midpoints()
        w0 = mrt_beamformer(x0, cfg)
        res = apga_solve(w0, x0, *surrogate_lookup(table, 0.4), cfg, mode=mode)
        w, x, obj, trace, converged = recomputing_apga(w0, x0, 0.4, table,
                                                       cfg, mode)
        assert res.w.tobytes() == w.tobytes()
        assert res.x.tobytes() == x.tobytes()
        assert (res.objective, res.n_iter, res.converged) == \
            (obj, len(trace), converged)
        assert res.trace == trace

    @pytest.mark.parametrize("mode", ["joint", "beam_only", "positions_mrt"])
    def test_one_statistics_call_per_evaluated_point(self, monkeypatch, table,
                                                     mode):
        calls = {"statistics": 0, "candidates": 0, "extrapolations": 0}
        statistics, search = MomentMatch.statistics, ascent.line_search
        outer = ascent.ascend

        def counted_statistics(self, gains):
            calls["statistics"] += 1
            return statistics(self, gains)

        def counted_search(evaluate, *args):
            def counted_evaluate(cand):
                calls["candidates"] += 1
                return evaluate(cand)
            return search(counted_evaluate, *args)

        def counted_ascend(*args, extrapolate=None, **kwargs):
            # an extrapolation with a nonzero weight evaluates its point
            def counted_extrapolate(obj, beta):
                calls["extrapolations"] += beta != 0.0
                return extrapolate(obj, beta)
            return outer(*args, **kwargs,
                         extrapolate=extrapolate and counted_extrapolate)

        monkeypatch.setattr(MomentMatch, "statistics", counted_statistics)
        monkeypatch.setattr(ascent, "line_search", counted_search)
        monkeypatch.setattr(ascent, "ascend", counted_ascend)
        cfg = preset("zf-demo-far")
        x0 = feasible_region(cfg).midpoints()
        res = apga_solve(mrt_beamformer(x0, cfg), x0,
                         *surrogate_lookup(table, 0.4), cfg,
                         mode=mode)
        resets = res.n_iter if mode == "positions_mrt" else 0
        assert res.n_iter > 3
        assert (calls["extrapolations"] > 0) == (mode != "positions_mrt")
        assert calls["statistics"] == (calls["candidates"]
                                       + calls["extrapolations"] + 1 + resets)


def spoiled_start(cfg, bad):
    """The matched filter at the region midpoints, with the flaw ``bad``."""
    x = feasible_region(cfg).midpoints()
    w = mrt_beamformer(x, cfg)
    return {
        "zero w0": lambda: (np.zeros_like(w), x),
        "underflowing w0": lambda: (np.full(w.shape, 1e-170), x),
        "overflowing w0": lambda: (np.full(w.shape, 1e200), x),
        "nan w0": lambda: (np.r_[w[:-1], np.nan], x),
        "inf w0": lambda: (np.r_[np.inf, w[1:]], x),
        "short w0": lambda: (w[:-1], x),
        "stacked w0": lambda: (w[None, :], x),
        "nan x0": lambda: (w, np.r_[x[:-1], np.nan]),
        "inf x0": lambda: (w, np.r_[-np.inf, x[1:]]),
        "long x0": lambda: (w, np.r_[x, x[-1] + 1.0]),
        "complex x0": lambda: (w, x + 0j),
    }[bad]()


class TestStartChecks:
    """A bad start is a one-line ValueError before any iteration."""

    @pytest.mark.parametrize("bad,message", [
        ("zero w0", "w0 must have a nonzero finite norm"),
        ("underflowing w0", "w0 must have a nonzero finite norm"),
        ("overflowing w0", "w0 must have a nonzero finite norm"),
        ("nan w0", "w0 must be finite"),
        ("inf w0", "w0 must be finite"),
        ("short w0", r"w0 must have shape \(5,\), got \(4,\)"),
        ("stacked w0", r"w0 must have shape \(5,\), got \(1, 5\)"),
        ("nan x0", "x0 must be finite"),
        ("inf x0", "x0 must be finite"),
        ("long x0", r"x0 must have shape \(5,\), got \(6,\)"),
        ("complex x0", "x0 must be real"),
    ])
    def test_apga_solve_rejects(self, table, bad, message):
        cfg = preset("ob-demo")
        w0, x0 = spoiled_start(cfg, bad)
        with pytest.raises(ValueError, match=message):
            apga_solve(w0, x0, *surrogate_lookup(table, 0.3), cfg)

    @pytest.mark.parametrize("slope,intercept", [
        (math.nan, 0.5), (1.0, math.inf), (-math.inf, 0.5)])
    def test_apga_solve_rejects_a_nonfinite_line(self, slope, intercept):
        cfg = preset("ob-demo")
        x0 = feasible_region(cfg).midpoints()
        with pytest.raises(ValueError,
                           match="slope and intercept must be finite"):
            apga_solve(mrt_beamformer(x0, cfg), x0, slope, intercept, cfg)

    @pytest.mark.parametrize("bad,message", [
        ("nan x0", "x0 must be finite"),
        ("inf x0", "x0 must be finite"),
        ("long x0", r"x0 must have shape \(5,\), got \(6,\)"),
        ("complex x0", "x0 must be real"),
    ])
    def test_bisection_rejects(self, table, bad, message):
        cfg = preset("ob-demo")
        with pytest.raises(ValueError, match=message):
            bisection_outage_min(cfg, table, x0=spoiled_start(cfg, bad)[1])

    def test_list_start_equals_array_start(self, table):
        cfg = preset("ob-demo")
        x0 = feasible_region(cfg).midpoints()
        w0 = mrt_beamformer(x0, cfg)
        a = apga_solve(w0, x0, *surrogate_lookup(table, 0.3), cfg)
        b = apga_solve(w0.tolist(), x0.tolist(),
                       *surrogate_lookup(table, 0.3), cfg)
        assert (a.w.tobytes(), a.x.tobytes()) == (b.w.tobytes(), b.x.tobytes())
        assert a.trace == b.trace


class TestBisection:
    def test_demo_scenario_bands(self, table):
        res = bisection_outage_min(preset("ob-demo"), table)
        assert res.feasible
        assert 0.50 <= res.eps <= 0.54
        assert 0.46 <= res.p_out <= 0.50

    def test_probe_bracket_shrinks_to_tau(self, table):
        res = bisection_outage_min(preset("ob-demo"), table)
        eps_seq = [p[0] for p in res.probes]
        assert eps_seq[0] == 0.5
        # 7 halvings of [0, 1] reach the 0.01 stop width
        assert res.rounds == 7

    def test_feasibility_uses_objective_sign(self, table):
        res = bisection_outage_min(preset("ob-demo"), table)
        for _, feas, obj in res.probes:
            assert feas == (obj > 0.0)

    def test_reported_outage_is_closed_form_at_solution(self, table):
        res = bisection_outage_min(preset("ob-demo"), table)
        assert res.p_out == pytest.approx(
            secrecy_outage_closed_form(res.w, res.x, preset("ob-demo")),
            abs=1e-14)

    def test_infeasible_everywhere(self, table):
        # starved power budget: the outage threshold is negative even at
        # the largest legitimate gain beta0 * N, so the closed form rules
        # out every level before any probe
        cfg = base_config(pa=1e-3)
        res = bisection_outage_min(cfg, table)
        assert not res.feasible
        assert res.eps == 0.0
        assert res.p_out == 1.0
        assert res.probes == []
        assert (res.rounds, res.total_iterations) == (0, 0)

    def test_all_probes_infeasible_above_the_exit(self, table):
        # a positive threshold at beta0 * N skips the closed-form exit, and
        # here the matched filter still fails every probed level
        res = bisection_outage_min(base_config(pa=1.5), table,
                                   mode="positions_mrt")
        assert res.rounds == 7
        assert not any(feasible for _, feasible, _ in res.probes)
        assert (res.eps, res.feasible) == (0.0, False)

    @pytest.mark.parametrize("scheme", ["MA_OB", "FPA_OB"])
    def test_no_certificate_at_certain_outage(self, table, scheme):
        # at pa = 1.5 the ascent can drive Bob's gain so low that the outage
        # threshold is <= 0 while the surrogate margin is positive; the
        # closed-form outage there is 1, so no level holds
        res = run_scheme(scheme, base_config(pa=1.5), table=table)
        assert (res.eps, res.p_out) == (0.0, 1.0)
        assert not res.detail.feasible
        assert any(margin > 0.0 for _, _, margin in res.detail.probes)

    @pytest.mark.parametrize("scheme", ["MA_OB", "FPA_OB", "MA_MRT",
                                        "RAP_OB"])
    @pytest.mark.parametrize("name", ["pa=1.5", *MULTI_GROUP])
    def test_a_certified_level_has_a_positive_threshold(self, table, scheme,
                                                        name):
        # where the surrogate margin alone certified levels at a threshold
        # <= 0 (pa=1.5 and the first two multi-group scenarios), and where
        # it did not: every lane's certificate has a positive threshold
        cfg = MULTI_GROUP.get(name) or base_config(pa=1.5)
        if scheme == "RAP_OB":
            xs = lane_placements(cfg, 20)
            runs = ascent.bisect_beam_lanes(cfg, xs, table)
        else:
            runs = [run_scheme(scheme, cfg, table=table).detail]
        for res in runs:
            if res.feasible:
                assert outage_threshold(res.w, res.x, cfg) > 0.0
            else:
                assert res.eps == 0.0

    def test_trace_kept_by_default(self, table):
        # the trace is the certified probe's solve, ending at its margin
        res = bisection_outage_min(preset("ob-demo"), table)
        margin = [obj for _, feasible, obj in res.probes if feasible][-1]
        assert [r.iteration for r in res.best_trace] == \
            list(range(1, len(res.best_trace) + 1))
        assert res.best_trace[-1].objective == margin > 0.0


def _no_probe(*args, **kwargs):
    raise AssertionError("an ascent ran on a provably infeasible case")


def record_probes(monkeypatch, record):
    """Patch ``ascent._apga_solver`` so that every probe run on a solver it
    builds calls ``record(slope, intercept, result)``."""
    build = ascent._apga_solver

    def recording_build(*args):
        solve = build(*args)

        def recording(w0, x0, slope, intercept):
            res = solve(w0, x0, slope, intercept)
            record(slope, intercept, res)
            return res
        return recording
    monkeypatch.setattr(ascent, "_apga_solver", recording_build)


class TestInfeasibilityExit:
    """Certain outage at every (w, x) returns before any probe runs."""

    CASES = {"pa=1e-3": base_config(pa=1e-3),
             "ob-demo@-20dB": apply_variable(preset("ob-demo"), "pa_db", -20.0)}

    @pytest.mark.parametrize("scheme", ["MA_OB", "FPA_OB", "MA_MRT", "RAP_OB"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_schemes_skip_the_ascent(self, monkeypatch, table, scheme, case):
        cfg = self.CASES[case]
        monkeypatch.setattr(ascent, "ascend", _no_probe)
        monkeypatch.setattr(ascent, "_beam_lanes", _no_probe)
        res = run_scheme(scheme, cfg, table=table, restarts=3)
        assert (res.eps, res.p_out, res.iterations) == (0.0, 1.0, 0)
        assert not res.detail.feasible
        assert (res.detail.rounds, res.detail.probes) == (0, [])
        assert np.linalg.norm(res.w) == pytest.approx(1.0, abs=1e-12)
        x = res.x
        assert 0.0 <= x.min() and x.max() <= cfg.span
        assert np.all(np.diff(x) >= cfg.dmin - 1e-12)
        assert res.trace == []

    def test_returns_the_start(self, monkeypatch, table):
        cfg = base_config(pa=1e-3)
        monkeypatch.setattr(ascent, "ascend", _no_probe)
        _, x0 = rand_point(cfg, 4)
        res = bisection_outage_min(cfg, table, x0=x0)
        assert np.array_equal(res.x, x0)
        assert np.allclose(res.w, mrt_beamformer(x0, cfg), rtol=0.0, atol=1e-15)
        assert res.best_trace == []

    @pytest.mark.parametrize("factor,exits", [(0.99, True), (1.01, False)])
    def test_fires_exactly_below_the_critical_power(self, monkeypatch, table,
                                                    factor, exits):
        # beta0 N / 2^rs + sigma2 / pa (2^-rs - 1) = 0 at
        # pa = (2^rs - 1) sigma2 / (beta0 N) = 7 / 5 for base_config
        cfg = base_config(pa=1.4 * factor)
        calls = []
        record_probes(monkeypatch, lambda *probe: calls.append(probe))
        res = bisection_outage_min(cfg, table)
        assert res.rounds == len(calls) == (0 if exits else 7)


class TestCertainOutageRounds:
    """At certain outage the bisection runs its rounds with no live lane."""

    def test_returns_the_renormalized_start(self, monkeypatch, table):
        cfg = base_config(pa=1e-3)
        monkeypatch.setattr(ascent, "ascend", _no_probe)
        monkeypatch.setattr(ascent, "_beam_lanes", _no_probe)
        # placements whose matched filter changes bits when renormalized
        _, x0 = rand_point(cfg, 5)
        want = unit_norm(mrt_beamformer(x0, cfg))
        assert want.tobytes() != mrt_beamformer(x0, cfg).tobytes()
        assert bisection_outage_min(cfg, table, x0=x0).w.tobytes() \
            == want.tobytes()
        xs = lane_placements(cfg, 8)
        assert any(unit_norm(mrt_beamformer(x, cfg)).tobytes()
                   != mrt_beamformer(x, cfg).tobytes() for x in xs)
        for lane, x in zip(ascent.bisect_beam_lanes(cfg, xs, table), xs):
            assert lane.w.tobytes() == \
                unit_norm(mrt_beamformer(x, cfg)).tobytes()

    @pytest.mark.parametrize("scheme", ["MA_OB", "FPA_OB", "MA_MRT", "RAP_OB"])
    def test_an_infinite_noise_term(self, table, scheme):
        # sigma2 / pa overflows: the largest threshold, and the screen's
        # bound of every level, is -inf, and no warning is raised
        cfg = dataclasses.replace(preset("ob-demo"), sigma2=1e300, pa=1e-300)
        assert cfg.gain_model.threshold(cfg.n_antennas) == -np.inf
        res = run_scheme(scheme, cfg, table=table, restarts=3)
        assert (res.eps, res.p_out, res.iterations) == (0.0, 1.0, 0)
        assert (res.detail.rounds, res.detail.probes) == (0, [])
        assert res.trace == []


def level_bound(cfg, table, eps):
    """``_margin_bound`` of the surrogate lines at the levels eps, looked
    up as an array, as ``_bisect`` does."""
    mm = moment_match(cfg)
    slope, intercept = surrogate_lookup(table, np.array(eps, dtype=float))
    return ascent._margin_bound(mm, cfg.n_antennas,
                                mm.threshold(cfg.n_antennas), slope, intercept)


class TestLinesFromTheTable:
    """``_bisect`` maps each probe level to its surrogate line; the solvers
    receive the line and never read the table.  A probe whose margin bound
    is negative is screened: it gets no solve and records its bound."""

    @pytest.mark.parametrize("mode", ["joint", "beam_only", "positions_mrt"])
    @pytest.mark.parametrize("name", ["ob-demo", "zf-demo-far", "pa=1.5"])
    def test_apga_solve_gets_the_lookup_of_its_level(self, monkeypatch, table,
                                                     name, mode):
        cfg, lines = SCENARIOS[name], []
        record_probes(monkeypatch, lambda slope, intercept, _: lines.append(
            (slope, intercept)))
        res = bisection_outage_min(cfg, table, mode=mode)
        bounds = level_bound(cfg, table, [eps for eps, _, _ in res.probes])
        solved = [probe for probe, bound in zip(res.probes, bounds)
                  if bound >= 0.0]
        assert len(lines) == len(solved) == res.rounds - res.screened > 0
        for (eps, _, _), (slope, intercept) in zip(solved, lines):
            assert type(slope) is float and type(intercept) is float
            assert (slope, intercept) == surrogate_lookup(table, eps)
        for probe, bound in zip(res.probes, bounds):
            if bound < 0.0:
                assert probe[1:] == (False, bound)

    @pytest.mark.parametrize("name", ["ob-demo", "zf-demo-far", "m-sweep"])
    def test_beam_lanes_get_the_lookup_of_their_levels(self, monkeypatch,
                                                       table, name):
        cfg = preset(name)
        lines, beam_lanes = [], ascent._beam_lanes

        def recording(mm, rows, w, slope, intercept, max_outer):
            lines.append((slope.copy(), intercept.copy()))
            return beam_lanes(mm, rows, w, slope, intercept, max_outer)
        monkeypatch.setattr(ascent, "_beam_lanes", recording)
        runs = ascent.bisect_beam_lanes(cfg, lane_placements(cfg, 8), table)
        solved, screened = [], 0
        for r in range(max(run.rounds for run in runs)):
            probes = [run.probes[r] for run in runs if run.rounds > r]
            levels = np.array([eps for eps, _, _ in probes])
            bounds = level_bound(cfg, table, levels)
            for probe, bound in zip(probes, bounds):
                if bound < 0.0:
                    assert probe[1:] == (False, bound)
                    screened += 1
            if (bounds >= 0.0).any():
                solved.append(levels[bounds >= 0.0])
        assert len(lines) == len(solved)
        for levels, (slope, intercept) in zip(solved, lines):
            want_slope, want_intercept = surrogate_lookup(table, levels)
            assert slope.tobytes() == want_slope.tobytes()
            assert intercept.tobytes() == want_intercept.tobytes()
        assert sum(run.screened for run in runs) == screened
        assert (screened > 0) == (name == "zf-demo-far")


class TestMarginBound:
    """``_margin_bound`` caps the margin at every (w, x), so a probe it
    screens is one no solve could make feasible."""

    @given(name=st.sampled_from(PRESET_NAMES),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           level=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    # a subnormal level puts the peak of the lin parabola past float range
    @example(name="ob-demo", seed=0, level=5e-324)
    @settings(max_examples=200, deadline=None)
    def test_bounds_the_margin(self, table, name, seed, level):
        cfg = preset(name)
        eps = level * table.max_eps
        w, x = rand_point(cfg, seed)
        bound = level_bound(cfg, table, [eps])[0]
        assert margin_objective(w, x, eps, table, cfg) <= bound
        assert margin_objective(mrt_beamformer(x, cfg), x, eps, table,
                                cfg) <= bound

    @pytest.mark.parametrize("mode", ["joint", "beam_only", "positions_mrt"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_screened_probes_solve_infeasible(self, monkeypatch, table, name,
                                              mode):
        # replay each screened probe from the (w, x) its lane held then:
        # the end of the last solve before it, or the matched-filter start
        cfg = preset(name)
        x0 = feasible_region(cfg).midpoints()
        starts = [(mrt_beamformer(x0, cfg), x0)]
        record_probes(monkeypatch, lambda slope, intercept, res: starts.append(
            (res.w, res.x)))
        res = bisection_outage_min(cfg, table, mode=mode)
        monkeypatch.undo()
        bounds = level_bound(cfg, table, [eps for eps, _, _ in res.probes])
        solved = 0
        for (eps, feasible, margin), bound in zip(res.probes, bounds):
            if bound >= 0.0:
                solved += 1
                continue
            w, x = starts[solved]
            replay = apga_solve(w, x, *surrogate_lookup(table, eps), cfg,
                                mode=mode)
            assert replay.objective < 0.0
        assert res.screened == len(res.probes) - solved
        assert (res.screened > 0) == name.startswith("zf-demo")


def assert_same_bisection(a, b):
    """Two BisectionResults agree bit for bit, trace records included."""
    assert (a.eps, a.p_out, a.feasible, a.rounds, a.total_iterations) == \
        (b.eps, b.p_out, b.feasible, b.rounds, b.total_iterations)
    assert a.probes == b.probes
    assert a.best_trace == b.best_trace
    assert (a.w.tobytes(), a.x.tobytes()) == (b.w.tobytes(), b.x.tobytes())


def lane_placements(cfg, count, seed=11):
    return random_feasible_positions(feasible_region(cfg),
                                     np.random.default_rng(seed), count)


class TestBeamLanes:
    """bisect_beam_lanes against one bisection_outage_min per placement."""

    @staticmethod
    def reference(cfg, x, table, params=None):
        return bisection_outage_min(cfg, table, params, x0=x,
                                    mode="beam_only")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_lane_matches_its_own_bisection(self, table, name):
        cfg = preset(name)
        xs = lane_placements(cfg, 8)
        for lane, x in zip(ascent.bisect_beam_lanes(cfg, xs, table), xs):
            assert_same_bisection(lane, self.reference(cfg, x, table))

    @pytest.mark.parametrize("max_outer", [0, 1, 5])
    def test_iteration_cap_applies_per_lane(self, table, max_outer):
        cfg, params = preset("zf-demo-far"), OptimizerParams(max_outer)
        xs = lane_placements(cfg, 6)
        lanes = ascent.bisect_beam_lanes(cfg, xs, table, params)
        for lane, x in zip(lanes, xs):
            assert_same_bisection(lane, self.reference(cfg, x, table, params))
            assert len(lane.best_trace) <= max_outer

    def test_certain_outage_returns_every_start(self, monkeypatch, table):
        cfg = base_config(pa=1e-3)
        xs = lane_placements(cfg, 4)
        monkeypatch.setattr(ascent, "_beam_lanes", _no_probe)
        for lane, x in zip(ascent.bisect_beam_lanes(cfg, xs, table), xs):
            assert_same_bisection(lane, self.reference(cfg, x, table))

    @pytest.mark.parametrize("bad,message", [
        ("one placement", r"xs must have shape \(B, 5\) with B >= 1, "
                          r"got \(5,\)"),
        ("stack of stacks", r"got \(1, 4, 5\)"),
        ("short rows", r"got \(4, 4\)"),
        ("no rows", r"got \(0, 5\)"),
        ("nan entry", "xs must be finite"),
        ("inf entry", "xs must be finite"),
        ("complex", "xs must be real"),
    ])
    def test_rejects_a_bad_stack_before_any_probe(self, monkeypatch, table,
                                                  bad, message):
        cfg = preset("ob-demo")
        xs = lane_placements(cfg, 4)

        def one_entry(value):
            out = xs.copy()
            out[2, 3] = value
            return out
        xs = {"one placement": lambda: xs[0],
              "stack of stacks": lambda: xs[None],
              "short rows": lambda: xs[:, :-1],
              "no rows": lambda: xs[:0],
              "nan entry": lambda: one_entry(np.nan),
              "inf entry": lambda: one_entry(-np.inf),
              "complex": lambda: xs + 0j}[bad]()
        monkeypatch.setattr(ascent, "_beam_lanes", _no_probe)
        with pytest.raises(ValueError, match=message):
            ascent.bisect_beam_lanes(cfg, xs, table)

    @staticmethod
    def search_lanes(table, delta, descend):
        """``_line_search_lanes`` on six m-sweep lanes at their matched
        filters from the given start deltas, against one ``line_search``
        per lane; the lanes ``descend`` names go down their gradient, so
        they accept nothing."""
        cfg = preset("m-sweep")
        mm = moment_match(cfg)
        xs = lane_placements(cfg, 6)
        rows = mm.rows(xs)
        w = mrt_beamformer(xs, cfg)
        slope, intercept = surrogate_lookup(table, np.full(6, 0.3))
        at = ascent._evaluate(mm, rows, w, slope, intercept)
        g = ascent._grad_w(mm, rows.conj(), at, slope, intercept)
        g[descend] *= -1.0
        delta = np.array(delta)
        accepted, new_w, new_at = ascent._line_search_lanes(
            mm, rows, w, at, g, slope, intercept, delta)
        assert np.isnan(accepted[descend]).all()
        assert np.count_nonzero(np.isnan(accepted)) == len(descend)
        for i in range(6):
            found = line_search(
                lambda c: (ascent._evaluate(mm, rows[i], c, slope[i],
                                            intercept[i]).margin, None),
                w[i], at.margin[i], g[i], unit_norm, delta[i])
            step, beam = (np.nan, w[i]) if found is None else found[:2]
            assert np.array_equal(accepted[i], step, equal_nan=True)
            assert new_w[i].tobytes() == beam.tobytes()
            lane = ascent._evaluate(mm, rows[i], beam, slope[i], intercept[i])
            assert new_at.margin[i] == lane.margin
            assert new_at.v[i].tobytes() == lane.v.tobytes()
            assert (new_at.lin[i], new_at.thr[i]) == (lane.lin, lane.thr)

    def test_lane_search_is_line_search_in_every_lane(self, table):
        # the descending lanes run out of steps in the same round
        self.search_lanes(table, [1e-3, 1.0, 1e-3, 0.25, 1e-3, 1.0], [0, 2, 4])

    def test_a_lane_runs_out_of_steps_while_others_search(self, monkeypatch,
                                                          table):
        # lane 0 runs out after three tries (4, 2 and 1 MIN_STEP), while
        # lanes 2 and 4 (1.0: nine tries) still search and lane 1 (1e-10:
        # 17 tries) runs out later
        rounds, try_lanes = [], ascent._try_lanes

        def recording(mm, rows, w, obj, g, slope, intercept, delta):
            rounds.append(len(delta))
            return try_lanes(mm, rows, w, obj, g, slope, intercept, delta)
        monkeypatch.setattr(ascent, "_try_lanes", recording)
        self.search_lanes(table, [4 * ascent.MIN_STEP, 1e-10, 1.0, 1e-3,
                                  1.0, 0.25], [0, 1])
        assert rounds[:4] == [6, 5, 5, 4]

    def test_a_lane_leaves_once_it_accepts_or_runs_out_of_steps(
            self, monkeypatch):
        # a scripted _try_lanes: lane i, named by its slope, accepts at its
        # accept_at[i]-th try only, and a try's beam and evaluation hold
        # 100 i + the try's count; the old ones hold -1 - i
        never, tiny = 10**6, ascent.MIN_STEP
        accept_at = np.array([1, 3, never, 6, never])
        count, rounds = np.zeros(5, dtype=int), []

        def scripted(mm, rows, w, obj, g, slope, intercept, delta):
            lanes = slope.astype(int)
            count[lanes] += 1
            rounds.append((lanes.tolist(), delta.tolist()))
            mark = 100.0 * lanes + count[lanes]
            return (np.outer(mark, [1, 1j]), ascent._Evaluation(
                mark, np.outer(mark, [1j, 1, 1]), mark, -mark),
                count[lanes] == accept_at[lanes])
        monkeypatch.setattr(ascent, "_try_lanes", scripted)
        old = -1.0 - np.arange(5)
        w = np.outer(old, [1, 1j])
        at = ascent._Evaluation(old, np.outer(old, [1j, 1, 1]), old, -old)
        accepted, new_w, new_at = ascent._line_search_lanes(
            None, np.zeros((5, 3, 2)), w, at, np.zeros_like(w),
            np.arange(5.0), np.zeros(5),
            np.array([1.0, 1.0, 4 * tiny, 1.0, 2 * tiny]))
        # lane 4 runs out while lanes 1-3 search, lane 1 accepts, then lane
        # 2 runs out while lane 3 searches; lane 3 accepts at its 6th try
        assert rounds == [
            ([0, 1, 2, 3, 4], [1.0, 1.0, 4 * tiny, 1.0, 2 * tiny]),
            ([1, 2, 3, 4], [0.5, 2 * tiny, 0.5, tiny]),
            ([1, 2, 3], [0.25, tiny, 0.25]),
            ([3], [0.125]), ([3], [0.0625]), ([3], [0.03125])]
        assert np.array_equal(accepted, [1.0, 0.25, np.nan, 0.03125, np.nan],
                              equal_nan=True)
        mark = np.array([1.0, 103.0, -3.0, 306.0, -5.0])
        assert np.array_equal(new_w, np.outer(mark, [1, 1j]))
        for got, want in zip(new_at, (mark, np.outer(mark, [1j, 1, 1]), mark,
                                      -mark)):
            assert np.array_equal(got, want)

    def test_stacked_margin_kernels_match_each_lane(self, table):
        cfg = preset("m-sweep")
        mm = moment_match(cfg)
        xs = lane_placements(cfg, 50)
        rng = np.random.default_rng(2)
        ws = rng.standard_normal(xs.shape) + 1j * rng.standard_normal(xs.shape)
        slope, intercept = surrogate_lookup(table, rng.uniform(0, 0.9, 50))
        rows = mm.rows(xs)
        at = ascent._evaluate(mm, rows, ws, slope, intercept)
        grads = ascent._grad_w(mm, rows.conj(), at, slope, intercept)
        for i in range(len(xs)):
            one = mm.rows(xs[i])
            assert np.array_equal(rows[i], one)
            lane = ascent._evaluate(mm, one, ws[i], slope[i], intercept[i])
            assert at.margin[i] == lane.margin
            assert np.array_equal(at.v[i], lane.v)
            assert np.array_equal(grads[i], ascent._grad_w(
                mm, one.conj(), lane, slope[i], intercept[i]))


class TestTracesOnDemand:
    """A lane's trace is built from its solver's record when the lane is
    indexed, and its result keeps it."""

    @pytest.fixture
    def built(self, monkeypatch):
        built, lane_trace = [], ascent._lane_trace

        def counting(history, lane, n_iter):
            built.append((lane, n_iter))
            return lane_trace(history, lane, n_iter)
        monkeypatch.setattr(ascent, "_lane_trace", counting)
        return built

    def test_indexing_a_lane_builds_its_trace_once(self, built, table):
        cfg = preset("ob-demo")
        lanes = ascent.bisect_beam_lanes(cfg, lane_placements(cfg, 8), table)
        assert built == []
        res = lanes[3]
        assert len(built) == 1
        trace = res.best_trace
        assert built == [(3, len(trace))] and trace
        assert res.best_trace is trace and len(built) == 1

    def test_a_rap_ob_solve_builds_one_trace(self, built, table):
        res = run_scheme("RAP_OB", preset("ob-demo"), restarts=100,
                         table=table)
        # the winner's, which run_scheme reads for its trace
        assert len(built) == 1 and built[0][1] == len(res.trace) > 0
        assert res.detail.best_trace == res.detail.best_trace == res.trace


class TestRapObWinner:
    """RAP_OB ranks its lanes by the outage array and builds the result of
    the winner alone."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", ["ob-demo", "k-sweep", "cdf-demo"])
    def test_is_the_first_lowest_outage_lane(self, table, name, seed):
        cfg = preset(name)
        res = run_scheme("RAP_OB", cfg, seed=seed, restarts=100, table=table)
        xs = random_feasible_positions(
            feasible_region(cfg), np.random.default_rng(seed), 100)
        runs = ascent.bisect_beam_lanes(cfg, xs, table)
        best = min(runs, key=lambda r: r.p_out)     # the first on ties
        assert res.w.tobytes() == best.w.tobytes()
        assert res.x.tobytes() == best.x.tobytes()
        assert (res.eps, res.p_out) == (best.eps, best.p_out)
        assert res.detail.probes == best.probes
        assert res.trace == res.detail.best_trace == best.best_trace
        assert res.iterations == sum(r.total_iterations for r in runs)

    def test_builds_one_result_and_at_most_one_trace(self, monkeypatch,
                                                     table):
        results, traces = [], []

        class Counted(ascent.BisectionResult):
            def __init__(self, *args, **kwargs):
                results.append(kwargs["eps"])
                super().__init__(*args, **kwargs)
        lane_trace = ascent._lane_trace

        def counting(*args):
            traces.append(args[1:])
            return lane_trace(*args)
        monkeypatch.setattr(ascent, "BisectionResult", Counted)
        monkeypatch.setattr(ascent, "_lane_trace", counting)
        res = run_scheme("RAP_OB", preset("ob-demo"), restarts=100,
                         table=table)
        assert results == [res.eps] and len(traces) <= 1


class ScriptedSolve:
    """A stand-in for the ``solve`` that ``_bisect`` drives: lane b's k-th
    solve returns the margin and iteration count ``script[b][k]`` and its
    outage threshold, the third entry if there is one and else 1, the
    lane's beam turned by a phase and its placement shifted, both unique
    to the call, and a trace that names the call, the lane and the count.
    ``out[b][k]`` keeps what lane b's k-th solve returned, with its call."""

    def __init__(self, script):
        self.script, self.calls = script, 0
        self.out = [[] for _ in script]

    def __call__(self, live, w, x, slope, intercept):
        call, self.calls = self.calls, self.calls + 1
        w, x = w * np.exp(0.1j * (call + 1)), x + 1e-3 * (call + 1)
        margins, thresholds, n_iter = [], [], []
        for i, b in enumerate(live.tolist()):
            margin, n, *thr = self.script[b][len(self.out[b])]
            self.out[b].append((call, w[i].copy(), x[i].copy()))
            margins.append(margin)
            thresholds.append(thr[0] if thr else 1.0)
            n_iter.append(n)
        return (w, x, np.array(margins), np.array(thresholds),
                np.array(n_iter), lambda b, n: [("trace", call, b, n)])


class ReusingSolve(ScriptedSolve):
    """``ScriptedSolve`` that then overwrites its w and x arguments with
    NaN, as a solve that reuses its inputs as work space may."""

    def __call__(self, live, w, x, slope, intercept):
        out = super().__call__(live, w, x, slope, intercept)
        w[...], x[...] = np.nan, np.nan
        return out


def scripted_bisection(cfg, table, script, out, w0, x0):
    """What ``_bisect`` must report for one lane driven by ``script``, from
    the start (w0, x0), given ``out``, what its solves returned: the
    bracket of ``bisect_confidence``, the screen of ``level_bound``, the
    verdict ``margin > 0`` at a positive outage threshold, and the (w, x)
    and trace of the last feasible probe's solve, else of the last probe.
    Returns the fields of the BisectionResult, with the trace as
    ``best_trace``."""
    lo, hi = 0.0, table.max_eps
    eps = min(0.5, hi)
    probes, solved, screened, total = [], 0, 0, 0
    w, x, trace, best = w0, x0, [], None
    while True:
        bound = level_bound(cfg, table, [eps])[0]
        if bound < 0.0:
            probes.append((eps, False, bound))
            screened += 1
            trace = []
        else:
            margin, n, *thr = script[solved]
            call, w, x = out[solved]
            solved += 1
            total += n
            feasible = margin > 0.0 and (not thr or thr[0] > 0.0)
            probes.append((eps, feasible, margin))
            trace = [("trace", call, 0, n)] if n else []
            if feasible:
                best = (eps, w, x, trace)
        if probes[-1][1]:
            lo = eps
        else:
            hi = eps
        if not hi - lo > DEFAULT_TAU:
            break
        eps = 0.5 * (lo + hi)
    eps, w, x, trace = best or (0.0, w, x, trace)
    return dict(eps=eps, w=w, x=x, feasible=eps > 0.0, rounds=len(probes),
                probes=probes, screened=screened, total_iterations=total,
                best_trace=trace)


class TestScriptedBisection:
    """``_bisect``'s bookkeeping under scripted verdicts: brackets, screen,
    counts, the returned (w, x), its closed-form outage and its trace."""

    # zf-demo-far screens every level above about 0.68
    SCRIPT = [
        [(-1.0, 5)] * 7,                            # infeasible throughout
        [(1.0, 9)] * 7,                             # climbs into the screen
        [(0.3, 4), (0.2, 6), (-0.1, 3), (0.05, 1), (-0.2, 2), (0.7, 8),
         (-0.4, 1)],
        [(-0.5, 2), (0.25, 0), (-1e-3, 7), (-2.0, 1), (-0.3, 4), (-1.0, 3),
         (-0.6, 2)],                                # feasible at 0 iterations
        [(0.0, 3), (1e-9, 2), (0.0, 1), (-1.0, 1), (5.0, 11), (0.0, 2),
         (0.1, 1)],                                 # margin 0 is infeasible
        [(0.4, 3, -1e-4), (0.2, 2), (0.3, 1, 0.0), (0.6, 5, 2.0), (0.1, 4),
         (0.2, 1, -3.0), (0.5, 2)],                 # so is threshold <= 0
    ]

    @staticmethod
    def run(cfg, table, script, xs, kind=ScriptedSolve):
        solve = kind(script)
        return ascent._bisect(cfg, table, xs, solve), solve

    @staticmethod
    def check(cfg, table, script, xs, results, solve):
        want = [scripted_bisection(cfg, table, lane, out, w0, x)
                for lane, out, w0, x in zip(script, solve.out,
                                            mrt_beamformer(xs, cfg), xs)]
        for b, (res, ref) in enumerate(zip(results, want)):
            assert (res.eps, res.feasible, res.rounds, res.screened,
                    res.total_iterations) == (
                ref["eps"], ref["feasible"], ref["rounds"], ref["screened"],
                ref["total_iterations"])
            assert res.probes == ref["probes"]
            assert res.w.tobytes() == ref["w"].tobytes()
            assert res.x.tobytes() == ref["x"].tobytes()
            assert res.best_trace == [(tag, call, b, n) for tag, call, _, n
                                      in ref["best_trace"]]
        # p_out is one closed-form call on the stack of returned (w, x)
        p_out = cfg.gain_model.outage(np.array([r["w"] for r in want]),
                                      np.array([r["x"] for r in want]))
        assert [r.p_out for r in results] == p_out.tolist()
        return want

    @pytest.mark.parametrize("kind", [ScriptedSolve, ReusingSolve])
    def test_lanes_keep_their_own_verdict_paths(self, table, kind):
        cfg = preset("zf-demo-far")
        xs = lane_placements(cfg, len(self.SCRIPT))
        results, solve = self.run(cfg, table, self.SCRIPT, xs, kind)
        want = self.check(cfg, table, self.SCRIPT, xs, results, solve)
        assert [r["screened"] for r in want] == [0, 3, 2, 0, 0, 0]
        assert [r["eps"] > 0.0 for r in want] == [False, True, True, True,
                                                  True, True]
        assert [f for _, f, _ in want[5]["probes"]][:3] == [False, True,
                                                            False]
        assert want[3]["best_trace"] == []      # its feasible solve ran 0
        # each lane alone keeps its verdict path; lane 1 alone has rounds
        # where every lane is screened and no solve runs.  Its (w, x) differ
        # from the stack's, since the fake moves them by the call's number
        for b, (lane, x) in enumerate(zip(self.SCRIPT, xs)):
            (alone,), one = self.run(cfg, table, [lane], x[None], kind)
            self.check(cfg, table, [lane], x[None], [alone], one)
            stacked = results[b]
            assert (alone.eps, alone.rounds, alone.screened,
                    alone.total_iterations, alone.probes) == (
                stacked.eps, stacked.rounds, stacked.screened,
                stacked.total_iterations, stacked.probes)


class TestCallersPlacements:
    """The bisection writes its lanes' (w, x) in place, in its own copy of
    the placements: the caller's arrays keep their bytes."""

    def test_joint_probes_leave_x0(self, table):
        cfg = preset("ob-demo")
        x0 = lane_placements(cfg, 1)[0]
        before = x0.tobytes()
        res = bisection_outage_min(cfg, table, x0=x0)
        assert res.x.tobytes() != before        # the probes moved x
        assert x0.tobytes() == before

    def test_beam_lanes_leave_xs(self, table):
        cfg = preset("ob-demo")
        xs = lane_placements(cfg, 6)
        before = xs.tobytes()
        ascent.bisect_beam_lanes(cfg, xs, table)
        assert xs.tobytes() == before


class TestSolverSetUp:
    """``bisection_outage_min`` builds ``apga_solve``'s set-up once and runs
    every probe on it, on the gain model its scenario was built with."""

    @pytest.mark.parametrize("mode", ["joint", "beam_only", "positions_mrt"])
    def test_built_once_per_bisection(self, monkeypatch, table, mode):
        cfg = preset("m-sweep")
        counts = {}
        # outage.moment_match builds every MomentMatch, under any name
        for module, name in ((outage, "MomentMatch"),
                             (ascent, "feasible_region")):
            def counted(*args, name=name, original=getattr(module, name),
                        **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        seen = []
        for max_outer in (1, 2000):
            counts.update(MomentMatch=0, feasible_region=0)
            res = bisection_outage_min(cfg, table, OptimizerParams(max_outer),
                                       mode=mode)
            assert res.rounds - res.screened > 1
            seen.append(dict(counts))
        assert seen[0] == seen[1] == {"MomentMatch": 0, "feasible_region": 1}

    @pytest.mark.parametrize("mode", ["joint", "beam_only", "positions_mrt"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_a_reused_solver_equals_fresh_solves(self, table, name, mode):
        # consecutive probes on one set-up, each from where the last ended,
        # as a bisection runs them: nothing of one leaks into the next
        cfg = preset(name)
        solve = ascent._apga_solver(cfg, None, mode)
        x = feasible_region(cfg).midpoints()
        w = mrt_beamformer(x, cfg)
        for eps in (0.5, 0.25, 0.75, 0.125, 0.6):
            line = surrogate_lookup(table, eps)
            reused, fresh = solve(w, x, *line), apga_solve(w, x, *line, cfg,
                                                           mode=mode)
            assert reused.w.tobytes() == fresh.w.tobytes()
            assert reused.x.tobytes() == fresh.x.tobytes()
            assert (reused.objective, reused.n_iter, reused.converged) == \
                (fresh.objective, fresh.n_iter, fresh.converged)
            assert reused.trace == fresh.trace
            w, x = reused.w, reused.x

    @staticmethod
    def assert_fresh(reused, w, x, line, cfg, mode):
        fresh = apga_solve(w, x, *line, cfg, mode=mode)
        assert reused.w.tobytes() == fresh.w.tobytes()
        assert reused.x.tobytes() == fresh.x.tobytes()
        assert (reused.objective, reused.n_iter, reused.converged) == \
            (fresh.objective, fresh.n_iter, fresh.converged)
        assert reused.trace == fresh.trace

    @pytest.mark.parametrize("mode", ["joint", "beam_only", "positions_mrt"])
    @pytest.mark.parametrize("name", ["ob-demo", "zf-demo-far", "m-sweep"])
    def test_probes_started_in_any_order_equal_fresh_solves(
            self, table, name, mode):
        # probes on one set-up from two chains of starts; a chain moves on
        # to where its probe ended or keeps its start.  So probes start
        # where the last one ended, where the last one started or on the
        # other chain
        cfg = preset(name)
        solve = ascent._apga_solver(cfg, None, mode)
        region = feasible_region(cfg)
        xs = [region.midpoints(),
              random_feasible_positions(region, np.random.default_rng(3))]
        ws = [mrt_beamformer(x, cfg) for x in xs]
        schedule = ((0, False), (0, True), (0, True), (1, True), (1, False),
                    (1, True), (0, True), (1, True))
        levels = (0.5, 0.25, 0.75, 0.125, 0.6, 0.3, 0.45, 0.2)
        for (chain, moves_on), eps in zip(schedule, levels):
            line = surrogate_lookup(table, eps)
            w, x = ws[chain], xs[chain]
            res = solve(w, x, *line)
            self.assert_fresh(res, w, x, line, cfg, mode)
            if moves_on:
                ws[chain], xs[chain] = res.w, res.x


class TestLineSearch:
    @pytest.mark.parametrize("start,first", [(0.25, 4.5), (0.125, 2.25)])
    def test_tries_the_given_start_first(self, start, first):
        # same quadratic as below; both starts already reach the model
        calls = []

        def value(c):
            calls.append(c[0])
            return float(-3.0 * (c[0] - 3.0) ** 2), None
        grad = np.array([18.0])
        delta, cand, _, _ = line_search(
            value, np.array([0.0]), -27.0, grad,
            lambda c: np.clip(c, 0.0, 10.0), start)
        assert calls == [first]
        assert (delta, cand[0]) == (start, first)

    def test_first_step_reaching_the_model(self):
        # ascend -3 (p - 3)^2 on [0, 10] from p = 0 (value -27, slope 18):
        # delta = 1 lands on the clamp at 10 and delta = 0.5 on 9, both
        # below the model; delta = 0.25 reaches 4.5, value -6.75 >= -27
        calls = []

        def value(c):
            calls.append(c[0])
            return float(-3.0 * (c[0] - 3.0) ** 2), f"evaluated at {c[0]}"
        grad = np.array([18.0])
        delta, cand, val, evaluation = line_search(
            value, np.array([0.0]), -27.0, grad,
            lambda c: np.clip(c, 0.0, 10.0), 1.0)
        assert calls == [10.0, 9.0, 4.5]
        assert (delta, cand[0], val) == (0.25, 4.5, -6.75)
        assert evaluation == "evaluated at 4.5"   # the accepted candidate's

    def test_none_when_no_step_is_accepted(self, monkeypatch):
        monkeypatch.setattr(ascent, "MIN_STEP", 0.1)
        calls = []

        def value(c):
            calls.append(c)
            return -1.0, None    # always below the model, which starts at 0
        res = line_search(value, np.zeros(2), 0.0, np.ones(2), lambda c: c,
                          1.0)
        assert res is None
        # delta = 1, 0.5, 0.25, 0.125 are tried; 0.0625 < MIN_STEP is not
        assert len(calls) == 4


def scripted_block(rejections):
    """A block that plays back searches and records the start step it is
    handed: each entry of ``rejections`` is how many candidates a search
    rejects before it accepts one, or None for a search that accepts none."""
    starts, script = [], iter(rejections)

    def block(obj, delta):
        starts.append(delta)
        rejected = next(script)
        if rejected is None:
            return obj, None
        return obj + 1.0, (delta * ascent.SHRINK ** rejected, None, obj + 1.0,
                           None)
    return block, starts


class TestWarmSteps:
    """``ascend`` starts a search at its block's last accepted step, and at
    twice that only after GROW_AFTER first-try acceptances in a row."""

    def test_start_steps_follow_the_accepted_ones(self):
        assert (ascent.GROW_AFTER, ascent.DELTA0) == (2, 1.0)
        rejections = [3, 0, 0, None, 0, 0, 0, 1, None, 0, 0, 0]
        block, starts = scripted_block(rejections)
        # the position block moves the objective, so the loop never stops
        mover, _ = scripted_block([0] * len(rejections))
        _, trace, converged = ascend(0.0, len(rejections), beam=block,
                                     pos=mover)
        assert not converged
        assert starts == [
            1.0,      # the first search starts at DELTA0 and backtracks
            0.125,    # to 0.125; the next two start there and accept it
            0.125,
            0.25,     # two first-try acceptances in a row: the start doubles
            0.25,     # the search before accepted nothing: start and run kept
            0.5,
            1.0,
            1.0,      # capped at DELTA0; this search backtracks once
            0.5,      # to 0.5, so the start stays there
            0.5,      # after a search that accepted nothing
            0.5,      # after one first-try acceptance
            1.0]      # and doubles after the second
        assert [r.delta_beam for r in trace] == [
            s * ascent.SHRINK ** k if k is not None else None
            for s, k in zip(starts, rejections)]

    def test_candidates_per_iteration_on_the_18_cases(self, monkeypatch,
                                                      table):
        # GROW_AFTER 2 gives 2.46, GROW_AFTER 0 (a start that always
        # doubles) 3.22; the bound leaves room for last-ulp drift
        candidates, search = 0, ascent.line_search

        def counted_search(evaluate, *args):
            def counted_evaluate(cand):
                nonlocal candidates
                candidates += 1
                return evaluate(cand)
            return search(counted_evaluate, *args)

        monkeypatch.setattr(ascent, "line_search", counted_search)
        iterations = sum(run_scheme(scheme, preset(name), table=table).iterations
                         for name in PRESET_NAMES
                         for scheme in ("MA_OB", "FPA_OB", "MA_MRT"))
        assert candidates / iterations <= 2.8


def scripted_extrapolation(verdicts):
    """An extrapolation block that records the weight it is handed: each
    entry of ``verdicts`` says whether an attempt (a nonzero weight) moves
    to a point one higher, or keeps the iterate."""
    weights, script = [], iter(verdicts)

    def extrapolate(obj, beta):
        weights.append(beta)
        if beta and next(script):
            return obj + 1.0, beta
        return obj, None
    return extrapolate, weights


def fista_t(count):
    """FISTA's t_1, ..., t_count from t_1 = 1."""
    t = [1.0]
    while len(t) < count:
        t.append((1.0 + np.sqrt(1.0 + 4.0 * t[-1] ** 2)) / 2.0)
    return t


class TestMomentum:
    """``ascend`` extrapolates from iteration MOMENTUM_AFTER + 1 on with
    FISTA's weights, and restarts them after a point it does not keep."""

    def test_weight_table_is_the_fista_recursion(self):
        # ascend and _beam_lanes read the weight after k iterations since
        # the start or a restart from this table: (t_k - 1) / t_{k+1}, with
        # t_0 = 0 at k = 0, which no iteration past MOMENTUM_AFTER reads
        weights = ascent._fista_weights(40)
        t = [0.0] + fista_t(40)
        want = [(t[k] - 1.0) / t[k + 1] for k in range(40)]
        assert weights.tobytes() == np.array(want).tobytes()
        assert weights[1] == 0.0            # the iteration after a restart
        assert ascent._fista_weights(20).tobytes() == weights[:20].tobytes()

    def test_weights_follow_the_fista_schedule(self):
        assert ascent.MOMENTUM_AFTER == 5
        # attempts at iterations 6-9 and 11-13; 9 and 13 are rejected
        verdicts = [True, True, True, False, True, True, False]
        extrapolate, weights = scripted_extrapolation(verdicts)
        mover, _ = scripted_block([0] * 14)
        _, trace, converged = ascend(0.0, 14, pos=mover,
                                     extrapolate=extrapolate)
        assert not converged
        t = fista_t(9)
        beta = [(t[k - 2] - 1.0) / t[k - 1] for k in range(2, 10)]
        want = ([0.0] * 5             # no attempt before iteration 6
                + beta[4:8]           # beta_6 ... beta_9
                + [0.0]               # t restarted at 1: beta is 0
                + beta[1:4]           # and the schedule starts over
                + [0.0])              # after the second restart
        assert weights == pytest.approx(want, rel=1e-15, abs=0.0)
        assert weights[5] == pytest.approx(0.598, abs=1e-3)
        assert weights[10] == pytest.approx(0.2818, abs=1e-4)
        kept = [None] * 5 + weights[5:8] + [None, None] + weights[10:12] \
            + [None, None]
        assert [r.beta for r in trace] == kept
        # the position block adds 1 in every iteration and a kept point 1
        # more; a rejected point adds nothing
        rises = np.diff([0.0] + [r.objective for r in trace])
        assert rises.tolist() == [1.0 if b is None else 2.0 for b in kept]

    def test_apga_keeps_only_points_that_raise_the_margin(self, monkeypatch,
                                                            table):
        calls, outer = [], ascent.ascend

        def recording_ascend(*args, extrapolate=None, **kwargs):
            def recorded(obj, beta):
                moved = extrapolate(obj, beta)
                calls.append((obj, beta, *moved))
                return moved
            return outer(*args, **kwargs,
                         extrapolate=extrapolate and recorded)

        monkeypatch.setattr(ascent, "ascend", recording_ascend)
        cfg = preset("m-sweep")
        x0 = feasible_region(cfg).midpoints()
        apga_solve(mrt_beamformer(x0, cfg), x0,
                   *surrogate_lookup(table, 0.5), cfg)
        attempts = [c for c in calls if c[1]]
        rejected = [c for c in attempts if c[3] is None]
        assert rejected and len(rejected) < len(attempts)
        for before, beta, after, kept in attempts:
            if kept is None:
                assert after == before
            else:
                assert kept == beta and after > before

    def test_ma_ob_iterations_on_the_presets(self, table):
        # 9,065 without momentum, 1,488 with it, 946 with the reach stop
        assert sum(run_scheme("MA_OB", preset(name), table=table).iterations
                   for name in PRESET_NAMES) <= 1200

    def test_fpa_ob_iterations_on_the_presets(self, table):
        # 2,492 without momentum, 686 with it, 414 with the reach stop
        assert sum(run_scheme("FPA_OB", preset(name), table=table).iterations
                   for name in PRESET_NAMES) <= 550

    def test_rap_ob_lane_iterations_on_m_sweep(self, table):
        # 100 lanes: 51,698 without momentum, 27,339 with it, 12,400 with
        # the reach stop
        res = run_scheme("RAP_OB", preset("m-sweep"), seed=0, restarts=100,
                         table=table)
        assert res.iterations <= 18000


def scripted_gains(gains):
    """A block that accepts a step in every search and adds the next entry
    of ``gains`` to the objective."""
    script = iter(gains)

    def block(obj, delta):
        obj += next(script)
        return obj, (delta, None, obj, None)
    return block


class TestReachStop:
    """Given a target, ``ascend`` stops as converged once the objective
    cannot reach it at the cap even at the pace of the last iteration."""

    def test_stops_once_the_target_is_out_of_reach(self):
        # -1000 + 1 per iteration reaches at most -900 by iteration 100
        obj, trace, converged = ascend(-1000.0, 100, pos=scripted_gains(
            [1.0] * 100), target=0.0)
        assert converged
        # the rule holds from iteration 1 on but waits for MOMENTUM_AFTER
        assert len(trace) == ascent.MOMENTUM_AFTER + 1
        assert obj == -1000.0 + len(trace)

    @pytest.mark.parametrize("start,gains,target", [
        (-1000.0, [1.0] * 100, None),     # no target: the relative stop only
        (-100.0, [1.0] * 100, 0.0),       # reaches exactly 0 at the cap
        (0.5, [2.0 ** -10] * 100, 0.0),   # a nonnegative objective
        (-90.0, [0.5] * 100, -50.0),      # a negative target in reach
    ])
    def test_runs_to_the_cap_while_the_target_is_in_reach(self, start, gains,
                                                          target):
        obj, trace, converged = ascend(start, 100, pos=scripted_gains(gains),
                                       target=target)
        assert not converged
        assert len(trace) == 100
        assert obj == start + sum(gains)

    def test_never_fires_at_the_cap(self):
        # each projection reaches 0.25 until the last iteration gains half
        # as much and leaves -0.25: the loop ends at the cap, not the rule
        gains = [1.0] * 9 + [0.5]
        obj, trace, converged = ascend(-9.75, 10, pos=scripted_gains(gains),
                                       target=0.0)
        assert obj < 0.0
        assert len(trace) == 10
        assert not converged

    def test_one_stop_text_for_floats_and_lanes(self):
        # the relative test is the old |obj - start| < OBJ_TOL max(1, |obj|)
        # on every pair, NaN and inf included, and a lane array gets each
        # float's verdict
        tol = ascent.OBJ_TOL
        values = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, 1e-9, 5e-9, 1e8, -3e7,
                  float(np.nextafter(1.0, 0.0)), math.nan, math.inf,
                  -math.inf]
        pairs = [(o, o + d) for o in values
                 for d in (0.0, tol, -tol, 0.5 * tol, 2.0 * tol * abs(o), 1.0)]
        pairs += [(o, s) for o in values for s in values]
        obj, start = (np.array(v) for v in zip(*pairs))
        for it, target in ((3, None), (8, None), (8, 0.0), (100, 0.0)):
            with np.errstate(invalid="ignore"):
                lanes = ascent._stops(obj, start, it, 100, target)
            floats = [ascent._stops(o, s, it, 100, target) for o, s in pairs]
            assert lanes.tolist() == floats
            if target is None:
                assert floats == [bool(abs(o - s) < tol * max(1.0, abs(o)))
                                  for o, s in pairs]

    @pytest.mark.parametrize("solver,target", [
        ("joint", 0.0), ("beam_only", 0.0), ("positions_mrt", None),
        ("pgd_solve", None), ("toy", None)])
    def test_only_the_ob_ascents_pass_a_target(self, monkeypatch, table,
                                               solver, target):
        targets, outer = [], ascent.ascend

        def recording_ascend(*args, **kwargs):
            bound = inspect.signature(outer).bind(*args, **kwargs)
            targets.append(bound.arguments.get("target"))
            return outer(*args, **kwargs)

        monkeypatch.setattr(ascent, "ascend", recording_ascend)
        monkeypatch.setattr(zf, "ascend", recording_ascend)
        cfg = preset("zf-demo-far")
        x0 = feasible_region(cfg).midpoints()
        if solver == "pgd_solve":
            zf.pgd_solve(x0, cfg)
        elif solver == "toy":
            maximize_gamma_objective(
                lambda v: v[0] + 1.0, lambda v: 2.0 * np.sqrt(v[0]),
                [(0.0, 2.0)], table=table)
        else:
            apga_solve(mrt_beamformer(x0, cfg), x0,
                       *surrogate_lookup(table, 0.4), cfg, mode=solver)
        assert targets and all(t == target for t in targets)

    @pytest.mark.parametrize("mode", ["joint", "beam_only"])
    @pytest.mark.parametrize("eps", [0.3, 0.8])
    def test_ends_an_infeasible_probe_early(self, table, mode, eps):
        # m-sweep's margins stay below -1 at these levels
        cfg = preset("m-sweep")
        x0 = feasible_region(cfg).midpoints()
        res = apga_solve(mrt_beamformer(x0, cfg), x0,
                         *surrogate_lookup(table, eps), cfg, mode=mode)
        last, prev = res.trace[-1].objective, res.trace[-2].objective
        assert res.converged and res.n_iter < 50
        assert abs(last - prev) >= ascent.OBJ_TOL * max(1.0, abs(last))
        assert last + (last - prev) * (OptimizerParams().max_outer
                                       - res.n_iter) < 0.0

    def test_lanes_stop_where_their_one_lane_solve_does(self, table):
        cfg = preset("m-sweep")
        mm = moment_match(cfg)
        xs = lane_placements(cfg, 4)
        w = mrt_beamformer(xs, cfg)
        slope, intercept = surrogate_lookup(table, np.array([0.05, 0.3, 0.5,
                                                             0.8]))
        max_outer = OptimizerParams().max_outer
        beams, obj, thr, n_iter, _ = ascent._beam_lanes(
            mm, mm.rows(xs), w, slope, intercept, max_outer)
        assert (obj < 0.0).all() and (n_iter < 50).all()
        for i in range(len(xs)):
            res = apga_solve(w[i], xs[i], float(slope[i]),
                             float(intercept[i]), cfg, mode="beam_only")
            assert (res.objective, res.threshold, res.n_iter) == \
                (obj[i], thr[i], n_iter[i])
            assert res.w.tobytes() == beams[i].tobytes()


def walk_tree(eps_max, verdict):
    """The levels and verdicts of one bisection over [0, eps_max] that
    walks ``_level_tree``'s ``after`` table from node 1, one
    ``verdict(level)`` a round, as ``_bisect`` and the toy maximizer do."""
    levels, after, _ = ascent._level_tree(eps_max)
    probed, verdicts, node = [], [], 1
    while node:
        probed.append(float(levels[node]))
        verdicts.append(bool(verdict(probed[-1])))
        node = after[2 * node + verdicts[-1]]
    return probed, verdicts


class TestLevelTree:
    def test_always_feasible_ends_near_top(self):
        levels, verdicts = walk_tree(0.9, lambda e: True)
        assert levels[0] == 0.5
        assert levels[-1] >= 0.9 - 0.01
        assert all(verdicts) and (np.diff(levels) > 0.0).all()

    def test_never_feasible_ends_near_zero(self):
        levels, verdicts = walk_tree(1.0, lambda e: False)
        assert levels[-1] <= 0.01
        assert len(levels) == ascent._level_tree(1.0)[2] == 7
        assert not any(verdicts)

    def test_starts_at_top_below_half(self):
        assert walk_tree(0.4, lambda e: True) == ([0.4], [True])

    # 0.32 / 32 is DEFAULT_TAU to the bit: a bracket of exactly that width
    @pytest.mark.parametrize("eps_max", [0.99, 0.7, 0.4, 0.32, 0.005])
    def test_every_path_probes_the_levels_of_a_plain_bisection(self,
                                                               eps_max):
        # each verdict path, the bits of an integer, against the float
        # bracket arithmetic of a one-lane bisection
        depth = ascent._level_tree(eps_max)[2]
        for path in range(2 ** depth):
            lo, hi, eps, want = 0.0, eps_max, min(0.5, eps_max), []
            while True:
                want.append(eps)
                if path >> (len(want) - 1) & 1:
                    lo = eps
                else:
                    hi = eps
                if not hi - lo > DEFAULT_TAU:
                    break
                eps = 0.5 * (lo + hi)
            rounds = itertools.count()
            levels, verdicts = walk_tree(
                eps_max, lambda e: path >> next(rounds) & 1)
            assert levels == want
            assert verdicts == [bool(path >> r & 1) for r in range(len(want))]


class TestShortTable:
    @pytest.fixture(scope="class")
    def short_table(self):
        # one row, at eps 0.4
        table = fit_linear_surrogate(tau=0.4)
        return dataclasses.replace(table, eps_grid=table.eps_grid[:1],
                                   slope=table.slope[:1],
                                   intercept=table.intercept[:1])

    def test_bisection_certifies_table_top(self, short_table):
        res = bisection_outage_min(preset("ob-demo"), short_table)
        assert res.probes[0][0] == 0.4
        assert res.feasible
        assert res.eps == 0.4
        assert res.rounds == 1

    def test_lanes_of_different_path_lengths(self, short_table):
        # a lane that certifies 0.4 stops after one round, the others
        # descend for up to seven, in one stack
        cfg = apply_variable(preset("ob-demo"), "pa_db", 7.5)
        xs = lane_placements(cfg, 8)
        lanes = ascent.bisect_beam_lanes(cfg, xs, short_table)
        assert {1, 7} <= set(lanes.rounds.tolist())
        for lane, x in zip(lanes, xs):
            assert_same_bisection(
                lane, TestBeamLanes.reference(cfg, x, short_table))

    def test_toy_maximizer_runs(self, short_table):
        res = maximize_gamma_objective(
            lambda v: v[0] + 1.0, lambda v: 2.0 * np.sqrt(v[0]),
            [(0.0, 2.0)], table=short_table)
        # the one level, 0.4, is certified at the maximizer of its margin
        assert res.eps == 0.4
        assert res.point.tolist() == [1.0416434759821067]


class TestToyMaximizer:
    def test_scalar_toy_matches_grid(self, table):
        res = maximize_gamma_objective(
            lambda v: v[0] + 1.0, lambda v: 2.0 * np.sqrt(v[0]),
            [(0.0, 2.0)], table=table)
        g = np.arange(0.0, 2.0 + 1e-12, 0.01)
        grid_best = np.max(lower_incomplete_gamma_reg(g + 1.0, 2.0 * np.sqrt(g)))
        assert abs(res.value - grid_best) <= 0.02
        assert 0.0 <= res.point[0] <= 2.0
        assert res.eps == 0.53828125

    def test_planar_toy_matches_grid(self, table):
        res = maximize_gamma_objective(
            lambda v: 2.0 * v[0] + 1.6 * v[1] + 2.1,
            lambda v: 2.1 * np.sqrt(v[0]) + 1.8 * np.sqrt(v[1]) + 0.2,
            [(0.0, 2.0), (0.0, 2.0)], table=table)
        g = np.arange(0.0, 2.0 + 1e-12, 0.01)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        vals = lower_incomplete_gamma_reg(
            2.0 * gx + 1.6 * gy + 2.1,
            2.1 * np.sqrt(gx) + 1.8 * np.sqrt(gy) + 0.2)
        assert abs(res.value - np.max(vals)) <= 0.02
        assert res.eps == 0.421875

    def test_gradient_is_one_sided_at_the_box_faces(self):
        # sqrt has no left neighbour at 0: the probe below is clipped away
        lo, hi = np.zeros(2), np.full(2, 2.0)
        g = ascent._box_gradient(lambda v: np.sqrt(v[0]) + np.sqrt(v[1]),
                                 np.array([0.0, 2.0]), lo, hi)
        assert g[0] == pytest.approx(1e3, rel=1e-12)
        assert g[1] == pytest.approx(0.5 / np.sqrt(2.0), rel=1e-6)


# Certified eps of (MA_OB, FPA_OB, MA_MRT) with the default table; the
# step warm start and the relative stop must leave every one unchanged.
CERTIFIED_EPS = {
    "ob-demo": (0.50765625, 0.4375, 0.0),
    "zf-demo-far": (0.6684375, 0.5995312500000001, 0.6607812500000001),
    "zf-demo-near": (0.6607812500000001, 0.53828125, 0.6531250000000001),
    "k-sweep": (0.453125, 0.421875, 0.0),
    "m-sweep": (0.046875, 0.015625, 0.0),
    "cdf-demo": (0.1484375, 0.1484375, 0.0546875),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_EPS))
def test_certified_eps_pinned(table, name):
    cfg = preset(name)
    runs = [run_scheme(s, cfg, table=table) for s in ("MA_OB", "FPA_OB", "MA_MRT")]
    assert tuple(res.eps for res in runs) == CERTIFIED_EPS[name]
    # p_out comes from a stack of one lane; it keeps the 1-D call's bits
    for res in runs:
        assert res.p_out == secrecy_outage_closed_form(res.w, res.x, cfg)


def test_write_trace_format(tmp_path, table):
    cfg = preset("ob-demo")
    x0 = feasible_region(cfg).midpoints()
    res = apga_solve(mrt_beamformer(x0, cfg), x0,
                     *surrogate_lookup(table, 0.5), cfg)
    path = tmp_path / "trace.txt"
    write_trace(res.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# iteration delta_beam delta_pos objective beta"
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split()
    assert int(first[0]) == 1
    assert float(first[3]) == res.trace[0].objective  # objective parses back


def test_params_are_frozen():
    p = OptimizerParams()
    with pytest.raises(AttributeError):
        p.max_outer = 1


# Runs the package's scipy-free paths with every scipy import refused:
# argv[1] is the table file that fit-table writes.
_SCIPY_BLOCKED_RUN = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())

import numpy as np
from masec import default_table, maximize_gamma_objective, preset, run_scheme
from masec.cli import main

table = default_table()
maximize_gamma_objective(lambda v: float(v[0]) + 1.0,
                         lambda v: 2.0 * np.sqrt(float(v[0])),
                         [(0.0, 2.0)], table=table)
maximize_gamma_objective(
    lambda v: 2.0 * float(v[0]) + 1.6 * float(v[1]) + 2.1,
    lambda v: 2.1 * np.sqrt(float(v[0])) + 1.8 * np.sqrt(float(v[1])) + 0.2,
    [(0.0, 2.0), (0.0, 2.0)], table=table)
for scheme in ("MA_OB", "MA_ZF", "RAP_ZF"):
    run_scheme(scheme, preset("zf-demo-far"), table=table)
assert main(["fit-table", "--out", sys.argv[1]]) == 0
assert main(["mc-check", "--preset", "cdf-demo", "--trials", "2000"]) == 0
"""


def test_runtime_needs_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(masec.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_RUN, str(tmp_path / "t.txt")],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "t.txt").exists()

"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line so the whole battery can be
read at a glance with ``pytest tests/test_acceptance.py -v -s``.
"""
import dataclasses
import time

import numpy as np
import pytest

from masec.ascent import bisection_outage_min, margin_grad_beamformer, \
    margin_grad_positions, margin_objective, maximize_gamma_objective
from masec.bench import SchemeId, apply_variable, cdf_check_case, preset, \
    run_scheme
from masec.gammainc import inverse_lower_incomplete_gamma, \
    lower_incomplete_gamma_reg
from masec.model import eve_los_matrix, feasible_region, main_channel, \
    mrt_beamformer, random_feasible_positions
from masec.outage import collusion_power_samples, gamma_moments, link_stats, \
    monte_carlo_outage, secrecy_outage_closed_form, sum_power_cdf
from masec.surrogate import surrogate_lookup
from masec.zf import bob_gain_loss, bob_gain_loss_grad, pgd_solve, \
    zf_beamformer, zf_outage


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_01_sum_power_cdf_matches_samples():
    # Gamma moment fit vs the empirical CDF of the summed eavesdropper
    # power, Kolmogorov distance over 1e5 draws for three Rician factors
    t0 = time.perf_counter()
    worst = 0.0
    n = 100_000
    for k in (1.0, 4.0, 9.0):
        cfg, x, w = cdf_check_case(k)
        s = np.sort(collusion_power_samples(w, x, cfg, n, seed=11))
        mom = gamma_moments(link_stats(w, x, cfg))
        model = lower_incomplete_gamma_reg(mom.shape, s / mom.scale)
        hi = np.arange(1, n + 1) / n
        dist = max(np.max(np.abs(model - hi)),
                   np.max(np.abs(model - (hi - 1.0 / n))))
        worst = max(worst, dist)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.03 and elapsed < 10.0
    report("cdf-fit", ok,
           f"sup distance {worst:.4f} <= 0.03, {elapsed:.1f}s < 10s")


def test_02_quantile_surrogate_accuracy(table):
    # Every table row approximates the gamma quantile to 5% of its peak
    # over shapes in [2, 100]; rows stay positive-slope and monotone
    a = np.linspace(2.0, 100.0, 393)
    worst = 0.0
    for eps, s, r in zip(table.eps_grid, table.slope, table.intercept):
        exact = inverse_lower_incomplete_gamma(float(eps), a)
        err = np.max(np.abs(s * a + r - exact)) / np.max(exact)
        worst = max(worst, err)
    s0, r0 = surrogate_lookup(table, 0.0)
    anchored = s0 == 0.0 and r0 == 0.0
    shaped = bool(np.all(table.slope > 0)
                  and np.all(np.diff(table.slope) >= 0)
                  and np.all(np.diff(table.intercept) >= 0))
    ok = worst <= 0.05 and anchored and shaped
    report("quantile-table", ok,
           f"worst row error {worst:.4f} <= 0.05, zero anchor {anchored}, "
           f"monotone rows {shaped}")


def test_03_toy_maximizers_match_grid_scan(table):
    res1 = maximize_gamma_objective(
        lambda v: float(v[0]) + 1.0,
        lambda v: 2.0 * np.sqrt(float(v[0])),
        [(0.0, 2.0)], table=table)
    g = np.arange(0.0, 2.0 + 1e-9, 0.01)
    ref1 = float(np.max(lower_incomplete_gamma_reg(g + 1.0, 2.0 * np.sqrt(g))))

    res2 = maximize_gamma_objective(
        lambda v: 2.0 * float(v[0]) + 1.6 * float(v[1]) + 2.1,
        lambda v: 2.1 * np.sqrt(float(v[0])) + 1.8 * np.sqrt(float(v[1])) + 0.2,
        [(0.0, 2.0), (0.0, 2.0)], table=table)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    ref2 = float(np.max(lower_incomplete_gamma_reg(
        2.0 * gx + 1.6 * gy + 2.1,
        2.1 * np.sqrt(gx) + 1.8 * np.sqrt(gy) + 0.2)))

    d1 = abs(res1.value - ref1)
    d2 = abs(res2.value - ref2)
    ok = d1 <= 0.02 and d2 <= 0.02
    report("toy-maximizers", ok,
           f"1-d gap {d1:.4f}, 2-d gap {d2:.4f}, both <= 0.02")


def test_04_demo_scenario_joint_solution(table):
    res = bisection_outage_min(preset("ob-demo"), table=table)
    objs = [rec.objective for rec in res.best_trace]
    monotone = bool(np.all(np.diff(objs) >= -1e-12))
    ok = (res.feasible and 0.50 <= res.eps <= 0.54
          and 0.46 <= res.p_out <= 0.50 and monotone)
    report("joint-ascent", ok,
           f"eps {res.eps:.4f} in [0.50, 0.54], p_out {res.p_out:.4f} in "
           f"[0.46, 0.50], ascent trace monotone {monotone}")


def test_05_gain_loss_descent_far_and_near():
    far_cfg = preset("zf-demo-far")
    far = pgd_solve(feasible_region(far_cfg).midpoints(), far_cfg)
    near_cfg = preset("zf-demo-near")
    near = pgd_solve(feasible_region(near_cfg).midpoints(), near_cfg)
    ok = (far.loss < 0.05 and near.loss > 0.5
          and far.n_iter <= 25 and near.n_iter <= 25
          and far.converged and near.converged)
    report("gain-loss-descent", ok,
           f"far loss {far.loss:.4f} < 0.05 in {far.n_iter} iters, "
           f"near loss {near.loss:.4f} > 0.5 in {near.n_iter} iters")


def test_06_analytic_gradients_match_finite_differences(table):
    t0 = time.perf_counter()
    cfg = preset("zf-demo-far")
    reg = feasible_region(cfg)
    rng = np.random.default_rng(99)
    h = 1e-6
    n = cfg.n_antennas
    worst_w = worst_x = worst_l = 0.0

    def central(fun, point, i, step):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        return (fun(hi) - fun(lo)) / (2.0 * step)

    for _ in range(50):
        x = random_feasible_positions(reg, rng)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w /= np.linalg.norm(w)
        eps = float(rng.uniform(0.05, 0.95))

        g = margin_grad_beamformer(w, x, eps, table, cfg)
        full = np.concatenate([2.0 * g.real, 2.0 * g.imag])
        parts = np.concatenate([w.real, w.imag])

        def margin_of_parts(p):
            return margin_objective(p[:n] + 1j * p[n:], x, eps, table, cfg)

        fd = np.array([central(margin_of_parts, parts, i, h)
                       for i in range(2 * n)])
        worst_w = max(worst_w, np.max(np.abs(full - fd)) / np.max(np.abs(fd)))

        gx = margin_grad_positions(w, x, eps, table, cfg)
        fd = np.array([central(
            lambda p: margin_objective(w, p, eps, table, cfg), x, i, h)
            for i in range(n)])
        worst_x = max(worst_x, np.max(np.abs(gx - fd)) / np.max(np.abs(fd)))

        gl = bob_gain_loss_grad(x, cfg)
        fd = np.array([central(lambda p: bob_gain_loss(p, cfg), x, i, h)
                       for i in range(n)])
        worst_l = max(worst_l, np.max(np.abs(gl - fd)) / np.max(np.abs(fd)))

    elapsed = time.perf_counter() - t0
    ok = max(worst_w, worst_x, worst_l) <= 1e-5 and elapsed < 5.0
    report("gradients", ok,
           f"relative gaps beam {worst_w:.1e}, positions {worst_x:.1e}, "
           f"gain loss {worst_l:.1e}, all <= 1e-5, {elapsed:.1f}s < 5s")


def test_07_zero_forcing_nulls_and_gain_identity():
    cfg = preset("zf-demo-far")
    reg = feasible_region(cfg)
    rng = np.random.default_rng(7)
    worst_leak = 0.0
    worst_gap = 0.0
    for _ in range(100):
        x = random_feasible_positions(reg, rng)
        w = zf_beamformer(x, cfg)
        worst_leak = max(worst_leak,
                         float(np.max(np.abs(eve_los_matrix(x, cfg) @ w) ** 2)))
        gain = abs(np.dot(main_channel(x, cfg), w)) ** 2
        want = cfg.beta0 * cfg.n_antennas - bob_gain_loss(x, cfg)
        worst_gap = max(worst_gap, abs(gain - want))
    ok = worst_leak <= 1e-18 and worst_gap <= 1e-10
    report("nulling", ok,
           f"leaked power {worst_leak:.1e} <= 1e-18, "
           f"gain identity gap {worst_gap:.1e} <= 1e-10")


def test_08_limiting_regimes(table):
    # Rayleigh fading: placement carries no information, every
    # matched-filter scheme lands on the same outage
    ray = apply_variable(preset("k-sweep"), "k", 0.0)
    outs = [run_scheme(s, ray, table=table, seed=0, restarts=2).p_out
            for s in (SchemeId.MA_OB, SchemeId.RAP_OB, SchemeId.FPA_OB,
                      SchemeId.MA_MRT)]
    spread = float(np.max(outs) - np.min(outs))

    # near-deterministic eve channels: nulling drives the outage to zero
    hard = dataclasses.replace(preset("zf-demo-far"), ks=(1e9, 1e9))
    sol = pgd_solve(feasible_region(hard).midpoints(), hard)
    w = zf_beamformer(sol.x, hard)
    closed = zf_outage(sol.x, hard)
    mc = monte_carlo_outage(w, sol.x, hard, 100_000, seed=4)

    # transmit power sweep saturates at the noise-free outage floor
    cfg = preset("ob-demo")
    best = run_scheme(SchemeId.MA_OB, cfg, table=table, seed=0, restarts=3)
    grid = np.logspace(0.0, 9.0, 19)
    probs = [secrecy_outage_closed_form(
        best.w, best.x, dataclasses.replace(cfg, pa=p)) for p in grid]
    monotone = bool(np.all(np.diff(probs) <= 1e-12))
    mom = gamma_moments(link_stats(best.w, best.x, cfg))
    thr_inf = abs(np.dot(main_channel(best.x, cfg), best.w)) ** 2 / 2 ** cfg.rs
    floor = 1.0 - sum_power_cdf(thr_inf, mom)
    gap = probs[-1] - floor

    ok = (spread <= 1e-6 and closed <= 1e-3 and mc <= 1e-3
          and monotone and probs[-2] - probs[-1] < 1e-3
          and -1e-12 <= gap < 1e-3)
    report("limiting-regimes", ok,
           f"Rayleigh spread {spread:.1e} <= 1e-6; hard-LoS outage closed "
           f"{closed:.1e} / mc {mc:.1e} <= 1e-3; power sweep monotone "
           f"{monotone}, floor gap {gap:.1e} < 1e-3")


def test_09_scheme_ordering_over_rician_factor(table):
    base = preset("k-sweep")
    schemes = (SchemeId.MA_OB, SchemeId.RAP_OB, SchemeId.FPA_OB,
               SchemeId.MA_MRT)
    rows = {}
    for k in range(11):
        cfg = apply_variable(base, "k", float(k))
        rows[k] = {s: run_scheme(s, cfg, table=table, seed=0,
                                 restarts=3).p_out for s in schemes}
    movable_wins = all(rows[k][SchemeId.MA_OB]
                       <= rows[k][SchemeId.FPA_OB] + 0.01
                       for k in range(2, 11))
    mrt_trails = all(rows[k][SchemeId.MA_MRT]
                     >= max(rows[k][s] for s in schemes[:-1]) - 1e-12
                     for k in range(4, 11))
    ok = movable_wins and mrt_trails
    report("scheme-ordering", ok,
           f"movable <= fixed + 0.01 for K >= 2: {movable_wins}; "
           f"matched filter worst for K >= 4: {mrt_trails}")


def test_10_closed_form_vs_monte_carlo():
    base = preset("zf-demo-far")
    reg = feasible_region(base)
    rng = np.random.default_rng(2024)
    n = base.n_antennas
    worst = 0.0
    for i in range(20):
        ks = tuple(rng.uniform(1.0, 10.0, size=base.n_eves))
        cfg = dataclasses.replace(base, ks=ks)
        x = random_feasible_positions(reg, rng)
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        noise /= np.linalg.norm(noise)
        mix = rng.uniform()
        w = (1.0 - mix) * mrt_beamformer(x, cfg) + mix * noise
        w /= np.linalg.norm(w)
        closed = secrecy_outage_closed_form(w, x, cfg)
        mc = monte_carlo_outage(w, x, cfg, 100_000, seed=5000 + i)
        worst = max(worst, abs(closed - mc))
    ok = worst <= 0.02
    report("closed-vs-mc", ok,
           f"worst |closed - mc| {worst:.4f} <= 0.02 over 20 instances")

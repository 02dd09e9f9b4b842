"""Null-steering beamformer, the gain-loss objective, and its descent."""
import dataclasses
import re

import numpy as np
import pytest

from masec import zf
from masec.bench import apply_variable, base_config, preset
from masec.cli import main
from masec.model import (
    eve_los_matrix,
    feasible_region,
    main_channel,
    random_feasible_positions,
)
from masec.outage import monte_carlo_outage, secrecy_outage_closed_form
from masec.zf import (
    SingularSteeringError,
    bob_gain_loss,
    bob_gain_loss_grad,
    pgd_solve,
    screened_outage,
    zf_beamformer,
    zf_outage,
)


def two_eve_config(**overrides):
    values = dict(n_eves=2, thetas=(1.7 * np.pi / 4, 1.8 * np.pi / 4),
                  betas=(1.0, 1.0), ks=(4.0, 4.0))
    values.update(overrides)
    return base_config(**values)


class TestBeamformer:
    def test_nulls_every_eve_direction(self):
        cfg = two_eve_config()
        rng = np.random.default_rng(0)
        reg = feasible_region(cfg)
        for _ in range(100):
            x = random_feasible_positions(reg, rng)
            w = zf_beamformer(x, cfg)
            leak = np.abs(eve_los_matrix(x, cfg) @ w) ** 2
            assert np.max(leak) <= 1e-18

    def test_unit_norm(self):
        cfg = two_eve_config()
        x = feasible_region(cfg).midpoints()
        assert np.linalg.norm(zf_beamformer(x, cfg)) == pytest.approx(1.0)

    def test_gain_identity(self):
        # |h0 w|^2 telescopes to beta0 N - loss for the projector beamformer
        cfg = two_eve_config()
        rng = np.random.default_rng(1)
        reg = feasible_region(cfg)
        for _ in range(100):
            x = random_feasible_positions(reg, rng)
            w = zf_beamformer(x, cfg)
            gain = abs(np.dot(main_channel(x, cfg), w)) ** 2
            want = cfg.beta0 * cfg.n_antennas - bob_gain_loss(x, cfg)
            assert gain == pytest.approx(want, abs=1e-10)

    def test_needs_spare_antenna(self):
        cfg = two_eve_config(n_antennas=2, span=1.0)
        x = feasible_region(cfg).midpoints()
        with pytest.raises(ValueError, match="n_antennas"):
            zf_beamformer(x, cfg)

    def test_single_eve_case(self):
        cfg = base_config()
        x = feasible_region(cfg).midpoints()
        w = zf_beamformer(x, cfg)
        assert np.max(np.abs(eve_los_matrix(x, cfg) @ w)) ** 2 <= 1e-18


class TestGainLoss:
    def test_bounded_by_total_gain(self):
        cfg = two_eve_config()
        rng = np.random.default_rng(2)
        reg = feasible_region(cfg)
        for _ in range(50):
            x = random_feasible_positions(reg, rng)
            loss = bob_gain_loss(x, cfg)
            assert 0.0 <= loss <= cfg.beta0 * cfg.n_antennas + 1e-12

    def test_gradient_vs_central_differences(self):
        cfg = two_eve_config()
        rng = np.random.default_rng(3)
        reg = feasible_region(cfg)
        h = 1e-6
        for _ in range(10):
            x = random_feasible_positions(reg, rng)
            grad = bob_gain_loss_grad(x, cfg)
            fd = np.empty(cfg.n_antennas)
            for j in range(cfg.n_antennas):
                xp = x.copy(); xp[j] += h
                xm = x.copy(); xm[j] -= h
                fd[j] = (bob_gain_loss(xp, cfg) - bob_gain_loss(xm, cfg)) / (2 * h)
            assert np.max(np.abs(grad - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_ill_conditioned_steering_still_solves(self):
        # six eves within 0.2 pi on eight antennas: a Gram condition number
        # near 3e10, where a general LU solve leaves the loss an imaginary
        # residue above 1e-10 and a Cholesky solve does not
        cfg = apply_variable(preset("m-sweep"), "n_eves", 6)
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg)
        assert 0.0 <= res.loss <= cfg.beta0 * cfg.n_antennas

    def test_near_parallel_angles_raise(self):
        cfg = two_eve_config(thetas=(0.5, 0.5 + 1e-9))
        x = feasible_region(cfg).midpoints()
        with pytest.raises(SingularSteeringError, match="theta"):
            bob_gain_loss(x, cfg)

    def test_message_names_the_closest_pair(self):
        # eves 1 and 3 nearly coincide; the pair order is (1, 2), (1, 3), ...
        cfg = two_eve_config(n_eves=3, thetas=(0.3, 0.9, 0.30000001),
                             betas=(1.0,) * 3, ks=(4.0,) * 3)
        with pytest.raises(SingularSteeringError) as exc:
            bob_gain_loss(feasible_region(cfg).midpoints(), cfg)
        assert re.fullmatch(
            r"eavesdropper steering matrix ill-conditioned "
            r"\(cond=\d\.\d\de\+\d\d\); closest angles: "
            r"theta_1=0\.300000 and theta_3=0\.300000 rad", str(exc.value))


class TestDescent:
    def test_loss_trace_nonincreasing(self):
        cfg = two_eve_config()
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg, keep_trace=True)
        objs = [r.objective for r in res.trace]
        assert np.all(np.diff(objs) <= 1e-12)
        assert res.converged
        # every record but a final rejected search holds an accepted step
        accepted = [r for r in res.trace if r.delta_pos is not None]
        assert len(accepted) >= max(1, len(res.trace) - 1)
        assert all(r.pos_gap >= -1e-12 for r in accepted)
        assert all(r.delta_beam is None for r in res.trace)

    def test_far_pair_reaches_low_loss(self):
        cfg = preset("zf-demo-far")
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg)
        assert res.loss < 0.05
        assert res.n_iter <= 25

    def test_near_pair_stuck_high(self):
        cfg = preset("zf-demo-near")
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg)
        assert res.loss > 0.5
        assert res.n_iter <= 25

    def test_stationary_point(self):
        # projected gradient must vanish at the reported solution
        cfg = preset("zf-demo-far")
        reg = feasible_region(cfg)
        res = pgd_solve(reg.midpoints(), cfg)
        g = bob_gain_loss_grad(res.x, cfg)
        pg = g.copy()
        pg[np.isclose(res.x, reg.lo) & (g > 0)] = 0.0
        pg[np.isclose(res.x, reg.hi) & (g < 0)] = 0.0
        assert np.linalg.norm(pg) < 1e-6

    def test_solution_feasible(self):
        cfg = two_eve_config()
        reg = feasible_region(cfg)
        res = pgd_solve(reg.midpoints(), cfg)
        assert reg.contains(res.x)


class TestZfOutage:
    def test_agrees_with_general_closed_form(self):
        # same formula with every LoS eavesdropper gain nulled
        cfg = two_eve_config()
        rng = np.random.default_rng(4)
        reg = feasible_region(cfg)
        for _ in range(20):
            x = random_feasible_positions(reg, rng)
            w = zf_beamformer(x, cfg)
            assert zf_outage(x, cfg) == pytest.approx(
                secrecy_outage_closed_form(w, x, cfg), abs=1e-12)

    def test_certain_outage_when_power_starved(self):
        cfg = two_eve_config(pa=1e-4)
        x = feasible_region(cfg).midpoints()
        assert zf_outage(x, cfg) == 1.0

    def test_huge_k_drives_outage_to_zero(self):
        cfg = two_eve_config(ks=(1e9, 1e9))
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg)
        w = zf_beamformer(res.x, cfg)
        assert zf_outage(res.x, cfg) <= 1e-3
        assert monte_carlo_outage(w, res.x, cfg, n_trials=100_000,
                                  seed=4) <= 1e-3

    def test_monotone_in_power(self):
        cfg = two_eve_config()
        x = feasible_region(cfg).midpoints()
        outs = [zf_outage(x, dataclasses.replace(cfg, pa=float(10 ** (db / 10))))
                for db in np.arange(0.0, 40.0, 2.5)]
        assert np.all(np.diff(outs) <= 1e-12)


class TestStacks:
    """A (R, N) stack of placements gives, row for row, the values of R
    single calls; one placement is a stack with no leading axis."""

    @pytest.mark.parametrize("name", ["ob-demo", "zf-demo-far",
                                      "zf-demo-near", "k-sweep"])
    def test_rows_match_single_calls(self, name):
        cfg = preset(name)
        xs = random_feasible_positions(feasible_region(cfg),
                                       np.random.default_rng(6), 60)
        losses = bob_gain_loss(xs, cfg)
        outs = zf_outage(xs, cfg)
        assert losses.shape == outs.shape == (60,)
        single_losses = [bob_gain_loss(x, cfg) for x in xs]
        single_outs = [zf_outage(x, cfg) for x in xs]
        if cfg.n_eves == 1:
            assert np.array_equal(losses, single_losses)
            assert np.array_equal(outs, single_outs)
        else:
            np.testing.assert_allclose(losses, single_losses, rtol=1e-14)
            np.testing.assert_allclose(outs, single_outs, rtol=1e-14)

    def test_scalar_in_float_out(self):
        cfg = two_eve_config()
        x = feasible_region(cfg).midpoints()
        assert type(zf_outage(x, cfg)) is float
        assert type(bob_gain_loss(x, cfg)) is float

    def test_any_singular_lane_raises(self):
        cfg = two_eve_config(thetas=(0.0, np.pi / 2))
        xs = random_feasible_positions(feasible_region(cfg),
                                       np.random.default_rng(1), 4)
        assert screened_outage(xs, cfg)[0].all()
        xs[2] = np.arange(5.0)    # both eves see the same LoS row
        usable, outs = screened_outage(xs, cfg)
        assert usable.tolist() == [True, True, False, True]
        assert np.array_equal(outs, zf_outage(xs[usable], cfg))
        for fn in (zf_outage, bob_gain_loss):
            with pytest.raises(SingularSteeringError, match="ill-conditioned"):
                fn(xs, cfg)

    def test_power_starved_lanes_are_certain_outage(self):
        cfg = two_eve_config(pa=1e-4)
        xs = random_feasible_positions(feasible_region(cfg),
                                       np.random.default_rng(2), 5)
        assert np.array_equal(zf_outage(xs, cfg), np.ones(5))



def _skew_gram_solve(monkeypatch):
    solve = zf._gram_solve
    monkeypatch.setattr(zf, "_gram_solve", lambda chol, y: 1j * solve(chol, y))


class TestResidueCheck:
    """An inaccurate Gram solve is reported as a SingularSteeringError,
    also under ``python -O``."""

    def test_imaginary_residue_raises(self, monkeypatch):
        cfg = two_eve_config()
        x = feasible_region(cfg).midpoints()
        assert bob_gain_loss(x, cfg) > 1e-6
        _skew_gram_solve(monkeypatch)
        with pytest.raises(SingularSteeringError, match="imaginary residue"):
            bob_gain_loss(x, cfg)

    def test_cli_reports_residue(self, monkeypatch, capsys):
        _skew_gram_solve(monkeypatch)
        code = main(["solve", "--preset", "zf-demo-far", "--scheme", "FPA_ZF"])
        assert code == 2
        assert "imaginary residue" in capsys.readouterr().err

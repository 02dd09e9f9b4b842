"""Null-steering beamformer, the gain-loss objective, and its descent."""
import dataclasses
import re

import numpy as np
import pytest

from masec import zf
from masec.ascent import OptimizerParams, ascend, line_search
from masec.bench import (
    apply_variable,
    base_config,
    fpa_positions,
    preset,
    run_scheme,
)
from masec.cli import main
from masec.model import (
    eve_los_matrix,
    feasible_region,
    main_channel,
    project_positions,
    random_feasible_positions,
)
from masec.outage import (
    monte_carlo_outage,
    secrecy_outage_closed_form,
)
from masec.zf import (
    SingularSteeringError,
    best_of_draws,
    bob_gain_loss,
    bob_gain_loss_grad,
    pgd_solve,
    zf_beamformer,
    zf_outage,
    zf_solution,
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
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg)
        objs = [r.objective for r in res.trace]
        assert np.all(np.diff(objs) <= 1e-12)
        assert res.converged
        # every record but a final rejected search holds an accepted step
        accepted = [r for r in res.trace if r.delta_pos is not None]
        assert len(accepted) >= max(1, len(res.trace) - 1)
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


def recomputing_pgd(x0, cfg):
    """``pgd_solve`` rebuilt from ``ascend`` and ``line_search`` on the
    public loss and gradient, which redo the nulling solve at every call."""
    region = feasible_region(cfg)
    x = np.asarray(x0, dtype=float)

    def block(obj, delta):
        nonlocal x
        d = -bob_gain_loss_grad(x, cfg)
        found = line_search(lambda c: (-bob_gain_loss(c, cfg), None), x, obj,
                            d, lambda c: project_positions(c, region), delta)
        if found is not None:
            _, x, obj, _ = found
        return obj, found

    neg, trace, converged = ascend(-bob_gain_loss(x, cfg),
                                   OptimizerParams().max_outer, pos=block)
    for rec in trace:
        rec.objective = -rec.objective
    return x, -neg, trace, converged


class TestNullingReuse:
    """Each evaluated placement's nulling solve serves the gradient at it."""

    @pytest.mark.parametrize("name", ["zf-demo-far", "zf-demo-near",
                                      "ob-demo", "k-sweep"])
    def test_equals_the_recomputing_descent(self, name):
        cfg = preset(name)
        x0 = feasible_region(cfg).midpoints()
        res = pgd_solve(x0, cfg)
        x, loss, trace, converged = recomputing_pgd(x0, cfg)
        assert res.x.tobytes() == x.tobytes()
        assert (res.loss, res.n_iter, res.converged) == \
            (loss, len(trace), converged)
        assert res.trace == trace

    def test_one_steering_build_per_evaluated_placement(self, monkeypatch):
        calls = {"steering": 0, "candidates": 0}
        steering, search = zf._steering, zf.line_search

        def counted_steering(x, cfg):
            calls["steering"] += 1
            return steering(x, cfg)

        def counted_search(evaluate, *args):
            def counted_evaluate(cand):
                calls["candidates"] += 1
                return evaluate(cand)
            return search(counted_evaluate, *args)

        monkeypatch.setattr(zf, "_steering", counted_steering)
        monkeypatch.setattr(zf, "line_search", counted_search)
        cfg = preset("zf-demo-far")
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg)
        assert res.n_iter >= 2
        assert calls["steering"] == calls["candidates"] + 1


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
        xs[2] = np.arange(5.0)    # both eves see the same LoS row
        i, p_out, w = best_of_draws(xs, cfg)
        usable = [0, 1, 3]
        outs = zf_outage(xs[usable], cfg)
        assert i == usable[int(np.argmin(outs))]
        assert p_out.hex() == float(outs.min()).hex()
        assert w.tobytes() == zf_beamformer(xs[i], cfg).tobytes()
        for fn in (zf_outage, bob_gain_loss):
            with pytest.raises(SingularSteeringError, match="ill-conditioned"):
                fn(xs, cfg)

    def test_power_starved_lanes_are_certain_outage(self):
        cfg = two_eve_config(pa=1e-4)
        xs = random_feasible_positions(feasible_region(cfg),
                                       np.random.default_rng(2), 5)
        assert np.array_equal(zf_outage(xs, cfg), np.ones(5))



class TestBestOfDraws:
    """RAP_ZF's winner is the draw with the smallest nulling loss, which
    is the first best outage because the outage never falls as the loss
    rises; where the outages clamp, every draw ties."""

    @pytest.mark.parametrize("name", ["ob-demo", "zf-demo-far",
                                      "zf-demo-near", "k-sweep"])
    def test_outage_rises_with_the_loss(self, name):
        # one-ulp steps in the threshold near t = a + 1 can reverse, so
        # the grid is coarse
        cfg = preset(name)
        loss = np.linspace(0.0, cfg.beta0 * cfg.n_antennas, 10**4)
        outs = zf._outage(loss, cfg)
        assert np.all(np.diff(outs) >= 0.0)

    @pytest.mark.parametrize("changes,p_out", [
        (dict(pa=1e-4), 1.0), (dict(betas=(1e-3, 1e-3), pa=1e9, rs=0.1), 0.0)],
        ids=["starved", "secure"])
    def test_clamped_outages_keep_the_first_draw(self, changes, p_out):
        cfg = dataclasses.replace(preset("zf-demo-far"), **changes)
        xs = random_feasible_positions(feasible_region(cfg),
                                       np.random.default_rng(0), 50)
        assert np.all(zf_outage(xs, cfg) == p_out)
        assert np.argmin(bob_gain_loss(xs, cfg)) > 0
        assert best_of_draws(xs, cfg)[:2] == (0, p_out)


def _counted_svds(monkeypatch) -> list:
    """A list that grows by one at each ``np.linalg.svd`` call."""
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestConditionCertificate:
    """``_steering``'s Gershgorin bound passes a call without an SVD only
    where the SVD would pass every matrix too, and every condition number
    above the limit is the SVD's ratio."""

    @staticmethod
    def stacks(m):
        """(config, placements) of M = m eavesdroppers on eight antennas:
        m-sweep cut to M; for M >= 2, M angles whose last repeats the first
        up to 1e-3, 1e-5, 1e-7 or 1e-9 rad, and M angles with sines 0 and
        1, whose rows coincide at the whole-wavelength placement planted as
        row 1."""
        rng = np.random.default_rng(36 + m)
        spread = tuple(0.2 + 0.17 * i for i in range(m))
        scenarios = [apply_variable(preset("m-sweep"), "n_eves", m)]
        angles = [spread[:-1] + (0.2 + gap,)
                  for gap in (1e-3, 1e-5, 1e-7, 1e-9)]
        angles.append((0.0, np.pi / 2) + spread[2:])
        for thetas in angles if m > 1 else []:
            scenarios.append(base_config(
                n_antennas=8, span=7.5, n_eves=m, thetas=thetas,
                betas=(1.0,) * m, ks=(4.0,) * m))
        for cfg in scenarios:
            xs = random_feasible_positions(feasible_region(cfg), rng, 40)
            if cfg.thetas[:2] == (0.0, np.pi / 2):
                xs[1] = np.arange(8.0)
            yield cfg, xs

    def test_verdicts_and_errors_are_the_svds(self, monkeypatch):
        limit, paths = zf._COND_LIMIT, []
        for m in range(1, 8):
            for cfg, xs in self.stacks(m):
                calls = _counted_svds(monkeypatch)
                gram, cond = zf._steering(xs, cfg)[1:]
                monkeypatch.undo()
                paths.append(bool(calls))
                s = np.linalg.svd(gram, compute_uv=False)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = s[:, 0] / s[:, -1]
                ok = cond <= limit
                assert np.array_equal(ok, np.linalg.cond(gram) <= limit)
                assert cond[~ok].tobytes() == ratio[~ok].tobytes()
                if calls:
                    assert cond.tobytes() == ratio.tobytes()
                else:       # bounds far below the limit, where the SVD's
                    # ratio is off by about eps * cond relative
                    assert np.all(cond <= limit / 10 * (1 + 1e-15))
                    assert np.all(cond >= ratio * (1 - 16e-16 * ratio))
        assert 0 < sum(paths) < len(paths)

    def test_svds_run_only_where_the_bound_fails(self, monkeypatch):
        calls = _counted_svds(monkeypatch)
        run_scheme("RAP_ZF", preset("zf-demo-far"), seed=0, restarts=150)
        assert not calls
        run_scheme("RAP_ZF", apply_variable(preset("m-sweep"), "n_eves", 6),
                   seed=0, restarts=150)
        assert calls


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


# the presets on which zero-forcing has a solution; on cdf-demo Bob's
# direction lies in the eavesdropper span, on m-sweep the Gram is singular
ZF_PRESETS = ["ob-demo", "zf-demo-far", "zf-demo-near", "k-sweep"]


def _count_nullings(monkeypatch):
    calls = []
    nulling = zf._nulling

    def counted(*args):
        calls.append(args[0].shape)
        return nulling(*args)
    monkeypatch.setattr(zf, "_nulling", counted)
    return calls


def _public_calls(scheme, cfg):
    """(p_out, w, x) of a ZF scheme from the public calls at its placement,
    each of which solves the nulling system again."""
    x = (fpa_positions(cfg) if scheme == "FPA_ZF"
         else pgd_solve(feasible_region(cfg).midpoints(), cfg).x)
    return zf_outage(x, cfg), zf_beamformer(x, cfg), x


class TestOneNullingPerPlacement:
    """FPA_ZF and MA_ZF read their outage and beamformer off one nulling
    solve at the returned placement, with the public calls' bits."""

    @pytest.mark.parametrize("scheme", ["FPA_ZF", "MA_ZF"])
    @pytest.mark.parametrize("name", ZF_PRESETS)
    def test_equals_the_public_calls(self, name, scheme):
        cfg = preset(name)
        res = run_scheme(scheme, cfg)
        p_out, w, x = _public_calls(scheme, cfg)
        assert res.x.tobytes() == x.tobytes()
        assert float(res.p_out).hex() == zf_outage(res.x, cfg).hex() \
            == p_out.hex()
        assert res.w.tobytes() == zf_beamformer(res.x, cfg).tobytes() \
            == w.tobytes()

    @pytest.mark.parametrize("name", ZF_PRESETS)
    def test_fpa_zf_solves_once(self, name, monkeypatch):
        calls = _count_nullings(monkeypatch)
        run_scheme("FPA_ZF", preset(name))
        assert calls == [(preset(name).n_antennas,)]

    @pytest.mark.parametrize("name", ZF_PRESETS)
    def test_ma_zf_solves_only_in_its_descent(self, name, monkeypatch):
        cfg = preset(name)
        calls = _count_nullings(monkeypatch)
        pgd_solve(feasible_region(cfg).midpoints(), cfg)
        descent = len(calls)
        run_scheme("MA_ZF", cfg)
        assert descent >= 2 and len(calls) == 2 * descent

    def test_solution_from_a_held_solve(self):
        cfg = preset("zf-demo-far")
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg)
        held = zf_solution(res.x, cfg, res.nulling)
        fresh = zf_solution(res.x, cfg)
        assert held[0].hex() == fresh[0].hex() == zf_outage(res.x, cfg).hex()
        assert held[1].tobytes() == fresh[1].tobytes()

    @pytest.mark.parametrize("scheme", ["FPA_ZF", "MA_ZF"])
    @pytest.mark.parametrize("name,message", [
        ("cdf-demo", "legitimate direction lies inside"),
        ("m-sweep", "ill-conditioned")])
    def test_unusable_presets_raise_as_the_public_calls(self, name, message,
                                                        scheme):
        cfg = preset(name)
        with pytest.raises(SingularSteeringError, match=message) as want:
            _public_calls(scheme, cfg)
        with pytest.raises(SingularSteeringError) as got:
            run_scheme(scheme, cfg)
        assert str(got.value) == str(want.value)


def _bad_positions(kind, n):
    x = np.linspace(0.0, 3.0, n)
    if kind == "four positions":
        return x[:4]
    if kind == "complex":
        return x.astype(complex)
    x[2] = np.nan if kind == "nan entry" else np.inf
    return x


_BAD = [("four positions", r"must have shape \(5,\), got \(4,\)"),
        ("complex", "must be real"),
        ("nan entry", "must be finite"),
        ("inf entry", "must be finite")]

_ENTRIES = {
    "zf_outage": zf_outage, "zf_beamformer": zf_beamformer,
    "bob_gain_loss": bob_gain_loss, "bob_gain_loss_grad": bob_gain_loss_grad,
    "pgd_solve": pgd_solve, "zf_solution": zf_solution,
}


class TestPositionChecks:
    """Every public ZF entry point rejects mis-shaped, complex and
    non-finite positions with a one-line ValueError, before any solve."""

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("kind,match", _BAD, ids=[k for k, _ in _BAD])
    def test_rejects_bad_positions(self, kind, match, entry):
        cfg = preset("zf-demo-far")
        name = "x0" if entry == "pgd_solve" else "x"
        with pytest.raises(ValueError, match=f"^{name} {match}"):
            _ENTRIES[entry](_bad_positions(kind, cfg.n_antennas), cfg)

    @pytest.mark.parametrize("entry", [zf_outage, bob_gain_loss])
    @pytest.mark.parametrize("kind,match", _BAD, ids=[k for k, _ in _BAD])
    def test_rejects_a_bad_row_of_a_stack(self, kind, match, entry):
        cfg = preset("zf-demo-far")
        xs = random_feasible_positions(feasible_region(cfg),
                                       np.random.default_rng(0), 3)
        bad = _bad_positions(kind, cfg.n_antennas)
        if kind == "four positions":
            xs, match = xs[:, :4], r"must have shape \(B, 5\)"
        else:
            xs = xs.astype(bad.dtype)
            xs[1] = bad
        with pytest.raises(ValueError, match=match):
            entry(xs, cfg)

    def test_best_of_draws_takes_a_stack(self):
        cfg = preset("zf-demo-far")
        x = feasible_region(cfg).midpoints()
        with pytest.raises(ValueError, match=r"xs must have shape \(B, 5\)"):
            best_of_draws(x, cfg)
        assert best_of_draws(x[None], cfg)[:2] == (0, zf_outage(x, cfg))

    def test_descent_checks_its_start_once(self, monkeypatch):
        calls = []
        check = zf.check_vector

        def counted(*args, **kwargs):
            calls.append(args[0])
            return check(*args, **kwargs)
        monkeypatch.setattr(zf, "check_vector", counted)
        cfg = preset("zf-demo-far")
        res = pgd_solve(feasible_region(cfg).midpoints(), cfg)
        assert res.n_iter >= 2 and calls == ["x0"]

"""Scheme dispatch, sweeps, CSV persistence, CLI plumbing."""
import dataclasses
import functools
import json
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masec import ascent, bench, cli, outage, surrogate, zf
from masec.bench import (
    SWEEP_VARIABLES,
    SchemeId,
    SweepRow,
    SweepSpec,
    apply_variable,
    base_config,
    cdf_check_case,
    config_from_dict,
    emit_results,
    fpa_positions,
    load_config,
    preset,
    read_results,
    run_scheme,
    run_sweep,
    sweep_spec_from_dict,
)
from masec.ascent import OptimizerParams, bisection_outage_min
from masec.cli import main
from masec.model import SystemConfig, feasible_region
from masec.outage import moment_match
from masec.zf import SingularSteeringError, zf_beamformer, zf_outage


class TestSchemes:
    def test_all_schemes_produce_probabilities(self, table):
        cfg = base_config()
        for sid in SchemeId:
            res = run_scheme(sid, cfg, table=table, seed=1, restarts=2)
            assert 0.0 <= res.p_out <= 1.0
            assert np.linalg.norm(res.w) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_region_warns_once_per_solve(self, table):
        # each scheme builds its movement region once; FPA_ZF, at fixed
        # positions, builds none
        cfg = base_config(n_antennas=3, span=1.0, dmin=0.5)
        for sid in SchemeId:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_scheme(sid, cfg, table=table, seed=0, restarts=2)
            pinned = [w for w in caught
                      if "degenerate movement region" in str(w.message)]
            assert len(pinned) == (sid is not SchemeId.FPA_ZF), sid

    def test_rayleigh_collapses_beam_schemes(self, table):
        # K = 0: eve statistics forget the placement, matched filtering is
        # optimal everywhere, so all four optimized-beam schemes coincide
        cfg = base_config(ks=(0.0,))
        outs = [run_scheme(s, cfg, table=table, seed=0, restarts=2).p_out
                for s in (SchemeId.MA_OB, SchemeId.RAP_OB, SchemeId.FPA_OB,
                          SchemeId.MA_MRT)]
        assert np.max(outs) - np.min(outs) < 1e-6

    def test_random_placement_seeded(self, table):
        cfg = base_config()
        a = run_scheme(SchemeId.RAP_OB, cfg, table=table, seed=5, restarts=3)
        b = run_scheme(SchemeId.RAP_OB, cfg, table=table, seed=5, restarts=3)
        c = run_scheme(SchemeId.RAP_OB, cfg, table=table, seed=6, restarts=3)
        assert a.p_out == b.p_out
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_restarts_never_hurt(self, table):
        cfg = base_config()
        one = run_scheme(SchemeId.RAP_ZF, cfg, table=table, seed=7, restarts=1)
        many = run_scheme(SchemeId.RAP_ZF, cfg, table=table, seed=7, restarts=8)
        assert many.p_out <= one.p_out + 1e-15

    def test_fpa_layout_is_half_wavelength(self):
        cfg = base_config(wavelength=0.8)
        x = fpa_positions(cfg)
        assert np.allclose(np.diff(x), 0.4)
        assert x[0] == 0.0

    # the FPA layout lies outside every preset's movement region, so a
    # projection anywhere in the beam-only ascent would move it
    @pytest.mark.parametrize("name", ["base", "ob-demo", "zf-demo-far",
                                      "zf-demo-near", "k-sweep", "m-sweep",
                                      "cdf-demo"])
    def test_fpa_scheme_uses_fixed_layout(self, table, name):
        cfg = base_config() if name == "base" else preset(name)
        res = run_scheme(SchemeId.FPA_OB, cfg, table=table)
        assert res.x.tobytes() == fpa_positions(cfg).tobytes()

    def test_joint_beats_fixed_array(self, table):
        cfg = base_config()
        ma = run_scheme(SchemeId.MA_OB, cfg, table=table)
        fpa = run_scheme(SchemeId.FPA_OB, cfg, table=table)
        assert ma.p_out <= fpa.p_out + 0.01

    def test_unknown_scheme_rejected(self, table):
        with pytest.raises(ValueError):
            run_scheme("NOT_A_SCHEME", base_config(), table=table)


def reference_random_placement(scheme, cfg, seed, restarts, table):
    """Best of ``restarts`` placements drawn and evaluated one at a time.

    Returns the best outage and placement, the winning restart's
    BisectionResult (None for RAP_ZF) and the iterations of all restarts.
    RAP_ZF skips the draws whose nulling solve raises.
    """
    rng = np.random.default_rng(seed)
    region = feasible_region(cfg)
    best_p, best_x, best_run, iterations = np.inf, None, None, 0
    for _ in range(restarts):
        x = rng.uniform(region.lo, region.hi)
        run = None
        if scheme is SchemeId.RAP_ZF:
            try:
                p = zf_outage(x, cfg)
            except SingularSteeringError:
                continue
        else:
            run = bisection_outage_min(cfg, table, x0=x, mode="beam_only")
            p, iterations = run.p_out, iterations + run.total_iterations
        if p < best_p:
            best_p, best_x, best_run = p, x, run
    return best_p, best_x, best_run, iterations


def _scenario(name):
    """A preset, or a RAP_ZF scenario: m-sweep with its first M
    eavesdroppers ("m-sweep-M"), base_config at a power so low that every
    draw is certain outage ("base-starved"), and zf-demo-far's angles with
    weak eavesdroppers at a huge power and low rate, where every draw has
    outage 0 ("far-secure").  In the last two every draw ties, and at seed
    3 with 150 draws the smallest nulling loss is not the first draw's."""
    if name.startswith("m-sweep-"):
        return apply_variable(preset("m-sweep"), "n_eves", int(name[8:]))
    if name == "base-starved":
        return base_config(pa=1e-4)
    if name == "far-secure":
        return dataclasses.replace(preset("zf-demo-far"), betas=(1e-3, 1e-3),
                                   pa=1e9, rs=0.1)
    return preset(name)


_RAP_ZF_SCENARIOS = ("ob-demo", "zf-demo-far", "zf-demo-near", "k-sweep",
                     *(f"m-sweep-{m}" for m in range(1, 7)), "base-starved",
                     "far-secure")

# On cdf-demo a last-ulp change flips RAP_OB probe verdicts near eps 0.10.
# RAP_ZF has no cdf-demo case: an eavesdropper sits at the legitimate
# user's angle there, so zero-forcing cannot serve the user.
_RANDOM_PLACEMENT_CASES = [
    pytest.param(scheme, restarts, name, id=f"{scheme.value}-{restarts}-{name}")
    for scheme, restarts, names in [
        (SchemeId.RAP_ZF, 1, _RAP_ZF_SCENARIOS),
        (SchemeId.RAP_ZF, 150, _RAP_ZF_SCENARIOS),
        (SchemeId.RAP_OB, 1, ("ob-demo", "zf-demo-far", "k-sweep", "cdf-demo")),
        (SchemeId.RAP_OB, 4, ("ob-demo", "zf-demo-far", "k-sweep", "cdf-demo")),
        (SchemeId.RAP_OB, 100, ("ob-demo", "zf-demo-far", "k-sweep",
                                "cdf-demo"))]
    for name in names]


class TestRandomPlacement:
    @pytest.mark.parametrize("scheme,restarts,name", _RANDOM_PLACEMENT_CASES)
    def test_matches_per_restart_loop(self, name, scheme, restarts, table):
        cfg = _scenario(name)
        res = run_scheme(scheme, cfg, seed=3, restarts=restarts, table=table)
        p, x, best, iterations = reference_random_placement(
            scheme, cfg, 3, restarts, table)
        assert np.array_equal(res.x, x)
        assert res.p_out == pytest.approx(p, rel=1e-14, abs=1e-15)
        assert res.iterations == iterations
        if scheme is SchemeId.RAP_ZF:
            want = zf_beamformer(x, cfg)
            assert np.linalg.norm(res.w - want) <= 1e-14 * np.linalg.norm(want)
        if best is not None:
            assert res.eps == best.eps
            assert (res.detail.probes, res.detail.rounds) == \
                (best.probes, best.rounds)
            assert res.trace == best.best_trace

    def test_rap_zf_skips_singular_draws(self, monkeypatch):
        cfg = base_config(n_eves=2, thetas=(0.0, np.pi / 2), betas=(1.0, 1.0),
                          ks=(4.0, 4.0))
        draw = bench.random_feasible_positions

        def plant_singular_draw(region, rng, count=None):
            xs = draw(region, rng, count)
            xs[1] = np.arange(5.0)    # both eves see the same LoS row
            return xs

        monkeypatch.setattr(bench, "random_feasible_positions",
                            plant_singular_draw)
        res = run_scheme(SchemeId.RAP_ZF, cfg, seed=4, restarts=6)
        xs = plant_singular_draw(feasible_region(cfg),
                                 np.random.default_rng(4), 6)
        with pytest.raises(SingularSteeringError):
            zf_outage(xs[1], cfg)
        usable = np.delete(xs, 1, axis=0)
        outs = [zf_outage(x, cfg) for x in usable]
        assert np.array_equal(res.x, usable[int(np.argmin(outs))])
        assert res.p_out == pytest.approx(min(outs), rel=1e-14)

    def test_rap_zf_checks_each_draw_once(self, monkeypatch):
        rows = []
        steering = zf._steering

        def counting(x, cfg):
            rows.append(np.atleast_2d(x).shape[0])
            return steering(x, cfg)
        monkeypatch.setattr(zf, "_steering", counting)
        run_scheme(SchemeId.RAP_ZF, preset("zf-demo-far"), seed=3,
                   restarts=150)
        assert rows == [150]    # the beamformer reads the batched solve

    def test_rap_zf_raises_when_no_draw_is_usable(self):
        cfg = base_config(n_eves=2, thetas=(0.5, 0.5 + 1e-9), betas=(1.0, 1.0),
                          ks=(4.0, 4.0))
        first = bench.random_feasible_positions(
            feasible_region(cfg), np.random.default_rng(0), 5)[0]
        with pytest.raises(SingularSteeringError, match="ill-conditioned") \
                as want:
            zf_outage(first, cfg)
        with pytest.raises(SingularSteeringError) as got:
            run_scheme(SchemeId.RAP_ZF, cfg, seed=0, restarts=5)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("scheme", [SchemeId.RAP_ZF, SchemeId.RAP_OB])
    def test_needs_a_restart(self, scheme, table):
        with pytest.raises(ValueError, match="restarts"):
            run_scheme(scheme, base_config(), table=table, restarts=0)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    @pytest.mark.parametrize("change, message", [
        ({"restarts": 2.5}, "restarts must be a positive integer"),
        ({"restarts": True}, "restarts must be a positive integer"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"seed": 1.5}, "seed must be a non-negative integer"),
        ({"seed": None}, "seed must be a non-negative integer"),
    ])
    def test_restarts_and_seed_follow_the_sweep_spec_rules(
            self, scheme, change, message, table):
        with pytest.raises(ValueError) as caught:
            run_scheme(scheme, preset("ob-demo"), table=table, **change)
        assert str(caught.value) == message

    def test_numpy_restarts_and_seed_are_integers(self, table):
        want = run_scheme(SchemeId.RAP_ZF, base_config(), seed=3, restarts=4)
        got = run_scheme(SchemeId.RAP_ZF, base_config(), seed=np.int64(3),
                         restarts=np.int32(4))
        assert np.array_equal(got.x, want.x) and got.p_out == want.p_out


class TestApplyVariable:
    def test_power_in_db(self):
        cfg = apply_variable(base_config(), "pa_db", 20.0)
        assert cfg.pa == pytest.approx(100.0)

    def test_common_k(self):
        cfg = apply_variable(base_config(n_eves=2, thetas=(0.4, 0.9),
                                         betas=(1.0, 1.0), ks=(1.0, 2.0)),
                             "k", 5.0)
        assert cfg.ks == (5.0, 5.0)

    def test_eve_count_truncates(self):
        base = base_config(n_eves=3, thetas=(0.3, 0.7, 1.1),
                           betas=(1.0, 0.9, 0.8), ks=(1.0, 2.0, 3.0))
        cfg = apply_variable(base, "n_eves", 2)
        assert cfg.n_eves == 2
        assert cfg.thetas == (0.3, 0.7)
        assert cfg.betas == (1.0, 0.9)

    @pytest.mark.parametrize("name", ["n_antennas", "n_eves"])
    @pytest.mark.parametrize("value", [2.5, 1.0000001, float("inf"),
                                       float("nan")])
    def test_counts_must_be_whole(self, name, value):
        base = base_config(n_eves=2, thetas=(0.4, 0.9), betas=(1.0, 1.0),
                           ks=(1.0, 1.0))
        with pytest.raises(ValueError, match="whole number"):
            apply_variable(base, name, value)

    @pytest.mark.parametrize("name", ["pa_db", "k", "theta_ratio",
                                      "n_antennas"])
    @pytest.mark.parametrize("value", ["2", None, True, 10**400])
    def test_a_value_that_is_not_a_number(self, name, value):
        with pytest.raises(ValueError) as caught:
            apply_variable(base_config(), name, value)
        assert str(caught.value) == (f"{name} must be a number in the "
                                     "float range")

    def test_integral_float_counts_are_accepted(self):
        base = base_config(n_eves=2, thetas=(0.4, 0.9), betas=(1.0, 1.0),
                           ks=(1.0, 1.0))
        assert apply_variable(base, "n_antennas", 3.0).n_antennas == 3
        assert apply_variable(base, "n_eves", 1.0).n_eves == 1

    def test_eve_count_cannot_grow(self):
        with pytest.raises(ValueError, match="too few"):
            apply_variable(base_config(), "n_eves", 4)

    def test_angle_ratio_single_eve_only(self):
        cfg = apply_variable(base_config(), "theta_ratio", 1.3)
        assert cfg.thetas[0] == pytest.approx(1.3 * cfg.theta0)
        multi = base_config(n_eves=2, thetas=(0.4, 0.9), betas=(1.0, 1.0),
                            ks=(1.0, 1.0))
        with pytest.raises(ValueError, match="single"):
            apply_variable(multi, "theta_ratio", 1.3)

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown sweep variable"):
            apply_variable(base_config(), "bogus", 1.0)

    @pytest.mark.parametrize("name", SWEEP_VARIABLES)
    def test_every_sweep_variable_is_taken_and_applied(self, name):
        # a grid value the base scenario admits: the spec builds its config
        value = 1.0 if name == "n_eves" else 2.0
        assert sweep_spec_from_dict(_sweep_spec(variable=name,
                                                grid=[value])).variable == name
        assert isinstance(apply_variable(base_config(), name, value),
                          SystemConfig)


class TestSweep:
    def test_row_count_and_order(self, table):
        spec = SweepSpec(base=base_config(), variable="k",
                         grid=[0.0, 2.0], restarts=2,
                         schemes=[SchemeId.FPA_OB, SchemeId.FPA_ZF])
        res = run_sweep(spec, table=table)
        assert len(res.rows) == 4
        assert [r.variable_value for r in res.rows] == [0.0, 0.0, 2.0, 2.0]
        assert not res.skipped

    def test_zf_precondition_skipped_not_raised(self, table):
        base = base_config(n_eves=3, thetas=(0.3, 0.7, 1.1),
                           betas=(1.0, 1.0, 1.0), ks=(4.0,) * 3,
                           n_antennas=3, span=4.0)
        spec = SweepSpec(base=base, variable="k", grid=[1.0],
                         schemes=[SchemeId.FPA_ZF, SchemeId.FPA_OB],
                         restarts=1)
        res = run_sweep(spec, table=table)
        assert len(res.rows) == 1
        assert res.rows[0].scheme == "FPA_OB"
        assert len(res.skipped) == 1
        assert res.skipped[0][0] == "FPA_ZF"
        assert "n_antennas" in res.skipped[0][2]

    def test_seeds_cycle_over_grid(self, table):
        spec = SweepSpec(base=base_config(), variable="k",
                         grid=[1.0, 2.0, 3.0], seeds=[10, 20],
                         schemes=[SchemeId.RAP_ZF], restarts=1)
        res = run_sweep(spec, table=table)
        assert [r.seed for r in res.rows] == [10, 20, 10]

    def test_zf_only_sweep_never_fits_the_table(self, monkeypatch):
        def no_table():
            raise RuntimeError("the default surrogate table was read")

        # the default table is loaded, not fitted; ascent binds the name
        # at import, so both modules are patched
        for module in (surrogate, ascent):
            monkeypatch.setattr(module, "default_table", no_table)
        spec = SweepSpec(base=base_config(), variable="k", grid=[1.0, 4.0],
                         schemes=[SchemeId.RAP_ZF, SchemeId.FPA_ZF],
                         restarts=2)
        rows = run_sweep(spec).rows
        assert [r.scheme for r in rows] == ["RAP_ZF", "FPA_ZF"] * 2


# specs built through the API that the spec itself rejects, with its message
_PYTHON_SPEC_FAULTS = [
    ({"restarts": 0}, "sweep spec restarts must be a positive integer"),
    ({"seeds": [-1]}, "sweep spec seeds must be a non-empty list of "
                      "non-negative integers"),
    ({"seeds": []}, "sweep spec seeds must be a non-empty list of "
                    "non-negative integers"),
    ({"schemes": ["RAP_ZF", "NOPE"]},
     "sweep spec schemes must be a list of names from ['MA_OB', "),
    ({"variable": "k", "grid": [1.0, math.nan]},
     "sweep spec grid value k=nan: ks must be finite"),
    ({"grid": []}, "sweep spec grid must not be empty"),
    ({"schemes": []}, "sweep spec schemes must not be empty"),
]


class TestSweepSpec:
    @pytest.mark.parametrize("change, message", _PYTHON_SPEC_FAULTS, ids=[
        "no-restart", "negative-seed", "no-seed", "unknown-scheme",
        "nan-grid-value", "no-grid-value", "no-scheme"])
    def test_a_spec_built_in_python_is_checked_before_any_row(
            self, change, message, monkeypatch):
        monkeypatch.setattr(bench, "run_scheme", _no_solve)
        fields = {"base": preset("zf-demo-far"), "variable": "pa_db",
                  "grid": [10.0, 15.0], "schemes": ["RAP_ZF"], "seeds": [0],
                  "restarts": 2, **change}
        with pytest.raises(ValueError) as caught:
            SweepSpec(**fields)
        assert str(caught.value).startswith(message)
        assert "\n" not in str(caught.value)

    def test_tuples_arrays_numpy_seeds_and_names_sweep_as_lists_do(self):
        base = preset("zf-demo-far")
        listed = SweepSpec(base, "n_antennas", [3.0, 4.0],
                           [SchemeId.RAP_ZF, SchemeId.FPA_ZF], [3, 4],
                           restarts=2)
        want = [(r.scheme, r.variable_value, r.p_out, r.seed, r.iterations)
                for r in run_sweep(listed).rows]
        assert [w[:2] for w in want] == [("RAP_ZF", 3.0), ("FPA_ZF", 3.0),
                                         ("RAP_ZF", 4.0), ("FPA_ZF", 4.0)]
        for grid, seeds in [((3.0, 4.0), [np.int64(3), np.int64(4)]),
                            (np.array([3, 4]), np.array([3, 4]))]:
            spec = SweepSpec(base, "n_antennas", grid, ("RAP_ZF", "FPA_ZF"),
                             seeds, restarts=2)
            assert spec == listed and spec.grid == (3.0, 4.0)
            assert [c.n_antennas for c in spec.scenarios] == [3, 4]
            rows = run_sweep(spec).rows
            assert [(r.scheme, r.variable_value, r.p_out, r.seed,
                     r.iterations) for r in rows] == want
            assert all(type(r.variable_value) is float for r in rows)

    def test_a_built_spec_is_frozen(self):
        spec = SweepSpec(base_config(), "k", [1.0], [SchemeId.FPA_ZF])
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.grid = (1.0, 2.0)

    def test_a_built_spec_hashes_and_keeps_its_seeds(self):
        base = preset("zf-demo-far")
        spec = SweepSpec(base, "pa_db", [10.0], ["RAP_ZF"],
                         np.array([3, 0]), restarts=2)
        assert spec.seeds == (3, 0)
        assert all(type(s) is int for s in spec.seeds)
        assert hash(spec) == hash(SweepSpec(base, "pa_db", (10.0,),
                                            [SchemeId.RAP_ZF], [3, 0],
                                            restarts=2))
        with pytest.raises(AttributeError):
            spec.seeds.clear()


class TestCsv:
    def test_round_trip(self, table, tmp_path):
        spec = SweepSpec(base=base_config(), variable="k", grid=[0.0, 1.0],
                         schemes=[SchemeId.FPA_ZF], restarts=1)
        res = run_sweep(spec, table=table)
        path = tmp_path / "rows.csv"
        emit_results(res.rows, path)
        back = read_results(path)
        assert len(back) == len(res.rows)
        for a, b in zip(res.rows, back):
            assert a.scheme == b.scheme
            assert a.variable_value == b.variable_value
            assert a.p_out == b.p_out      # exact, via repr round trip
            assert a.seed == b.seed

    def test_numpy_values_round_trip(self, tmp_path):
        # each value is written as its str, so numpy scalars read back too
        row = SweepRow("FPA_ZF", "k", np.float64(1.0), np.float64(0.1),
                       np.int64(3), np.int64(7), 0.25)
        path = tmp_path / "rows.csv"
        emit_results([row], path)
        assert path.read_text().splitlines()[1] == "FPA_ZF,k,1.0,0.1,3,7,0.25"
        assert read_results(path) == [row]

    def test_rewrite_byte_identical(self, table, tmp_path):
        spec = SweepSpec(base=base_config(), variable="k", grid=[2.0],
                         schemes=[SchemeId.FPA_ZF], restarts=1)
        rows = run_sweep(spec, table=table).rows
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(rows, p1)
        emit_results(read_results(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_results(path)

    @pytest.mark.parametrize("row", ["FPA_ZF,k,1.0,0.5,0",
                                     "FPA_ZF,k,1.0,0.5,0,3,0.1,9",
                                     "FPA_ZF,k,1.0,half,0,3,0.1",
                                     "FPA_ZF,k,1.0,0.5,0,2.5,0.1"])
    def test_names_the_file_and_row_of_a_malformed_row(self, row, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(bench._CSV_HEADER + "\nFPA_ZF,k,0.0,0.5,0,3,0.1\n"
                        + row + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 2 is not a results row: {row!r}")):
            read_results(path)


# grids whose last value the base scenario rejects, with the config's message
_BAD_GRIDS = [
    ("k", [1.0, math.nan], "ks must be finite"),
    ("n_antennas", [5, 1], "n_antennas must be at least 2"),
    ("pa_db", [10, math.inf], "pa must be finite"),
    ("k", [2, -1], "Rician K-factors must be nonnegative"),
]


def _no_solve(*args, **kwargs):
    raise AssertionError("a row was solved")


# c^2 = 8.8e307 per eavesdropper, so three of them sum beyond the float range
_THREE_HUGE_EVES = {"n_eves": 3, "thetas": [0.275, 0.5, 0.9],
                    "betas": [9.4e153] * 3, "ks": [0.0] * 3}


class TestConfigParsing:
    def test_angles_in_units_of_pi(self):
        cfg = config_from_dict({
            "n_antennas": 4, "n_eves": 1, "theta0": 0.25, "thetas": [0.3],
            "beta0": 1.0, "betas": [1.0], "ks": [2.0], "pa": 10.0,
            "sigma2": 1.0, "rs": 1.0, "span": 2.0})
        assert cfg.theta0 == pytest.approx(np.pi / 4)
        assert cfg.thetas[0] == pytest.approx(0.3 * np.pi)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"n_antennas": 4, "frequency": 2.4})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n_antennas": 5, "n_eves": 1, "theta0": 0.25, "thetas": [0.275],
            "beta0": 1.0, "betas": [1.0], "ks": [4.0], "pa": 31.6,
            "sigma2": 1.0, "rs": 3.0, "span": 4.0}))
        cfg = load_config(path)
        assert cfg.n_antennas == 5
        assert cfg.pa == 31.6


    @pytest.mark.parametrize("key, value, message", [
        ("n_antennas", 10**400, "n_antennas must be an integer in the float"),
        ("pa", 10**400, "pa must be a number in the float range"),
        ("betas", [-10**400], "betas must be a list of numbers in the float"),
    ])
    def test_rejects_integers_beyond_the_float_range(self, key, value,
                                                     message):
        with pytest.raises(ValueError, match=message):
            config_from_dict({**_sweep_spec()["base"], key: value})

    def test_numbers_other_than_the_counts_become_floats(self):
        cfg = config_from_dict({**_sweep_spec()["base"], "pa": 10**30,
                                "span": 4})
        assert (cfg.pa, cfg.span) == (1e30, 4.0)
        assert type(cfg.pa) is type(cfg.span) is float
        assert type(cfg.n_antennas) is int

    @pytest.mark.parametrize("variable, grid", [("bogus", []), (7, [1.0])])
    def test_sweep_spec_rejects_an_unknown_variable(self, variable, grid):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown sweep variable {variable!r}, expected one of")):
            sweep_spec_from_dict(_sweep_spec(variable=variable, grid=grid))

    def test_sweep_spec_rejects_negative_seeds(self):
        with pytest.raises(ValueError, match="seeds must be a non-empty list "
                           "of non-negative integers"):
            sweep_spec_from_dict(_sweep_spec(seeds=[0, -3]))
        assert sweep_spec_from_dict(_sweep_spec(seeds=[0, 3])).seeds == (0, 3)

    def test_sweep_grid_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="grid must be a list of numbers"):
            sweep_spec_from_dict(_sweep_spec(grid=[1.0, 10**400]))

    @pytest.mark.parametrize("variable, grid, message", _BAD_GRIDS)
    def test_sweep_spec_builds_every_grid_point(self, variable, grid, message,
                                                monkeypatch):
        monkeypatch.setattr(bench, "run_scheme", _no_solve)
        bad = float(grid[-1])
        with pytest.raises(ValueError, match=re.escape(
                f"sweep spec grid value {variable}={bad!r}: {message}")):
            sweep_spec_from_dict(_sweep_spec(
                variable=variable, grid=grid, schemes=["FPA_ZF", "MA_OB"]))

    @pytest.mark.parametrize("key, value, message", [
        ("rs", 1100.0, "rs=1100.0 is too large"),
        ("rs", 1024.0, "rs=1024.0 is too large"),
        ("ks", [1e308], "eavesdropper 1: beta=1.0 and K=1e+308"),
        ("betas", [1e300], "eavesdropper 1: beta=1e+300 and K=4.0"),
        ("betas", [1e-200], "eavesdropper 1: beta=1e-200 and K=4.0"),
        # each eavesdropper's terms are finite, their sum of c^2 is not
        ("eves", _THREE_HUGE_EVES, "summed Gamma moment match out of the"),
    ])
    def test_rejects_a_moment_match_beyond_the_float_range(self, key, value,
                                                           message):
        changes = value if key == "eves" else {key: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict({**_sweep_spec()["base"], **changes})

    def test_rejects_a_steering_phase_beyond_the_float_range(self):
        with pytest.raises(ValueError, match=re.escape(
                "span=1e+308 and wavelength=1.0 overflow the steering")):
            config_from_dict({**_sweep_spec()["base"], "span": 1e308})

    def test_largest_rate_below_the_overflow_is_kept(self):
        cfg = config_from_dict({**_sweep_spec()["base"], "rs": 1023.5})
        assert moment_match(cfg).rate_pow == 2.0 ** 1023.5

    def test_power_in_db_that_overflows(self):
        with pytest.raises(ValueError, match="pa_db=4000.0 overflows"):
            apply_variable(base_config(), "pa_db", 4000.0)


_FIELDS = [f.name for f in dataclasses.fields(SystemConfig)]
_NUMBER = (st.integers() | st.floats()
           | st.sampled_from([10**400, -10**400, 10**30]))
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | _NUMBER,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(changes=st.dictionaries(
           st.sampled_from(_FIELDS + ["frequency"]),
           _NUMBER | st.lists(_NUMBER, min_size=1, max_size=2) | _JSON,
           max_size=3),
       dropped=st.sets(st.sampled_from(_FIELDS), max_size=1),
       foreign=st.dictionaries(st.text(max_size=8), _JSON, max_size=4),
       use_foreign=st.booleans())
def test_config_parsing_gives_a_config_or_a_value_error(
        changes, dropped, foreign, use_foreign):
    # a valid scenario with some keys replaced or dropped, or any mapping;
    # the configs are only built, never solved
    raw = dict(foreign) if use_foreign else {**_sweep_spec()["base"],
                                             **changes}
    for name in dropped:
        raw.pop(name, None)
    try:
        cfg = config_from_dict(raw)
    except ValueError:
        return
    assert isinstance(cfg, SystemConfig)


_SCHEME_NAMES = [s.value for s in SchemeId]
_SPEC_VALUE = (st.sampled_from(SWEEP_VARIABLES) | _NUMBER | _JSON
               | st.lists(_NUMBER, max_size=3)
               | st.lists(st.sampled_from(_SCHEME_NAMES + ["NOPE"]),
                          max_size=3)
               | st.lists(st.integers(-2, 3) | st.booleans(), max_size=2))
_SPEC_KEYS = ["base", "variable", "grid", "schemes", "seeds", "restarts"]


@settings(max_examples=100, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(_SPEC_KEYS + ["extra"]),
                               _SPEC_VALUE, max_size=3),
       dropped=st.sets(st.sampled_from(_SPEC_KEYS), max_size=2),
       foreign=st.dictionaries(st.text(max_size=8), _JSON, max_size=4) | _JSON,
       use_foreign=st.booleans())
def test_sweep_spec_parsing_gives_a_spec_or_a_value_error(
        changes, dropped, foreign, use_foreign):
    # a valid sweep with some keys replaced or dropped, or any JSON value;
    # the specs are only built, and no row is solved
    raw = foreign if use_foreign else {
        key: value for key, value in {**_sweep_spec(), **changes}.items()
        if key not in dropped}
    with mock.patch.object(bench, "run_scheme", _no_solve):
        try:
            spec = sweep_spec_from_dict(raw)
        except ValueError as exc:
            assert "\n" not in str(exc)
            return
    assert isinstance(spec, SweepSpec)
    assert len(spec.scenarios) == len(spec.grid)


class TestPresets:
    def test_known_names(self):
        for name in ("ob-demo", "zf-demo-far", "zf-demo-near", "k-sweep",
                     "m-sweep", "cdf-demo"):
            cfg = preset(name)
            assert cfg.n_antennas >= 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("nope")

    def test_cdf_case_is_normalized(self):
        cfg, x, w = cdf_check_case(4.0)
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert cfg.ks == (4.0, 4.0, 4.0)
        assert x.shape == (cfg.n_antennas,)


def in_unit(cfg, scale):
    """``cfg`` with beta0, every beta and sigma2 in a unit 1/scale of its
    own: every power ratio of the scenario stays as it was."""
    return dataclasses.replace(
        cfg, beta0=cfg.beta0 * scale, sigma2=cfg.sigma2 * scale,
        betas=tuple(b * scale for b in cfg.betas))


def _outcome(scheme, cfg):
    """(eps, p_out) of a scheme at 20 restarts, or its error's class."""
    try:
        res = run_scheme(scheme, cfg, restarts=20)
    except (ValueError, SingularSteeringError) as exc:
        return type(exc)
    return res.eps, res.p_out


@functools.cache
def _unit_outcomes(name):
    return {s: _outcome(s, preset(name)) for s in SchemeId}


class TestUnitOfPower:
    """The outage depends on power ratios only, and so does every solve:
    a scenario in any one unit of power gives the answers of the presets'."""

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    @pytest.mark.parametrize("name", ["ob-demo", "zf-demo-far",
                                      "zf-demo-near", "k-sweep", "m-sweep",
                                      "cdf-demo"])
    def test_every_scheme_on_every_preset(self, name, scale):
        for scheme, want in _unit_outcomes(name).items():
            got = _outcome(scheme, in_unit(preset(name), scale))
            if isinstance(want, type):
                assert got is want, scheme
            else:
                assert got[0] == want[0], scheme
                assert got[1] == pytest.approx(want[1], abs=1e-12), scheme

    @pytest.mark.parametrize("scale", [1e-300, 1e308])
    def test_the_ends_of_the_float_range(self, scale):
        # warnings are errors in this suite: no solve over- or underflows
        for scheme in SchemeId:
            want = _outcome(scheme, base_config())
            got = _outcome(scheme, in_unit(base_config(), scale))
            assert got[0] == want[0], scheme
            assert got[1] == pytest.approx(want[1], abs=1e-12), scheme


def _sweep_spec(**override):
    """A valid one-row FPA_ZF sweep spec with some keys replaced."""
    spec = {"base": {
                "n_antennas": 5, "n_eves": 1, "theta0": 0.25,
                "thetas": [0.275], "beta0": 1.0, "betas": [1.0],
                "ks": [4.0], "pa": 31.6, "sigma2": 1.0, "rs": 3.0},
            "variable": "k", "grid": [1.0], "schemes": ["FPA_ZF"],
            "seeds": [0], "restarts": 1}
    spec.update(override)
    return spec


class TestCli:
    def test_solve_with_preset(self, capsys):
        code = main(["solve", "--preset", "ob-demo", "--scheme", "FPA_ZF"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p_out=" in out
        assert "positions:" in out

    def test_solve_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(["solve", "--preset", "ob-demo", "--scheme", "FPA_ZF",
                     "--out", str(out)])
        assert code == 0
        rows = read_results(out)
        assert len(rows) == 1
        assert rows[0].scheme == "FPA_ZF"

    def test_fit_table_then_reuse(self, tmp_path, capsys):
        tab = tmp_path / "table.txt"
        code = main(["fit-table", "--out", str(tab), "--tau", "0.1",
                     "--points", "60"])
        assert code == 0
        code = main(["solve", "--preset", "ob-demo", "--scheme", "FPA_OB",
                     "--table", str(tab)])
        assert code == 0

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec = {"base": {
                    "n_antennas": 5, "n_eves": 1, "theta0": 0.25,
                    "thetas": [0.275], "beta0": 1.0, "betas": [1.0],
                    "ks": [4.0], "pa": 31.6, "sigma2": 1.0, "rs": 3.0,
                    "span": 3.0},
                "variable": "k", "grid": [0.0, 4.0],
                "schemes": ["FPA_ZF"], "restarts": 1}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--spec", str(spath), "--out", str(out)])
        assert code == 0
        assert len(read_results(out)) == 2

    def test_mc_check(self, capsys):
        code = main(["mc-check", "--preset", "cdf-demo", "--seed", "2",
                     "--trials", "20000"])
        assert code == 0
        assert "abs_diff=" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["solve", "--preset", "ob-demo", "--scheme", "MA_OB", "--seed", "-1"],
        ["solve", "--preset", "ob-demo", "--scheme", "RAP_OB", "--seed", "-1"],
        ["mc-check", "--preset", "cdf-demo", "--seed", "-3"],
        ["mc-check", "--preset", "cdf-demo", "--seed", "abc"],
    ])
    def test_negative_seed_is_a_parse_error(self, args, tmp_path, capsys):
        # rejected before any solve: no row, and one error line naming --seed
        out = tmp_path / "row.csv"
        with pytest.raises(SystemExit) as exc:
            main(args + (["--out", str(out)] if args[0] == "solve" else []))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == [f"masec {args[0]}: error: argument --seed: "
                          f"must be an integer >= 0, got {args[-1]}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("raised", [
        MemoryError("Unable to allocate 37.3 TiB for an array with shape "
                    "(1000000000000, 5) and data type float64"),
        MemoryError()])
    def test_memory_error_is_error_exit(self, monkeypatch, capsys, raised):
        # a huge --restarts fails to allocate its draws; the fake raises
        # what numpy raises there, without trying the allocation
        asked = []

        def no_memory(*args, restarts, **kwargs):
            asked.append(restarts)
            raise raised
        monkeypatch.setattr(bench, "run_scheme", no_memory)
        code = main(["solve", "--preset", "ob-demo", "--scheme", "RAP_OB",
                     "--restarts", "1000000000000"])
        assert (code, asked) == (2, [10 ** 12])
        err = capsys.readouterr().err
        assert err == f"error: {str(raised) or 'MemoryError'}\n"

    def test_an_unexpected_error_keeps_its_traceback(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("a bug")
        monkeypatch.setattr(bench, "run_scheme", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["solve", "--preset", "ob-demo", "--scheme", "RAP_OB"])

    def test_missing_scenario_is_error_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--scheme", "FPA_ZF"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_preset_name_is_error_exit(self, capsys):
        code = main(["solve", "--preset", "zzz", "--scheme", "FPA_ZF"])
        assert code == 2

    def test_tag_only_table_is_error_exit(self, tmp_path, capsys):
        tab = tmp_path / "table.txt"
        tab.write_text("# masec-surrogate-v1\n")
        code = main(["solve", "--preset", "ob-demo", "--scheme", "FPA_OB",
                     "--table", str(tab)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_table_is_error_exit(self, tmp_path, capsys):
        tab = tmp_path / "table.txt"
        assert main(["fit-table", "--tau", "0.1", "--out", str(tab)]) == 0
        lines = tab.read_text().splitlines()
        lines[4] = "nan " + lines[4].split(maxsplit=1)[1]
        tab.write_text("\n".join(lines) + "\n")
        code = main(["solve", "--preset", "ob-demo", "--scheme", "MA_OB",
                     "--table", str(tab)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tau, rows", [("0.3", 3), ("0.7", 1)])
    def test_fit_table_keeps_the_last_level_below_one(self, tau, rows,
                                                      tmp_path, capsys):
        tab = tmp_path / "table.txt"
        assert main(["fit-table", "--out", str(tab), "--tau", tau,
                     "--points", "2"]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {rows} rows")
        assert surrogate.load_table(tab).eps_grid.size == rows

    @pytest.mark.parametrize("args, message", [
        (["--tau", "1e-7"], "quantile solves"),
        (["--tau", "5e-324"], "quantile solves"),
        (["--points", "200000"], "quantile solves"),
    ])
    def test_fit_table_rejects_a_grid_before_solving(self, args, message,
                                                     tmp_path, capsys):
        # a grid far above the default 99 x 1000 is one error line and no
        # file
        tab = tmp_path / "table.txt"
        assert main(["fit-table", "--out", str(tab)] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert not tab.exists()

    @pytest.mark.parametrize("bound", [["--hi", "inf"], ["--lo", "nan"]])
    def test_non_finite_fit_range_is_error_exit(self, bound, tmp_path, capsys):
        tab = tmp_path / "table.txt"
        code = main(["fit-table", "--out", str(tab)] + bound)
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not tab.exists()

    @pytest.mark.parametrize("bound", [
        ["--hi", "1e5"], ["--hi", "1e6", "--tau", "0.5", "--points", "2"]])
    def test_fit_range_past_the_checked_shapes_is_error_exit(
            self, bound, tmp_path, capsys):
        # the quantile solve stalls or its series fails at these shapes
        tab = tmp_path / "table.txt"
        assert main(["fit-table", "--out", str(tab)] + bound) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fit range must end at or below 10000")
        assert err.count("\n") == 1
        assert not tab.exists()

    @pytest.mark.parametrize("command, content, message", [
        ("sweep", {"variable": "k", "grid": [1.0]}, "lacks keys: ['base']"),
        ("sweep", [1, 2], "must be a JSON object"),
        ("sweep", {"base": {"n_antennas": "5"}, "variable": "k",
                   "grid": [1.0]}, "n_antennas must be an integer"),
        ("solve", {"n_antennas": 5, "n_eves": 1, "theta0": 0.25,
                   "thetas": 0.3, "beta0": 1.0, "betas": [1.0], "ks": [4.0],
                   "pa": 31.6, "sigma2": 1.0, "rs": 3.0},
         "thetas must be a list of numbers"),
        ("solve", {"n_antennas": 5}, "missing config keys: ['n_eves'"),
        ("sweep", _sweep_spec(restarts=None), "restarts must be a positive"),
        ("sweep", _sweep_spec(restarts=True), "restarts must be a positive"),
        ("sweep", _sweep_spec(restarts=2.5), "restarts must be a positive"),
        ("sweep", _sweep_spec(restarts=0), "restarts must be a positive"),
        ("sweep", _sweep_spec(schemes=5), "schemes must be a list of names"),
        ("sweep", _sweep_spec(schemes=["MA_XX"]), "schemes must be a list"),
        ("sweep", _sweep_spec(seeds=[]), "seeds must be a non-empty list"),
        ("sweep", _sweep_spec(seeds=[1.5]), "seeds must be a non-empty list"),
        ("sweep", _sweep_spec(grid="1.0"), "grid must be a list of numbers"),
        ("sweep", _sweep_spec(variable="n_antennas", grid=[2.5]),
         "n_antennas must be a whole number, got 2.5"),
        ("sweep", _sweep_spec(variable="n_eves", grid=[2.5]),
         "n_eves must be a whole number, got 2.5"),
        ("solve", {**_sweep_spec()["base"], "n_antennas": 10**400},
         "n_antennas must be an integer in the float range"),
        ("solve", {**_sweep_spec()["base"], "pa": 10**400},
         "pa must be a number in the float range"),
        ("sweep", _sweep_spec(grid=[10**400]),
         "grid must be a list of numbers in the float range"),
        ("sweep", _sweep_spec(variable="pa_db", grid=[4000.0]),
         "pa_db=4000.0 overflows a float"),
        ("solve", {**_sweep_spec()["base"], "rs": 1100.0},
         "rs=1100.0 is too large: 2**rs overflows a float"),
        ("sweep", _sweep_spec(variable="rs", grid=[2000.0]),
         "rs=2000.0 is too large: 2**rs overflows a float"),
        ("solve", {**_sweep_spec()["base"], "ks": [1e308]},
         "moment match out of the float range"),
        ("solve", {**_sweep_spec()["base"], **_THREE_HUGE_EVES},
         "summed Gamma moment match out of the float range"),
        ("sweep", _sweep_spec(grid=[]), "sweep spec grid must not be empty"),
        ("sweep", _sweep_spec(schemes=[]),
         "sweep spec schemes must not be empty"),
    ])
    def test_malformed_json_is_error_exit(self, command, content, message,
                                          tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        args = (["sweep", "--spec", str(path), "--out",
                 str(tmp_path / "rows.csv")] if command == "sweep" else
                ["solve", "--config", str(path), "--scheme", "FPA_ZF"])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scheme", ["FPA_OB", "FPA_ZF"])
    def test_huge_rician_factor_is_error_exit(self, scheme, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**_sweep_spec()["base"], "ks": [1e308]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--config", str(path), "--scheme", scheme])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eavesdropper 1:") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_sweep_with_an_unknown_variable_and_no_rows(self, tmp_path,
                                                        capsys):
        path, out = tmp_path / "spec.json", tmp_path / "rows.csv"
        path.write_text(json.dumps(_sweep_spec(variable="bogus", grid=[])))
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown sweep variable 'bogus'")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_sweep_with_a_negative_seed_solves_no_row(self, tmp_path,
                                                     capsys):
        path, out = tmp_path / "spec.json", tmp_path / "rows.csv"
        path.write_text(json.dumps(_sweep_spec(
            seeds=[-3], schemes=["FPA_OB", "RAP_ZF"])))
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep spec seeds must be")
        assert "non-negative integers" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("variable, grid, message", _BAD_GRIDS)
    def test_sweep_rejects_a_bad_grid_value_before_any_row(
            self, variable, grid, message, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(bench, "run_scheme", _no_solve)
        path, out = tmp_path / "spec.json", tmp_path / "rows.csv"
        # json writes NaN and Infinity, which json reads back
        path.write_text(json.dumps(_sweep_spec(
            variable=variable, grid=grid, schemes=["FPA_ZF", "MA_OB"])))
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep spec grid value {variable}="
                              f"{float(grid[-1])!r}: ")
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, content", [
        ("solve", ""), ("solve", '{"n_antennas": 5,'),
        ("sweep", '{"base": {"n_antennas": 5}, "variable": "k", "grid": [1.0'),
    ])
    def test_malformed_json_file_is_named(self, command, content, tmp_path,
                                          capsys):
        path = tmp_path / "in.json"
        path.write_text(content)
        args = (["sweep", "--spec", str(path), "--out",
                 str(tmp_path / "rows.csv")] if command == "sweep" else
                ["solve", "--config", str(path), "--scheme", "FPA_ZF"])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "line 1 column" in err

    def test_sweep_reports_a_scheme_that_rejects_a_point(self, tmp_path,
                                                         capsys):
        # two antennas cannot null two eavesdroppers: zero-forcing's own
        # ValueError skips that row, in the form perfbench parses
        cfg = preset("zf-demo-far")
        base = {f.name: getattr(cfg, f.name)
                for f in dataclasses.fields(SystemConfig)}
        base["theta0"] /= np.pi
        base["thetas"] = [t / np.pi for t in cfg.thetas]
        path, out = tmp_path / "spec.json", tmp_path / "rows.csv"
        path.write_text(json.dumps({"base": base, "variable": "n_antennas",
                                    "grid": [2, 3], "schemes": ["FPA_ZF"]}))
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert re.findall(r"skipped (\w+) at \w+=([-\d.e]+)", err) == \
            [("FPA_ZF", "2.0")]
        assert err == ("skipped FPA_ZF at n_antennas=2.0: zero-forcing needs "
                       "n_antennas >= n_eves + 1 (got N=2, M=2)\n")
        assert [(r.scheme, r.variable_value) for r in read_results(out)] == \
            [("FPA_ZF", 3.0)]

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--out"), ("solve", "--trace"), ("sweep", "--out"),
        ("fit-table", "--out")])
    @pytest.mark.parametrize("parent", ["missing", "a-file", "a-dir"])
    def test_an_unwritable_output_fails_before_any_solve(
            self, command, flag, parent, monkeypatch, tmp_path, capsys):
        # the error that writing the file would raise, and nothing solved;
        # under "a-dir" the output path itself is a directory.  The
        # commands look the solvers up in their home modules when they run
        for module, name in ((bench, "run_scheme"), (bench, "run_sweep"),
                             (cli, "fit_linear_surrogate")):
            monkeypatch.setattr(module, name, _no_solve)
        (tmp_path / "a-file").write_text("")
        (tmp_path / "a-dir" / "r.csv").mkdir(parents=True)
        target = tmp_path / parent / "r.csv"
        with pytest.raises(OSError) as opened:
            target.write_text("")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_sweep_spec()))
        args = {"solve": ["solve", "--preset", "ob-demo", "--scheme", "MA_OB"],
                "sweep": ["sweep", "--spec", str(spec)],
                "fit-table": ["fit-table"]}[command]
        assert main(args + [flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {opened.value}\n"

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--out"]), ("solve", ["--trace"]),
        ("solve", ["--out", "--trace"]), ("sweep", ["--out"]),
        ("fit-table", ["--out"])],
        ids=["solve-out", "solve-trace", "solve-both", "sweep", "fit-table"])
    def test_an_empty_output_path_fails_before_any_solve(
            self, command, flags, monkeypatch, tmp_path, capsys):
        # "" is given, not absent: it fails as writing to "" would, exit 2
        # with one error line, and nothing is solved or written
        for module, name in ((bench, "run_scheme"), (bench, "run_sweep"),
                             (cli, "fit_linear_surrogate")):
            monkeypatch.setattr(module, name, _no_solve)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError) as opened:
            open("", "w")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_sweep_spec()))
        args = {"solve": ["solve", "--preset", "ob-demo",
                          "--scheme", "MA_MRT"],
                "sweep": ["sweep", "--spec", str(spec)],
                "fit-table": ["fit-table"]}[command]
        assert main(args + [a for flag in flags for a in (flag, "")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {opened.value}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--table"), ("sweep", "--table"), ("sweep", "--spec"),
        ("solve", "--config")])
    def test_an_empty_input_path_fails_before_any_solve(
            self, command, flag, monkeypatch, tmp_path, capsys):
        # "" is given, not absent: it fails as opening "" would, neither as
        # reading the directory "." nor by falling back to the shipped table
        for name in ("run_scheme", "run_sweep"):
            monkeypatch.setattr(bench, name, _no_solve)
        with pytest.raises(OSError) as opened:
            open("")
        spec, out = tmp_path / "spec.json", tmp_path / "rows.csv"
        spec.write_text(json.dumps(_sweep_spec()))
        args = {"solve": ["solve", "--scheme", "MA_MRT"]
                + ([] if flag == "--config" else ["--preset", "ob-demo"]),
                "sweep": ["sweep", "--out", str(out)]
                + ([] if flag == "--spec" else ["--spec", str(spec)])}[command]
        assert main(args + [flag, ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {opened.value}\n"
        assert "''" in captured.err and not out.exists()

    def test_an_output_in_the_working_directory(self, monkeypatch, tmp_path,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--preset", "ob-demo", "--scheme", "FPA_ZF",
                     "--out", "row.csv"]) == 0
        assert [r.scheme for r in read_results(tmp_path / "row.csv")] == \
            ["FPA_ZF"]

    @pytest.mark.parametrize("scheme", ["FPA_ZF", "RAP_ZF"])
    def test_trace_of_a_scheme_without_one(self, scheme, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        assert main(["solve", "--preset", "ob-demo", "--scheme", scheme,
                     "--restarts", "4", "--trace", str(trace)]) == 0
        assert capsys.readouterr().err == "no trace available for this scheme\n"
        assert not trace.exists()

    @pytest.mark.parametrize("scheme", ["MA_OB", "FPA_OB", "MA_MRT"])
    def test_trace_of_a_solve_without_iterations(self, scheme, tmp_path,
                                                 capsys):
        # at pa 1e-3 the outage is certain: the bisection probes no level
        config, trace = tmp_path / "lowpa.json", tmp_path / "t.txt"
        config.write_text(json.dumps({**_sweep_spec()["base"], "pa": 1e-3}))
        assert main(["solve", "--config", str(config), "--scheme", scheme,
                     "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "p_out=1.000000 eps=0.0000 iterations=0" in captured.out
        assert captured.err == ""
        assert trace.read_text() == \
            "# iteration delta_beam delta_pos objective beta\n"

    @pytest.mark.parametrize("command", [["solve", "--scheme", "MA_MRT"],
                                         ["mc-check"]])
    def test_config_and_preset_together_is_a_parse_error(
            self, command, monkeypatch, tmp_path, capsys):
        for module, name in ((bench, "load_config"), (bench, "preset"),
                             (bench, "run_scheme"),
                             (outage, "monte_carlo_outage")):
            monkeypatch.setattr(module, name, _no_solve)
        config = tmp_path / "s.json"
        config.write_text(json.dumps(_sweep_spec()["base"]))
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(config), "--preset", "ob-demo"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --preset: not allowed with argument --config" \
            in captured.err

    def test_sweep_takes_integral_float_counts(self, tmp_path, capsys):
        path, out = tmp_path / "spec.json", tmp_path / "rows.csv"
        path.write_text(json.dumps(_sweep_spec(variable="n_antennas",
                                               grid=[3.0])))
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 0
        assert [r.variable_value for r in read_results(out)] == [3.0]

    def test_trace_output(self, tmp_path, capsys):
        columns = {}
        for preset_name, scheme in [("ob-demo", "MA_OB"),
                                    ("zf-demo-far", "MA_ZF"),
                                    ("m-sweep", "MA_OB")]:
            trace = tmp_path / f"{preset_name}-{scheme}.txt"
            code = main(["solve", "--preset", preset_name, "--scheme", scheme,
                         "--trace", str(trace)])
            assert code == 0
            lines = trace.read_text().splitlines()
            assert lines[0] == "# iteration delta_beam delta_pos objective beta"
            assert len(lines) > 1
            rows = [line.split() for line in lines[1:]]
            assert all(len(row) == 5 for row in rows)
            columns[preset_name] = list(zip(*rows))

        def numeric(column):
            return [v != "-" and math.isfinite(float(v)) for v in column]
        # MA_OB's certified solve steps both blocks in every iteration, and
        # the slow m-sweep solve extrapolates in some of them
        _, beam, pos, _, _ = columns["ob-demo"]
        assert len(beam) == 5 and all(numeric(beam)) and all(numeric(pos))
        assert any(numeric(columns["m-sweep"][4]))

    def test_table_below_half_is_usable(self, tmp_path, capsys):
        # one row at eps 0.4: the bisection starts at the table's top
        tab = tmp_path / "table.txt"
        table = surrogate.fit_linear_surrogate(tau=0.4)
        surrogate.save_table(dataclasses.replace(
            table, eps_grid=table.eps_grid[:1], slope=table.slope[:1],
            intercept=table.intercept[:1]), tab)
        code = main(["solve", "--preset", "ob-demo", "--scheme", "MA_OB",
                     "--table", str(tab)])
        assert code == 0
        assert "eps=0.4000" in capsys.readouterr().out


def test_scheme_result_carries_eps_only_for_bisection(table):
    cfg = base_config()
    ob = run_scheme(SchemeId.MA_OB, cfg, table=table)
    zfr = run_scheme(SchemeId.MA_ZF, cfg, table=table)
    assert ob.eps is not None
    assert zfr.eps is None


@pytest.mark.parametrize("max_outer", [2.5, -3, True, None, "10"])
def test_params_reject_a_cap_that_is_not_a_non_negative_integer(max_outer):
    with pytest.raises(ValueError) as caught:
        OptimizerParams(max_outer)
    assert str(caught.value) == "max_outer must be a non-negative integer"


def test_params_take_a_zero_or_numpy_cap():
    assert OptimizerParams(0).max_outer == 0
    assert OptimizerParams(np.int64(7)).max_outer == 7


def test_default_params_match_documented_values():
    assert [f.name for f in dataclasses.fields(OptimizerParams)] == ["max_outer"]
    assert OptimizerParams().max_outer == 2000
    assert (ascent.DELTA0, ascent.SHRINK) == (1.0, 0.5)
    assert (ascent.MIN_STEP, ascent.OBJ_TOL) == (1e-15, 1e-8)
    assert (ascent.GROW_AFTER, ascent.MOMENTUM_AFTER) == (2, 5)
    assert surrogate.DEFAULT_TAU == 0.01


def test_readme_scenario_json_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    scenario = readme.split("### Scenario JSON", 1)[1]
    block = scenario.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(json.loads(block))
    assert cfg == dataclasses.replace(base_config(pa=31.6),
                                      thetas=(0.275 * np.pi,))


def test_readme_library_snippet_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, "README.md", "exec"), {})
    eps, p_out = map(float, capsys.readouterr().out.splitlines()[0].split())
    assert 0.0 < eps <= 1.0 - p_out

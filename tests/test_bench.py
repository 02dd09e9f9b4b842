"""Scheme dispatch, sweeps, CSV persistence, CLI plumbing."""
import json

import numpy as np
import pytest

from masec import bench, surrogate, zf
from masec.bench import (
    SchemeId,
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
)
from masec.ascent import OptimizerParams, bisection_outage_min
from masec.cli import main
from masec.model import feasible_region, mrt_beamformer
from masec.zf import SingularSteeringError, zf_outage


class TestSchemes:
    def test_all_schemes_produce_probabilities(self, table):
        cfg = base_config()
        for sid in SchemeId:
            res = run_scheme(sid, cfg, table=table, seed=1, restarts=2)
            assert 0.0 <= res.p_out <= 1.0
            assert np.linalg.norm(res.w) == pytest.approx(1.0, abs=1e-9)

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

    def test_fpa_scheme_uses_fixed_layout(self, table):
        cfg = base_config()
        res = run_scheme(SchemeId.FPA_OB, cfg, table=table)
        assert np.array_equal(res.x, fpa_positions(cfg))

    def test_joint_beats_fixed_array(self, table):
        cfg = base_config()
        ma = run_scheme(SchemeId.MA_OB, cfg, table=table)
        fpa = run_scheme(SchemeId.FPA_OB, cfg, table=table)
        assert ma.p_out <= fpa.p_out + 0.01

    def test_unknown_scheme_rejected(self, table):
        with pytest.raises(ValueError):
            run_scheme("NOT_A_SCHEME", base_config(), table=table)


def reference_random_placement(scheme, cfg, seed, restarts, table):
    """Best of ``restarts`` placements drawn and evaluated one at a time."""
    rng = np.random.default_rng(seed)
    region = feasible_region(cfg)
    best_p, best_x = np.inf, None
    for _ in range(restarts):
        x = rng.uniform(region.lo, region.hi)
        if scheme is SchemeId.RAP_ZF:
            p = zf_outage(x, cfg)
        else:
            p = bisection_outage_min(cfg, table, w0=mrt_beamformer(x, cfg),
                                     x0=x, mode="beam_only").p_out
        if p < best_p:
            best_p, best_x = p, x
    return best_p, best_x


class TestRandomPlacement:
    @pytest.mark.parametrize("name", ["ob-demo", "zf-demo-far", "k-sweep"])
    @pytest.mark.parametrize("scheme,restarts", [(SchemeId.RAP_ZF, 1),
                                                 (SchemeId.RAP_ZF, 150),
                                                 (SchemeId.RAP_OB, 4)])
    def test_matches_per_restart_loop(self, name, scheme, restarts, table):
        cfg = preset(name)
        res = run_scheme(scheme, cfg, seed=3, restarts=restarts, table=table)
        p, x = reference_random_placement(scheme, cfg, 3, restarts, table)
        assert np.array_equal(res.x, x)
        assert res.p_out == pytest.approx(p, rel=1e-14, abs=1e-15)

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
            rows.append(np.asarray(x).reshape(-1, cfg.n_antennas).shape[0])
            return steering(x, cfg)
        monkeypatch.setattr(zf, "_steering", counting)
        run_scheme(SchemeId.RAP_ZF, preset("zf-demo-far"), seed=3,
                   restarts=150)
        assert rows == [150, 1]    # every draw, then the chosen beamformer

    def test_rap_zf_raises_when_no_draw_is_usable(self):
        cfg = base_config(n_eves=2, thetas=(0.5, 0.5 + 1e-9), betas=(1.0, 1.0),
                          ks=(4.0, 4.0))
        with pytest.raises(SingularSteeringError, match="ill-conditioned"):
            run_scheme(SchemeId.RAP_ZF, cfg, seed=0, restarts=5)

    @pytest.mark.parametrize("scheme", [SchemeId.RAP_ZF, SchemeId.RAP_OB])
    def test_needs_a_restart(self, scheme, table):
        with pytest.raises(ValueError, match="restarts"):
            run_scheme(scheme, base_config(), table=table, restarts=0)


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
        def no_fit(*args, **kwargs):
            raise RuntimeError("the surrogate table was fitted")

        monkeypatch.setattr(surrogate, "fit_linear_surrogate", no_fit)
        surrogate.default_table.cache_clear()
        spec = SweepSpec(base=base_config(), variable="k", grid=[1.0, 4.0],
                         schemes=[SchemeId.RAP_ZF, SchemeId.FPA_ZF],
                         restarts=2)
        rows = run_sweep(spec).rows
        assert [r.scheme for r in rows] == ["RAP_ZF", "FPA_ZF"] * 2


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

    def test_missing_scenario_is_error_exit(self, capsys):
        code = main(["solve", "--scheme", "FPA_ZF"])
        assert code == 2
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

    @pytest.mark.parametrize("bound", [["--hi", "inf"], ["--lo", "nan"]])
    def test_non_finite_fit_range_is_error_exit(self, bound, tmp_path, capsys):
        tab = tmp_path / "table.txt"
        code = main(["fit-table", "--out", str(tab)] + bound)
        assert code == 2
        assert "finite" in capsys.readouterr().err
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

    def test_trace_output(self, tmp_path, capsys):
        for preset_name, scheme in [("ob-demo", "MA_OB"),
                                    ("zf-demo-far", "MA_ZF")]:
            trace = tmp_path / f"{scheme}.txt"
            code = main(["solve", "--preset", preset_name, "--scheme", scheme,
                         "--trace", str(trace)])
            assert code == 0
            lines = trace.read_text().splitlines()
            assert lines[0].startswith("#")
            assert len(lines) > 1

    def test_table_below_half_is_usable(self, tmp_path, capsys):
        # one row at eps 0.4: the bisection starts at the table's top
        tab = tmp_path / "table.txt"
        surrogate.save_table(surrogate.fit_linear_surrogate(tau=0.4), tab)
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


def test_default_params_match_documented_values():
    p = OptimizerParams()
    assert p.delta0 == 1.0
    assert p.shrink == 0.5
    assert p.tau == 0.01

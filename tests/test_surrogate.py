"""Quantile surrogate table: fit quality, lookup, persistence."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from masec import preset, run_scheme, surrogate
from masec.cli import main
from masec.gammainc import inverse_lower_incomplete_gamma
from masec.surrogate import (
    DEFAULT_FIT_RANGE,
    DEFAULT_N_FIT_POINTS,
    DEFAULT_TAU,
    default_table,
    fit_linear_surrogate,
    load_table,
    save_table,
    surrogate_lookup,
)


class TestFit:
    def test_grid_layout(self, table):
        assert table.eps_grid[0] == pytest.approx(0.01)
        assert table.max_eps == pytest.approx(0.99)
        assert table.eps_grid.size == 99
        assert np.allclose(np.diff(table.eps_grid), 0.01)

    def test_slopes_strictly_positive(self, table):
        assert np.all(table.slope > 0.0)

    def test_slope_and_intercept_nondecreasing(self, table):
        assert np.all(np.diff(table.slope) >= 0.0)
        assert np.all(np.diff(table.intercept) >= 0.0)

    def test_median_line_is_nearly_identity(self, table):
        # quantile(0.5, a) ~ a - 1/3 for large shapes, so the mid row of
        # the table must fit a line close to slope 1, intercept -1/3
        slope, intercept = surrogate_lookup(table, 0.5)
        assert slope == pytest.approx(1.0, abs=0.005)
        assert intercept == pytest.approx(-1.0 / 3.0, abs=0.01)

    def test_pointwise_error_at_median(self, table):
        a = np.linspace(2.0, 100.0, 200)
        slope, intercept = surrogate_lookup(table, 0.5)
        truth = inverse_lower_incomplete_gamma(0.5, a)
        rel = np.abs(slope * a + intercept - truth) / truth
        assert np.max(rel) < 0.02

    def test_sup_relative_error_band(self, table):
        # worst case across the grid stays under 5% of the function's size
        a = np.linspace(2.0, 100.0, 200)
        worst = 0.0
        for eps in table.eps_grid[::7]:
            slope, intercept = surrogate_lookup(table, float(eps))
            truth = inverse_lower_incomplete_gamma(float(eps), a)
            dev = np.max(np.abs(slope * a + intercept - truth))
            worst = max(worst, dev / np.max(truth))
        assert worst < 0.05

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            fit_linear_surrogate(tau=0.0)
        with pytest.raises(ValueError):
            fit_linear_surrogate(tau=1.0)

    def test_default_table_matches_scipy_least_squares(self):
        # every row is the least-squares line through the exact quantiles,
        # here taken from scipy, to the 1e-8 bound of the benchmark oracle
        table = default_table()
        a = np.linspace(table.fit_lo, table.fit_hi, table.n_fit_points)
        q = special.gammaincinv(a[None, :], table.eps_grid[:, None])
        ref_slope, ref_intercept = np.polyfit(a, q.T, 1)
        for got, ref in ((table.slope, ref_slope),
                         (table.intercept, ref_intercept)):
            assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 1e-8

    def test_matches_row_by_row_fit(self, table):
        # reference: one quantile solve and one line fit per eps row; the
        # batched least-squares solve may round differently in the last bits
        a = np.linspace(table.fit_lo, table.fit_hi, table.n_fit_points)
        for j in range(0, table.eps_grid.size, 7):
            target = inverse_lower_incomplete_gamma(float(table.eps_grid[j]), a)
            slope, intercept = np.polyfit(a, target, 1)
            assert table.slope[j] == pytest.approx(slope, rel=1e-13)
            assert table.intercept[j] == pytest.approx(intercept, rel=1e-13)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            fit_linear_surrogate(fit_range=(5.0, 2.0))

    @pytest.mark.parametrize("fit_range", [(1.0, math.inf), (math.nan, 100.0),
                                           (1.0, math.nan), (-math.inf, 100.0)])
    def test_rejects_non_finite_range(self, fit_range):
        with pytest.raises(ValueError, match="finite"):
            fit_linear_surrogate(fit_range=fit_range)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="no eps rows"):
            fit_linear_surrogate(tau=0.7)

    @pytest.mark.parametrize("name,value", [
        ("n_fit_points", 2.5), ("tau", "0.1"), ("fit_range", (1, "a"))])
    def test_rejects_settings_of_the_wrong_type(self, name, value):
        with pytest.raises(ValueError, match=name):
            fit_linear_surrogate(**{name: value})

    def test_coarse_table(self):
        coarse = fit_linear_surrogate(tau=0.1, n_fit_points=50)
        assert coarse.eps_grid.size == 9
        assert coarse.max_eps == pytest.approx(0.9)


class TestLookup:
    def test_exact_on_grid_points(self, table):
        for j in (0, 7, 50, 98):
            slope, intercept = surrogate_lookup(table, float(table.eps_grid[j]))
            assert slope == table.slope[j]
            assert intercept == table.intercept[j]

    def test_interpolates_between_grid_points(self, table):
        s1, r1 = surrogate_lookup(table, 0.30)
        s2, r2 = surrogate_lookup(table, 0.31)
        sm, rm = surrogate_lookup(table, 0.305)
        assert sm == pytest.approx(0.5 * (s1 + s2), rel=1e-12)
        assert rm == pytest.approx(0.5 * (r1 + r2), rel=1e-12)

    def test_zero_eps_anchors_at_origin(self, table):
        slope, intercept = surrogate_lookup(table, 0.0)
        assert slope == 0.0
        assert intercept == 0.0
        # halfway to the first grid point: half the first row
        s, r = surrogate_lookup(table, 0.005)
        assert s == pytest.approx(0.5 * table.slope[0], rel=1e-12)
        assert r == pytest.approx(0.5 * table.intercept[0], rel=1e-12)

    def test_rejects_out_of_domain(self, table):
        with pytest.raises(ValueError):
            surrogate_lookup(table, -0.01)
        with pytest.raises(ValueError):
            surrogate_lookup(table, 0.999)

    def test_array_of_levels_matches_each_level(self, table):
        levels = np.concatenate((np.random.default_rng(4).uniform(
            0.0, table.max_eps, 200), [0.0, 0.5, table.max_eps]))
        slopes, intercepts = surrogate_lookup(table, levels)
        for eps, s, r in zip(levels.tolist(), slopes, intercepts):
            assert (s, r) == surrogate_lookup(table, eps)

    def test_array_with_one_level_out_of_domain_is_rejected(self, table):
        with pytest.raises(ValueError, match="outside the table domain"):
            surrogate_lookup(table, np.array([0.2, 0.999]))


def _with_entry(column, index, value):
    def edit(table):
        values = getattr(table, column).copy()
        values[index] = value
        return {column: values}
    return edit


BAD_TABLES = {
    "nan eps row": (_with_entry("eps_grid", 4, math.nan), "finite"),
    "inf intercept": (_with_entry("intercept", 0, math.inf), "finite"),
    "nan slope": (_with_entry("slope", -1, math.nan), "finite"),
    "short slopes": (lambda t: {"slope": t.slope[:-1]}, "equal length"),
    "long intercepts": (lambda t: {"intercept": np.append(t.intercept, 1.0)},
                        "equal length"),
    "2-D eps grid": (lambda t: {"eps_grid": t.eps_grid[:, None]},
                     "equal length"),
    "negated slopes": (lambda t: {"slope": -t.slope}, "slopes must be"),
    "zero slope": (_with_entry("slope", 5, 0.0), "slopes must be"),
    "repeated eps": (_with_entry("eps_grid", 3, 0.03), "increasing"),
    "eps of one": (_with_entry("eps_grid", -1, 1.0), "increasing"),
    "eps of zero": (_with_entry("eps_grid", 0, 0.0), "increasing"),
    "infinite fit_hi": (lambda t: {"fit_hi": math.inf}, "fit range"),
    "nan fit_lo": (lambda t: {"fit_lo": math.nan}, "fit range"),
    "zero fit_lo": (lambda t: {"fit_lo": 0.0}, "fit range"),
    "reversed fit range": (lambda t: {"fit_lo": 200.0}, "fit range"),
    "nan tau": (lambda t: {"tau": math.nan}, "tau"),
    "tau of one": (lambda t: {"tau": 1.0}, "tau"),
    "negative fit points": (lambda t: {"n_fit_points": -3}, "n_fit_points"),
    "one fit point": (lambda t: {"n_fit_points": 1}, "n_fit_points"),
    "fractional fit points": (lambda t: {"n_fit_points": 2.5}, "n_fit_points"),
}


class TestValidation:
    @pytest.mark.parametrize("case", sorted(BAD_TABLES))
    def test_rejects_bad_table(self, case, table):
        edit, message = BAD_TABLES[case]
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(table, **edit(table))

    @pytest.mark.parametrize("row,field,text,message", [
        (7, 0, "nan", "finite"),            # an eps row of nan
        (3, 2, "inf", "finite"),            # an infinite intercept
        (1, 2, "fit_hi=inf", "fit range"),  # header: an infinite fit range
        (1, 3, "tau=nan", "tau"),           # header: a tau of nan
        (5, 1, "-0.5", "slopes must be"),   # a negative slope
    ])
    def test_load_rejects_bad_table(self, row, field, text, message, table,
                                    tmp_path):
        path = tmp_path / "table.txt"
        save_table(table, path)
        lines = path.read_text().splitlines()
        words = lines[row].split()
        words[field] = text
        lines[row] = " ".join(words)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            load_table(path)
        assert str(path) in str(err.value)


    def test_columns_are_read_only_float_copies(self, table):
        # the table keeps its own columns: an edit of the caller's array
        # after the build changes nothing, and the table's cannot be edited
        slope = table.slope.copy()
        built = dataclasses.replace(table, eps_grid=table.eps_grid.tolist(),
                                    slope=slope)
        slope[1] = 99.0
        for name in ("eps_grid", "slope", "intercept"):
            column = getattr(built, name)
            assert column.dtype == np.float64 and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            built.slope[1] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            built.eps_grid[-1] = 0.4
        assert built.slope[1] == table.slope[1]
        assert surrogate_lookup(built, float(built.eps_grid[1])) == (
            built.slope[1], built.intercept[1])


class TestPersistence:
    def test_round_trip_exact(self, table, tmp_path):
        path = tmp_path / "table.txt"
        save_table(table, path)
        back = load_table(path)
        assert np.array_equal(back.eps_grid, table.eps_grid)
        assert np.array_equal(back.slope, table.slope)
        assert np.array_equal(back.intercept, table.intercept)
        assert back.fit_lo == table.fit_lo
        assert back.fit_hi == table.fit_hi
        assert back.tau == table.tau
        assert back.n_fit_points == table.n_fit_points

    def test_rewrite_is_byte_identical(self, table, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_table(table, p1)
        save_table(load_table(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a table\n1 2 3\n")
        with pytest.raises(ValueError, match="masec-surrogate"):
            load_table(path)

    def test_rejects_header_only_file(self, table, tmp_path):
        path = tmp_path / "table.txt"
        save_table(table, path)
        header = path.read_text().splitlines()[:3]
        path.write_text("\n".join(header) + "\n")
        with pytest.raises(ValueError, match="no eps rows"):
            load_table(path)

    def test_rejects_tag_only_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# masec-surrogate-v1\n")
        with pytest.raises(ValueError, match="fit header"):
            load_table(path)

    @pytest.mark.parametrize("fields", [
        ["0.03", "0.85"], ["0.03", "0.85", "1.0", "2.0"],
        ["0.03", "x0.85", "1.0"]])
    def test_malformed_row_names_file_and_row(self, fields, table, tmp_path,
                                              capsys):
        path = tmp_path / "table.txt"
        save_table(table, path)
        lines = path.read_text().splitlines()
        lines[5] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: row 3 is not three numbers"
        with pytest.raises(ValueError, match="row 3 is not three numbers") as err:
            load_table(path)
        assert str(err.value).startswith(message)
        code = main(["solve", "--preset", "ob-demo", "--scheme", "FPA_OB",
                     "--table", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_rejects_malformed_fit_header(self, table, tmp_path):
        path = tmp_path / "table.txt"
        save_table(table, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("tau=", "step=")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="fit header"):
            load_table(path)


class TestShippedTable:
    """The default table ships as package data.  Its fit has the same bits
    on every SIMD dispatch, so the file is the fit wherever it runs."""

    shipped = Path(surrogate.__file__).with_name("default_table.txt")

    def test_shipped_table_is_the_fit(self, table):
        loaded = default_table()
        for name in ("eps_grid", "slope", "intercept"):
            assert getattr(loaded, name).tobytes() == getattr(table, name).tobytes()

    def test_shipped_header_names_the_defaults(self):
        loaded = load_table(self.shipped)
        assert (loaded.fit_lo, loaded.fit_hi) == DEFAULT_FIT_RANGE
        assert loaded.tau == DEFAULT_TAU
        assert loaded.n_fit_points == DEFAULT_N_FIT_POINTS

    def test_fit_table_writes_the_shipped_file(self, tmp_path, capsys):
        out = tmp_path / "table.txt"
        assert main(["fit-table", "--out", str(out)]) == 0
        assert out.read_bytes() == self.shipped.read_bytes()

    def test_default_table_never_fits(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise RuntimeError("the surrogate table was fitted")

        monkeypatch.setattr(surrogate, "fit_linear_surrogate", no_fit)
        surrogate.default_table.cache_clear()
        assert default_table().eps_grid.size == 99
        surrogate.default_table.cache_clear()
        res = run_scheme("MA_OB", preset("ob-demo"))
        assert 0.0 < res.eps < 1.0

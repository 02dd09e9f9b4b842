"""The ordering grid: MA_OB has the lowest outage of the OB schemes.

That ordering is the paper's headline claim.  The grid is 37 sweep points
of four presets, each solved with MA_OB, RAP_OB (20 restarts, seed 0),
FPA_OB and MA_MRT; MA_OB's p_out must be at most every other scheme's at
every point (all four tie at k = 0, where the eavesdropper links carry no
line of sight).
"""
import pytest

from masec.bench import apply_variable, preset, run_scheme

GRID = ([("ob-demo", "pa_db", v) for v in range(10, 41, 5)]
        + [("ob-demo", "n_antennas", v) for v in range(3, 9)]
        + [("ob-demo", "span", v) for v in (2.5, 3.0, 4.0, 5.0, 6.0)]
        + [("k-sweep", "k", v) for v in (0, 1, 2, 4, 8, 16, 32)]
        + [("m-sweep", "n_eves", v) for v in range(1, 7)]
        + [("zf-demo-far", "pa_db", v) for v in range(10, 36, 5)])


def test_grid_has_37_points():
    assert len(GRID) == len(set(GRID)) == 37


@pytest.mark.parametrize("name,variable,value", GRID)
def test_ma_ob_has_the_lowest_outage(table, name, variable, value):
    cfg = apply_variable(preset(name), variable, value)
    ma_ob = run_scheme("MA_OB", cfg, table=table).p_out
    others = {scheme: run_scheme(scheme, cfg, table=table, seed=0,
                                 restarts=20).p_out
              for scheme in ("RAP_OB", "FPA_OB", "MA_MRT")}
    assert all(ma_ob <= p for p in others.values()), (ma_ob, others)

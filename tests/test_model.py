"""Geometry, channels and the movement region."""
import cmath
import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masec import outage
from masec.bench import SweepSpec, base_config, preset
from masec.model import (
    SystemConfig,
    eve_los_matrix,
    feasible_region,
    main_channel,
    mrt_beamformer,
    project_positions,
    random_feasible_positions,
    steering_vector,
    unit_norm,
)
from masec.outage import moment_match


def small_config(**overrides):
    values = dict(
        n_antennas=5, n_eves=2, theta0=np.pi / 4,
        thetas=(np.pi / 6, np.pi / 3), beta0=1.0, betas=(1.0, 0.8),
        ks=(4.0, 2.0), pa=100.0, sigma2=1.0, rs=2.0,
        wavelength=1.0, span=4.0, dmin=0.5)
    values.update(overrides)
    return SystemConfig(**values)


class TestConfigValidation:
    def test_rejects_single_antenna(self):
        with pytest.raises(ValueError, match="n_antennas"):
            small_config(n_antennas=1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="thetas"):
            small_config(thetas=(0.3,))

    def test_rejects_duplicate_angles(self):
        with pytest.raises(ValueError, match="distinct"):
            small_config(thetas=(0.5, 0.5))

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="K-factors"):
            small_config(ks=(-0.1, 1.0))

    def test_rejects_too_small_span(self):
        with pytest.raises(ValueError, match="span"):
            small_config(span=1.9)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError, match="pa"):
            small_config(pa=0.0)

    @pytest.mark.parametrize("field, value", [
        ("pa", np.nan), ("span", np.nan), ("sigma2", np.inf),
        ("ks", (np.inf, 1.0)), ("thetas", (0.3, np.nan)), ("theta0", np.inf),
        ("beta0", np.nan), ("rs", np.inf), ("dmin", np.nan),
    ])
    def test_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_config(**{field: value})


# scenarios built in Python that a JSON reader would refuse, with its wording
_PYTHON_SCENARIO_FAULTS = [
    ({"n_antennas": 5.0}, "n_antennas must be an integer in the float range"),
    ({"n_antennas": True}, "n_antennas must be an integer in the float range"),
    ({"n_eves": 1.0}, "n_eves must be an integer in the float range"),
    ({"rs": True}, "rs must be a number in the float range"),
    ({"ks": (True,)}, "ks must be a list of numbers in the float range"),
    ({"pa": "31.6"}, "pa must be a number in the float range"),
    ({"pa": 10**400}, "pa must be a number in the float range"),
    ({"pa": None}, "pa must be a number in the float range"),
    ({"pa": np.array(31.6)}, "pa must be a number in the float range"),
    ({"thetas": 0.9}, "thetas must be a list of numbers in the float range"),
    ({"thetas": np.array([[0.9]])}, "thetas must be a list of numbers"),
    ({"betas": [1j]}, "betas must be a list of numbers in the float range"),
    ({"span": 1e308}, "span=1e+308 and wavelength=1.0 overflow the steering "
                      "phase 2*pi*span/wavelength"),
    ({"wavelength": 1e-320}, "span=4.0 and wavelength=1e-320 overflow the "
                             "steering phase"),
    # sigma2 / pa = inf times 2^-rs - 1 = 0
    ({"rs": 1e-20, "sigma2": 1e300, "pa": 1e-300},
     "sigma2=1e+300, pa=1e-300 and rs=1e-20 make the noise term"),
]


class TestConfigAdmission:
    @pytest.mark.parametrize("change, message", _PYTHON_SCENARIO_FAULTS)
    def test_a_fault_is_one_value_error_line(self, change, message):
        with pytest.raises(ValueError) as caught:
            base_config(**change)
        assert str(caught.value).startswith(message)
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("thetas", [[0.9], np.array([0.9]),
                                        (np.float32(0.9),)])
    def test_lists_and_arrays_become_tuples_of_floats(self, thetas):
        want = base_config(thetas=(float(np.asarray(thetas)[0]),))
        cfg = base_config(thetas=thetas)
        assert cfg == want and hash(cfg) == hash(want)
        assert type(cfg.thetas) is tuple and type(cfg.thetas[0]) is float
        assert hash(SweepSpec(cfg, "k", [1.0])) == hash(SweepSpec(want, "k",
                                                                  [1.0]))

    def test_numpy_counts_stay_ints_and_numbers_become_floats(self):
        cfg = base_config(n_antennas=np.int64(6), pa=np.float32(31.5),
                          span=5, ks=np.array([4]))
        assert type(cfg.n_antennas) is int and cfg.n_antennas == 6
        assert (type(cfg.pa), type(cfg.span), cfg.span) == (float, float, 5.0)
        assert cfg.ks == (4.0,) and type(cfg.ks[0]) is float

    def test_a_replaced_field_is_admitted_too(self):
        with pytest.raises(ValueError, match="n_eves must be an integer"):
            dataclasses.replace(base_config(), n_eves=1.0)


class TestGainModel:
    """A scenario builds its gain model once, with itself, and keeps it out
    of its fields."""

    def test_built_once_with_the_scenario(self, monkeypatch):
        built = []

        def counted(cfg):
            built.append(cfg)
            return moment_match(cfg)
        monkeypatch.setattr(outage, "moment_match", counted)
        cfg = base_config()
        assert cfg.gain_model is cfg.gain_model
        assert built == [cfg]

    def test_is_not_a_field(self):
        cfg = base_config()
        assert cfg.gain_model.rate_pow == 2.0**cfg.rs
        assert list(dataclasses.asdict(cfg)) == _FIELDS
        assert SystemConfig(**dataclasses.asdict(cfg)) == cfg

    def test_a_replaced_scenario_builds_its_own(self):
        cfg = base_config()
        assert dataclasses.replace(cfg, rs=3.0).gain_model.rate_pow == 8.0

    @pytest.mark.parametrize("copy_of", [
        lambda cfg: pickle.loads(pickle.dumps(cfg)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_a_copy_builds_its_own_read_only(self, copy_of):
        cfg = preset("ob-demo")
        model = cfg.gain_model
        dup = copy_of(cfg)
        assert dup == cfg and "gain_model" not in vars(dup)
        arrays = {f.name: getattr(dup.gain_model, f.name)
                  for f in dataclasses.fields(model)
                  if isinstance(getattr(model, f.name), np.ndarray)}
        assert "sines" in arrays and "scatter" in arrays
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            assert arr.tobytes() == getattr(model, name).tobytes(), name


_FIELDS = [f.name for f in dataclasses.fields(SystemConfig)]
_ODD_NUMBER = (st.floats() | st.integers()
               | st.integers(-2**63, 2**63 - 1).map(np.int64)
               | st.sampled_from([10**400, -10**400, math.nan, math.inf]))
_ODD_VALUE = (st.none() | st.booleans() | st.text(max_size=3) | _ODD_NUMBER
              | st.lists(_ODD_NUMBER | st.booleans(), max_size=3)
              | st.lists(st.floats(), max_size=3).map(np.array)
              | st.lists(st.floats(), max_size=3).map(
                  lambda v: np.array(v).reshape(-1, 1)))


@settings(max_examples=200, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(_FIELDS), _ODD_VALUE,
                               max_size=3))
def test_a_python_scenario_is_a_config_or_one_value_error(changes):
    # base_config()'s fields with some replaced; the configs are only built
    try:
        cfg = SystemConfig(**{**dataclasses.asdict(base_config()), **changes})
    except ValueError as exc:
        assert "\n" not in str(exc)
        return
    hash(cfg)
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in ("n_antennas", "n_eves"):
            assert type(value) is int
        elif f.name in ("thetas", "betas", "ks"):
            assert type(value) is tuple and all(type(v) is float
                                                for v in value)
        else:
            assert type(value) is float


@pytest.mark.parametrize("name", _FIELDS)
def test_the_smallest_int64_is_a_config_or_one_value_error(name):
    # numpy's smallest int64 has no int64 absolute value; a list field
    # holds it as its one number
    value = np.int64(-2**63)
    if name in ("thetas", "betas", "ks"):
        value = [value]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = SystemConfig(**{**dataclasses.asdict(base_config()),
                                  name: value})
        except ValueError as exc:
            assert "\n" not in str(exc) and name not in ("theta0", "thetas")
        else:
            assert name in ("theta0", "thetas")
            assert getattr(cfg, name) in (-2.0**63, (-2.0**63,))
    assert [str(w.message) for w in caught] == []


def test_steering_vector_matches_elementwise_oracle():
    # rebuild every entry with scalar cmath to cross-check the vectorization
    cfg = small_config(wavelength=0.75)
    x = np.array([0.0, 0.9, 1.8, 2.95, 3.7])
    theta = 0.6
    got = steering_vector(x, theta, cfg)
    for n in range(5):
        want = cmath.exp(1j * 2.0 * cmath.pi / 0.75 * x[n] * cmath.sin(theta))
        assert got[n] == pytest.approx(want, abs=1e-14)
    assert np.allclose(np.abs(got), 1.0)


def test_main_channel_scale():
    cfg = small_config(beta0=2.5)
    h = main_channel(np.zeros(5), cfg)
    assert np.allclose(h, np.sqrt(2.5))


def test_eve_los_matrix_rows_are_steering_vectors():
    cfg = small_config()
    x = np.linspace(0.0, 4.0, 5)
    mat = eve_los_matrix(x, cfg)
    assert mat.shape == (2, 5)
    for i, theta in enumerate(cfg.thetas):
        assert np.allclose(mat[i], steering_vector(x, theta, cfg))


def test_eve_los_matrix_stacks_over_leading_axes():
    cfg = small_config()
    xs = random_feasible_positions(feasible_region(cfg),
                                   np.random.default_rng(2), 6)
    mats = eve_los_matrix(xs.reshape(2, 3, 5), cfg)
    assert mats.shape == (2, 3, 2, 5)
    for x, mat in zip(xs, mats.reshape(6, 2, 5)):
        assert np.array_equal(mat, eve_los_matrix(x, cfg))


class TestFeasibleRegion:
    def test_frozen_partition_for_default_geometry(self):
        # N=5, span 4, dmin 0.5: five width-0.4 intervals, gaps exactly 0.5
        reg = feasible_region(small_config())
        assert np.allclose(reg.lo, [0.0, 0.9, 1.8, 2.7, 3.6])
        assert np.allclose(reg.hi, [0.4, 1.3, 2.2, 3.1, 4.0])

    def test_covers_segment_ends(self):
        cfg = small_config(n_antennas=3, span=2.0, dmin=0.4)
        reg = feasible_region(cfg)
        assert reg.lo[0] == 0.0
        assert reg.hi[-1] == pytest.approx(2.0)

    def test_adjacent_gap_is_dmin(self):
        reg = feasible_region(small_config())
        assert np.allclose(reg.lo[1:] - reg.hi[:-1], 0.5)

    def test_degenerate_region_warns(self):
        cfg = small_config(span=2.0, dmin=0.5)
        with pytest.warns(UserWarning, match="pinned"):
            reg = feasible_region(cfg)
        assert np.allclose(reg.lo, reg.hi)

    def test_midpoints_inside(self):
        reg = feasible_region(small_config())
        assert reg.contains(reg.midpoints())


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False), min_size=5, max_size=5))
@settings(max_examples=200, deadline=None)
def test_projection_feasible_and_idempotent(raw):
    reg = feasible_region(small_config())
    x = project_positions(np.array(raw), reg)
    assert reg.contains(x)
    # worst-case spacing: interval gaps guarantee at least dmin
    assert np.all(np.diff(x) >= 0.5 - 1e-12)
    assert np.array_equal(project_positions(x, reg), x)


@given(st.lists(st.floats(min_value=0.0, max_value=4.0,
                          allow_nan=False), min_size=5, max_size=5))
@settings(max_examples=200, deadline=None)
def test_projection_no_op_inside(raw):
    reg = feasible_region(small_config())
    inside = reg.lo + np.sort(np.array(raw)) / 4.0 * (reg.hi - reg.lo)
    inside = np.clip(inside, reg.lo, reg.hi)
    assert np.array_equal(project_positions(inside, reg), inside)


@given(st.data(), st.integers(min_value=2, max_value=8))
@settings(max_examples=200, deadline=None)
def test_projection_is_clip_away_from_signed_zero(data, n_antennas):
    reg = feasible_region(small_config(n_antennas=n_antennas, span=6.0))
    raw = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False).filter(bool),
        min_size=n_antennas, max_size=n_antennas)))
    assert project_positions(raw, reg).tobytes() == \
        np.clip(raw, reg.lo, reg.hi).tobytes()


def test_random_positions_feasible_and_seeded():
    reg = feasible_region(small_config())
    a = random_feasible_positions(reg, np.random.default_rng(5))
    b = random_feasible_positions(reg, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert reg.contains(a)


@pytest.mark.parametrize("n_antennas", [2, 5, 8])
def test_random_position_block_equals_sequential_draws(n_antennas):
    reg = feasible_region(small_config(n_antennas=n_antennas))
    rng = np.random.default_rng(9)
    block = random_feasible_positions(reg, np.random.default_rng(9), 40)
    assert block.shape == (40, n_antennas)
    for row in block:
        assert np.array_equal(row, random_feasible_positions(reg, rng))


def test_mrt_achieves_full_array_gain():
    cfg = small_config(beta0=1.7)
    x = feasible_region(cfg).midpoints()
    w = mrt_beamformer(x, cfg)
    assert np.linalg.norm(w) == pytest.approx(1.0)
    # matched filter collects beta0 * N regardless of the placement
    assert abs(main_channel(x, cfg) @ w) ** 2 == pytest.approx(1.7 * 5)


@pytest.mark.parametrize("name", ["ob-demo", "zf-demo-far", "zf-demo-near",
                                  "k-sweep", "m-sweep", "cdf-demo"])
def test_stacked_mrt_is_each_rows_matched_filter(name):
    cfg = preset(name)
    xs = random_feasible_positions(feasible_region(cfg),
                                   np.random.default_rng(3), 20)
    ws = mrt_beamformer(xs, cfg)
    assert ws.shape == xs.shape
    for x, w in zip(xs, ws):
        h = main_channel(x, cfg)
        assert w.tobytes() == mrt_beamformer(x, cfg).tobytes()
        assert w.tobytes() == (h.conj() / np.linalg.norm(h)).tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_one_lane_unit_norm_is_its_row_of_a_stack(n):
    # the one-lane branch (ndarray.dot, math.sqrt) against the stacked one
    # (np.vecdot, np.sqrt), bit for bit, on beams whose norms spread over
    # two hundred decades and whose entries over ten more
    rng = np.random.default_rng(n)
    shape = (64, n)
    stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** rng.uniform(-100.0, 100.0, (64, 1)) \
        * 10.0 ** rng.uniform(-10.0, 0.0, shape)
    for w, row in zip(stack, unit_norm(stack)):
        assert unit_norm(w).tobytes() == row.tobytes()

"""Closed-form outage statistics against direct channel simulation."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from masec.ascent import margin_objective
from masec.bench import apply_variable, base_config, cdf_check_case, preset
from masec.gammainc import lower_incomplete_gamma_reg
from masec.model import (
    eve_los_matrix,
    feasible_region,
    mrt_beamformer,
)
from masec.outage import (
    collusion_power_samples,
    gamma_moments,
    gamma_outage,
    link_stats,
    moment_match,
    monte_carlo_outage,
    outage_threshold,
    power_gains,
    secrecy_outage_closed_form,
    sum_power_cdf,
)
from masec.surrogate import surrogate_lookup


@pytest.fixture
def case():
    return cdf_check_case(2.0)


# scatter variances beta_i / (K_i + 1) of 1/5, 1/5, 2/5 and 1/2: a group of
# two equal ones and two groups of one
MIXED = base_config(n_eves=4, thetas=(np.pi / 6, np.pi / 4, np.pi / 10,
                                      1.3 * np.pi / 4),
                    betas=(1.0, 1.0, 2.0, 1.0), ks=(4.0, 4.0, 4.0, 1.0))


class TestLinkStats:
    def test_values_from_first_principles(self, case):
        cfg, x, w = case
        g = np.abs(eve_los_matrix(x, cfg) @ w) ** 2
        stats = link_stats(w, x, cfg)
        for i, s in enumerate(stats):
            k, b = cfg.ks[i], cfg.betas[i]
            assert s.k_eff == pytest.approx(k * g[i])
            assert s.mean_power == pytest.approx(b / (k + 1) * (k * g[i] + 1))
            lam = k * g[i]
            assert s.fading_figure == pytest.approx(
                (lam + 1) ** 2 / (2 * lam + 1))

    def test_rayleigh_reduces_to_unit_figure(self):
        cfg, x, w = cdf_check_case(0.0)
        for s in link_stats(w, x, cfg):
            assert s.k_eff == 0.0
            assert s.fading_figure == 1.0
            assert s.mean_power == pytest.approx(1.0)

    def test_figure_at_least_one(self, case):
        cfg, x, w = case
        assert all(s.fading_figure >= 1.0 for s in link_stats(w, x, cfg))


class TestGammaMoments:
    def test_moment_identities(self, case):
        # shape * scale = sum of means; shape * scale^2 = matched variance
        cfg, x, w = case
        stats = link_stats(w, x, cfg)
        mom = gamma_moments(stats)
        mean = sum(s.mean_power for s in stats)
        var = sum(s.mean_power**2 / s.fading_figure for s in stats)
        assert mom.shape * mom.scale == pytest.approx(mean, rel=1e-12)
        assert mom.shape * mom.scale**2 == pytest.approx(var, rel=1e-12)

    def test_matches_sample_moments(self, case):
        cfg, x, w = case
        mom = gamma_moments(link_stats(w, x, cfg))
        samples = collusion_power_samples(w, x, cfg, 200_000, seed=8)
        assert np.mean(samples) == pytest.approx(mom.shape * mom.scale,
                                                 rel=0.01)
        assert np.var(samples) == pytest.approx(mom.shape * mom.scale**2,
                                                rel=0.03)

    def test_shape_never_below_one(self):
        for k in (0.0, 0.5, 3.0, 25.0):
            cfg, x, w = cdf_check_case(k)
            assert gamma_moments(link_stats(w, x, cfg)).shape >= 1.0


class TestCdf:
    def test_sup_norm_against_simulation(self):
        for k in (1.0, 4.0, 9.0):
            cfg, x, w = cdf_check_case(k)
            mom = gamma_moments(link_stats(w, x, cfg))
            s = np.sort(collusion_power_samples(w, x, cfg, 100_000, seed=11))
            emp = np.arange(1, s.size + 1) / s.size
            model = lower_incomplete_gamma_reg(mom.shape, s / mom.scale)
            assert np.max(np.abs(emp - model)) < 0.03

    def test_nonpositive_threshold(self, case):
        cfg, x, w = case
        mom = gamma_moments(link_stats(w, x, cfg))
        assert sum_power_cdf(0.0, mom) == 0.0
        assert sum_power_cdf(-3.0, mom) == 0.0

    def test_monotone(self, case):
        cfg, x, w = case
        mom = gamma_moments(link_stats(w, x, cfg))
        ts = np.linspace(0.0, 20.0, 100)
        vals = [sum_power_cdf(float(t), mom) for t in ts]
        assert np.all(np.diff(vals) >= 0.0)


class TestThreshold:
    def test_formula(self, case):
        cfg, x, w = case
        # direct recomputation without helper reuse
        from masec.model import main_channel
        bob = abs(np.dot(main_channel(x, cfg), w)) ** 2
        want = bob / 2**cfg.rs + cfg.sigma2 / cfg.pa * (2**-cfg.rs - 1)
        assert outage_threshold(w, x, cfg) == pytest.approx(want, rel=1e-12)

    def test_one_placement_is_its_row_of_a_stack(self, table):
        # one placement's threshold and outage are its row of a 50-lane
        # stack, bit for bit, and the margin reads the same statistics
        cfg = preset("zf-demo-near")
        mm = moment_match(cfg)
        reg = feasible_region(cfg)
        rng = np.random.default_rng(3)
        xs = rng.uniform(reg.lo, reg.hi, size=(50, cfg.n_antennas))
        ws = np.array([mrt_beamformer(x, cfg)
                       for x in rng.uniform(reg.lo, reg.hi, size=xs.shape)])
        lin, quad, thr = mm.statistics(power_gains(mm.rows(xs), ws))
        p_out = secrecy_outage_closed_form(ws, xs, cfg)
        slope, intercept = surrogate_lookup(table, 0.3)
        for i, (w, x) in enumerate(zip(ws, xs)):
            assert outage_threshold(w, x, cfg) == thr[i]
            assert secrecy_outage_closed_form(w, x, cfg) == p_out[i] \
                == gamma_outage(lin[i], quad[i], thr[i])
            assert margin_objective(w, x, 0.3, table, cfg) == (
                lin[i] * thr[i] - slope * (lin[i] * lin[i])
                - intercept * quad[i])

    def test_negative_when_link_too_weak(self, case):
        cfg, x, w = case
        weak = dataclasses.replace(cfg, pa=1e-6, rs=8.0)
        assert outage_threshold(w, x, weak) < 0.0
        assert secrecy_outage_closed_form(w, x, weak) == 1.0
        assert monte_carlo_outage(w, x, weak, n_trials=1000, seed=0) == 1.0


class TestGainModel:
    """The scenario's one ``moment_match``, shared by every solve."""

    def test_scatter_is_each_eavesdroppers_c(self):
        want = MIXED.betas_arr / (MIXED.ks_arr + 1.0)
        assert MIXED.gain_model.scatter.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["sines", "scatter", "lin_coef",
                                      "quad_coef"])
    def test_arrays_are_read_only(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(preset("ob-demo").gain_model, name)[0] = 0.0

    def test_an_overflowing_noise_ratio_is_certain_outage(self, case):
        # sigma2 / pa = inf at an ordinary rs: a noise term of -inf
        cfg, x, w = case
        loud = dataclasses.replace(cfg, sigma2=1e300, pa=1e-300)
        assert loud.gain_model.noise_off == -np.inf
        assert secrecy_outage_closed_form(w, x, loud) == 1.0


class TestClosedForm:
    def test_equals_one_minus_cdf(self, case):
        cfg, x, w = case
        mom = gamma_moments(link_stats(w, x, cfg))
        want = 1.0 - sum_power_cdf(outage_threshold(w, x, cfg), mom)
        assert secrecy_outage_closed_form(w, x, cfg) == pytest.approx(
            want, abs=1e-14)

    def test_matches_monte_carlo(self, case):
        cfg, x, w = case
        closed = secrecy_outage_closed_form(w, x, cfg)
        mc = monte_carlo_outage(w, x, cfg, n_trials=100_000, seed=21)
        assert abs(closed - mc) < 0.02

    def test_monotone_in_power(self, case):
        cfg, x, w = case
        outs = [secrecy_outage_closed_form(
            w, x, dataclasses.replace(cfg, pa=float(10 ** (db / 10))))
            for db in np.arange(0.0, 40.0, 2.0)]
        assert np.all(np.diff(outs) <= 1e-12)

    def test_high_power_floor(self, case):
        # as pa grows the noise correction vanishes; the floor is set by
        # the rate penalty alone
        cfg, x, w = case
        big = dataclasses.replace(cfg, pa=1e9)
        from masec.model import main_channel
        bob = abs(np.dot(main_channel(x, cfg), w)) ** 2
        mom = gamma_moments(link_stats(w, x, cfg))
        want = 1.0 - lower_incomplete_gamma_reg(
            mom.shape, bob / 2**cfg.rs / mom.scale)
        assert secrecy_outage_closed_form(w, x, big) == pytest.approx(
            want, abs=1e-6)

    def test_rayleigh_closed_form_is_placement_free(self):
        # K=0 wipes the LoS gains out of the statistics entirely
        cfg, x, w = cdf_check_case(0.0)
        reg = feasible_region(cfg)
        w2 = mrt_beamformer(reg.midpoints(), cfg)
        a = gamma_moments(link_stats(w, x, cfg))
        b = gamma_moments(link_stats(w2, reg.midpoints(), cfg))
        assert a.shape == pytest.approx(b.shape, rel=1e-12)
        assert a.scale == pytest.approx(b.scale, rel=1e-12)


    @pytest.mark.parametrize("name", ["zf-demo-near", "m-sweep", "cdf-demo"])
    def test_stack_matches_each_row(self, name):
        # each row of a stacked call has the bits of its own call
        cfg = preset(name)
        reg = feasible_region(cfg)
        rng = np.random.default_rng(8)
        xs = rng.uniform(reg.lo, reg.hi, size=(64, cfg.n_antennas))
        ws = rng.standard_normal(xs.shape) + 1j * rng.standard_normal(xs.shape)
        ws /= np.linalg.norm(ws, axis=1, keepdims=True)
        outs = secrecy_outage_closed_form(ws, xs, cfg)
        assert outs.shape == (64,)
        for w, x, p in zip(ws, xs, outs):
            assert secrecy_outage_closed_form(w, x, cfg) == p

    @pytest.mark.parametrize("fn", [secrecy_outage_closed_form,
                                    outage_threshold, link_stats])
    def test_rejects_bad_beams_and_placements(self, case, fn):
        cfg, x, w = case
        nan_w = w.copy()
        nan_w[1] = np.nan
        for bad_w, bad_x, message in [
                (nan_w, x, "w must be finite"),
                (w[:-1], x, "w must have shape"),
                (w, np.append(x, 9.0), "x must have shape"),
                (w, x + 1j, "x must be real")]:
            with pytest.raises(ValueError, match=message):
                fn(bad_w, bad_x, cfg)

    def test_rejects_bad_stacks(self, case):
        cfg, x, w = case
        ws, xs = np.stack([w, w]), np.stack([x, x])
        with pytest.raises(ValueError, match="x must have shape"):
            secrecy_outage_closed_form(ws, xs[:, :-1], cfg)
        for fn in (outage_threshold, link_stats):
            with pytest.raises(ValueError, match="w must have shape"):
                fn(ws, x, cfg)


STATISTICS_SCENARIOS = {
    **{name: preset(name) for name in ("ob-demo", "zf-demo-far",
                                       "zf-demo-near", "k-sweep", "m-sweep",
                                       "cdf-demo")},
    **{f"m-sweep n_eves={m}": apply_variable(preset("m-sweep"), "n_eves", m)
       for m in range(1, 8)},
}


@pytest.mark.parametrize("name", list(STATISTICS_SCENARIOS))
def test_one_lane_statistics_are_their_row_of_a_stack(name):
    # the one-lane branch (ndarray.dot, float arithmetic) against the
    # stacked one (np.vecdot), bit for bit, on gains over [0, N] and on
    # gains spread over twenty decades
    cfg = STATISTICS_SCENARIOS[name]
    mm = moment_match(cfg)
    rng = np.random.default_rng(12)
    shape = (64, cfg.n_eves + 1)
    stack = np.concatenate([
        rng.uniform(0.0, cfg.n_antennas, size=shape),
        cfg.n_antennas * 10.0 ** rng.uniform(-20.0, 0.0, size=shape)])
    lins, quads, thrs = mm.statistics(stack)
    for gains, lin, quad, thr in zip(stack, lins, quads, thrs):
        one = mm.statistics(gains)
        assert all(type(v) is float for v in one)
        assert [v.hex() for v in one] == [float(lin).hex(), float(quad).hex(),
                                          float(thr).hex()]


class TestMonteCarlo:
    def test_deterministic_per_seed(self, case):
        cfg, x, w = case
        a = monte_carlo_outage(w, x, cfg, n_trials=50_000, seed=3)
        b = monte_carlo_outage(w, x, cfg, n_trials=50_000, seed=3)
        assert a == b

    def test_chunking_invariant(self, case):
        # a 150k run starts with the draws of a 100k run
        cfg, x, w = case
        samples = collusion_power_samples(w, x, cfg, 150_000, seed=9)
        assert samples.shape == (150_000,)
        first = collusion_power_samples(w, x, cfg, 100_000, seed=9)
        assert np.array_equal(samples[:100_000], first)

    def test_rejects_zero_trials(self, case):
        cfg, x, w = case
        with pytest.raises(ValueError):
            monte_carlo_outage(w, x, cfg, n_trials=0, seed=0)

    def test_scaling_is_pathwise(self, case):
        # at one seed each draw of 2 w has exactly four times the power
        cfg, x, w = case
        w = 1.3 * w
        base = collusion_power_samples(w, x, cfg, 100_000, seed=4)
        doubled = collusion_power_samples(2.0 * w, x, cfg, 100_000, seed=4)
        assert np.array_equal(doubled, 4.0 * base)

    @pytest.mark.parametrize("name", ["cdf-demo", "m-sweep", "ob-demo",
                                      "zf-demo-far", "mixed"])
    def test_law_matches_full_antenna_draw(self, name):
        # the per-group draw has the law of projecting N i.i.d. CN(0, 1)
        # scatter entries per eavesdropper onto a non-unit w: one group of
        # three, of seven, of one, of two, and a pair beside two singletons
        cfg = MIXED if name == "mixed" else preset(name)
        x = feasible_region(cfg).midpoints()
        rng = np.random.default_rng(12)
        w = 1.7 * (rng.standard_normal(cfg.n_antennas)
                   + 1j * rng.standard_normal(cfg.n_antennas))
        n = 100_000
        k, b = cfg.ks_arr, cfg.betas_arr
        los = np.sqrt(k * b / (k + 1.0)) * (eve_los_matrix(x, cfg) @ w)
        full = np.random.default_rng(13)
        shape = (n, cfg.n_eves, cfg.n_antennas)
        scatter = (full.standard_normal(shape)
                   + 1j * full.standard_normal(shape)) @ w / np.sqrt(2.0)
        want = np.sum(np.abs(los + np.sqrt(b / (k + 1.0)) * scatter) ** 2,
                      axis=1)
        got = collusion_power_samples(w, x, cfg, n, seed=14)
        assert ks_2samp(got, want).statistic < 0.01

    def test_draw_order_is_per_group(self):
        # each chunk draws, group after group in the order of their first
        # eavesdropper, a real and an imaginary normal block and, for a
        # group of two or more, one Gamma(|G| - 1) block
        cfg = MIXED
        x = feasible_region(cfg).midpoints()
        w = 0.8 * mrt_beamformer(x, cfg)
        k, b = cfg.ks_arr, cfg.betas_arr
        los = np.sqrt(k * b / (k + 1.0)) * (eve_los_matrix(x, cfg) @ w)
        var = b / (k + 1.0) * np.linalg.norm(w) ** 2
        rng = np.random.default_rng(5)
        chunks = []
        for size in (100_000, 20_000):
            total = np.zeros(size)
            for members in ([0, 1], [2], [3]):
                z = (rng.standard_normal(size)
                     + 1j * rng.standard_normal(size)) / np.sqrt(2.0)
                mean = np.linalg.norm(los[members])
                total += np.abs(mean + np.sqrt(var[members[0]]) * z) ** 2
                if len(members) > 1:
                    total += var[members[0]] * rng.standard_gamma(
                        len(members) - 1, size)
            chunks.append(total)
        got = collusion_power_samples(w, x, cfg, 120_000, seed=5)
        np.testing.assert_allclose(got, np.concatenate(chunks), rtol=1e-12)

    def test_memory_does_not_scale_with_antennas(self):
        cfg = preset("m-sweep")
        x = feasible_region(cfg).midpoints()
        w = mrt_beamformer(x, cfg)
        tracemalloc.start()
        try:
            monte_carlo_outage(w, x, cfg, n_trials=100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("draw", [monte_carlo_outage,
                                      collusion_power_samples])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_beamformer(self, case, draw, bad):
        cfg, x, w = case
        w = w.copy()
        w[1] = bad
        with pytest.raises(ValueError, match="w must be finite"):
            draw(w, x, cfg, n_trials=1000, seed=0)

    @pytest.mark.parametrize("draw", [monte_carlo_outage,
                                      collusion_power_samples])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_positions(self, case, draw, bad):
        cfg, x, w = case
        x = x.copy()
        x[0] = bad
        with pytest.raises(ValueError, match="x must be finite"):
            draw(w, x, cfg, n_trials=1000, seed=0)

    @pytest.mark.parametrize("draw", [monte_carlo_outage,
                                      collusion_power_samples])
    def test_rejects_complex_positions(self, case, draw):
        cfg, x, w = case
        for bad in (x + 1j, x.astype(complex)):
            with pytest.raises(ValueError, match="x must be real"):
                draw(w, bad, cfg, n_trials=1000, seed=0)

    @pytest.mark.parametrize("draw", [monte_carlo_outage,
                                      collusion_power_samples])
    def test_rejects_wrong_lengths(self, case, draw):
        cfg, x, w = case
        with pytest.raises(ValueError, match="w must have shape"):
            draw(w[:-1], x, cfg, n_trials=1000, seed=0)
        with pytest.raises(ValueError, match="x must have shape"):
            draw(w, np.append(x, 9.0), cfg, n_trials=1000, seed=0)
        with pytest.raises(ValueError, match="w must have shape"):
            draw(np.stack([w, w]), x, cfg, n_trials=1000, seed=0)

    @pytest.mark.parametrize("draw", [monte_carlo_outage,
                                      collusion_power_samples])
    @pytest.mark.parametrize("n_trials", [0, -5, 2.5, 1000.0, True, "10"])
    def test_rejects_trial_counts_that_are_not_positive_integers(
            self, case, draw, n_trials):
        cfg, x, w = case
        with pytest.raises(ValueError, match="n_trials"):
            draw(w, x, cfg, n_trials=n_trials, seed=0)

    @pytest.mark.parametrize("draw", [monte_carlo_outage,
                                      collusion_power_samples])
    @pytest.mark.parametrize("seed", [1.5, True, -1, "3"])
    def test_rejects_seeds_that_are_not_non_negative_integers(
            self, case, draw, seed):
        cfg, x, w = case
        with pytest.raises(ValueError,
                           match="seed must be a non-negative integer"):
            draw(w, x, cfg, n_trials=1000, seed=seed)

    def test_accepts_numpy_integer_trials(self, case):
        cfg, x, w = case
        assert collusion_power_samples(
            w, x, cfg, n_trials=np.int64(10), seed=0).shape == (10,)

    def test_single_eve_consistency(self):
        cfg = preset("ob-demo")
        x = feasible_region(cfg).midpoints()
        w = mrt_beamformer(x, cfg)
        closed = secrecy_outage_closed_form(w, x, cfg)
        mc = monte_carlo_outage(w, x, cfg, n_trials=100_000, seed=17)
        assert abs(closed - mc) < 0.02


class TestGammaOutage:
    def test_array_matches_elementwise(self):
        lin = np.array([1.0, 2.5, 0.7, 3.0, 2.0])
        quad = np.array([0.8, 3.0, 0.4, 2.0, 1.5])
        thr = np.array([1.2, -0.5, 0.0, 40.0, 2.2])
        out = gamma_outage(lin, quad, thr)
        want = [gamma_outage(*args) for args in zip(lin, quad, thr)]
        assert np.array_equal(out, want)
        assert out[1] == out[2] == 1.0

    def test_array_keeps_the_scalar_square_of_lin(self):
        # lin values whose libm square lin ** 2 is not the rounded product
        # lin * lin, which scalar and array calls both take
        draws = np.random.default_rng(5).uniform(0.1, 5.0, 20_000).tolist()
        lin = [v for v in draws if v**2 != v * v][:8] + [0.3, 1.7]
        out = gamma_outage(np.array(lin), 0.9, 1.3)
        assert out.tolist() == [gamma_outage(v, 0.9, 1.3) for v in lin]

    def test_broadcasts_thresholds_against_scalar_moments(self):
        thr = np.linspace(-1.0, 6.0, 8)
        out = gamma_outage(1.5, 1.1, thr)
        assert out.shape == (8,)
        assert np.array_equal(out, [gamma_outage(1.5, 1.1, t) for t in thr])
        assert np.all((0.0 <= out) & (out <= 1.0))

    def test_scalar_in_float_out(self):
        assert type(gamma_outage(1.5, 1.1, 2.0)) is float
        assert gamma_outage(1.5, 1.1, -2.0) == 1.0
        assert gamma_outage(1.5, 1.1, 2.0) == pytest.approx(
            1.0 - lower_incomplete_gamma_reg(1.5**2 / 1.1, 1.5 / 1.1 * 2.0),
            abs=1e-15)

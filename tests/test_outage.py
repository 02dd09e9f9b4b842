"""Closed-form outage statistics against direct channel simulation."""
import dataclasses

import numpy as np
import pytest

from masec.bench import cdf_check_case, preset
from masec.gammainc import lower_incomplete_gamma_reg
from masec.model import (
    SystemConfig,
    eve_los_matrix,
    feasible_region,
    mrt_beamformer,
)
from masec.outage import (
    collusion_power_samples,
    gamma_moments,
    gamma_outage,
    link_stats,
    monte_carlo_outage,
    outage_threshold,
    secrecy_outage_closed_form,
    sum_power_cdf,
)


@pytest.fixture
def case():
    return cdf_check_case(2.0)


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

    def test_single_placement_keeps_the_scalar_gain_bits(self):
        # the gain of one placement is the scalar |h_0 w|^2, bit for bit,
        # although the same code also takes stacks
        from masec.model import main_channel
        cfg = preset("zf-demo-near")
        reg = feasible_region(cfg)
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = rng.uniform(reg.lo, reg.hi)
            w = mrt_beamformer(rng.uniform(reg.lo, reg.hi), cfg)
            bob = abs(np.dot(main_channel(x, cfg), w)) ** 2
            want = bob / 2**cfg.rs + cfg.sigma2 / cfg.pa * (2**-cfg.rs - 1)
            assert outage_threshold(w, x, cfg) == want

    def test_negative_when_link_too_weak(self, case):
        cfg, x, w = case
        weak = dataclasses.replace(cfg, pa=1e-6, rs=8.0)
        assert outage_threshold(w, x, weak) < 0.0
        assert secrecy_outage_closed_form(w, x, weak) == 1.0
        assert monte_carlo_outage(w, x, weak, n_trials=1000, seed=0) == 1.0


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


class TestMonteCarlo:
    def test_deterministic_per_seed(self, case):
        cfg, x, w = case
        a = monte_carlo_outage(w, x, cfg, n_trials=50_000, seed=3)
        b = monte_carlo_outage(w, x, cfg, n_trials=50_000, seed=3)
        assert a == b

    def test_chunking_invariant(self, case):
        # splitting 150k trials into chunks must not change the stream
        cfg, x, w = case
        samples = collusion_power_samples(w, x, cfg, 150_000, seed=9)
        assert samples.shape == (150_000,)
        first = collusion_power_samples(w, x, cfg, 100_000, seed=9)
        assert np.array_equal(samples[:100_000], first)

    def test_rejects_zero_trials(self, case):
        cfg, x, w = case
        with pytest.raises(ValueError):
            monte_carlo_outage(w, x, cfg, n_trials=0, seed=0)

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
        # lin values whose float square lin ** 2 (libm pow) is not the
        # rounded square that an array's ** 2 takes
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

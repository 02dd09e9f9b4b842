"""Secrecy-outage statistics of the colluding-eavesdropper downlink.

For a fixed beamformer and antenna placement, each eavesdropper's received
power |h_i w|^2 is noncentral; its Rician structure is summarized by a
Nakagami-style fading figure and the collusion sum is approximated by a
single Gamma distribution through second-moment matching.  That yields a
closed-form secrecy outage probability that the Monte Carlo routine here
cross-checks by direct channel sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .gammainc import lower_incomplete_gamma_reg
from .model import SystemConfig, eve_los_matrix, main_channel

FloatArray = NDArray[np.floating]

_MC_CHUNK = 100_000  # fixed so results are reproducible for a given seed


@dataclass(frozen=True)
class EveLinkStats:
    """Conditional statistics of one eavesdropper link given (w, x).

    mean_power: E|h_i w|^2 conditioned on the placement.
    k_eff: effective Rician factor K_i |los_gain_i|^2 of the projected link.
    fading_figure: (k_eff + 1)^2 / (2 k_eff + 1), the Nakagami m of the
        power distribution; equals 1 for Rayleigh and grows with k_eff.
    """

    mean_power: float
    k_eff: float
    fading_figure: float


@dataclass(frozen=True)
class GammaMoments:
    """Shape/scale of the Gamma fit to the summed eavesdropper power."""

    shape: float
    scale: float


@dataclass(frozen=True)
class MomentMatch:
    """The Gamma moment match of one config, affine in the LoS power gains.

    With c_i = beta_i / (K_i + 1) and g_i the LoS power gain |a_i w|^2 of
    eavesdropper i, the collusion sum has mean lin = sum_i c_i (K_i g_i + 1)
    and moment term quad = sum_i mean_i^2 / m_i = sum_i c_i^2 (2 K_i g_i + 1),
    so shape = lin^2 / quad and scale = quad / lin.  Both moments are affine
    in the gains, lin = g @ lin_coef + lin_const and likewise quad; the
    coefficients are what the gradients of any function of them need.

    ``threshold`` maps the legitimate gain |h_0 w|^2 (beta0 included) to
    the largest tolerable collusion power at secrecy rate rs.
    """

    lin_coef: FloatArray     # c_i K_i, (M,)
    lin_const: float         # sum_i c_i
    quad_coef: FloatArray    # 2 c_i^2 K_i, (M,)
    quad_const: float        # sum_i c_i^2
    rate_pow: float          # 2^rs
    noise_off: float         # sigma2 / pa (2^-rs - 1)

    def moments(self, gains):
        """(lin, quad) of the LoS gains, batched over leading axes (..., M)."""
        gains = np.asarray(gains, dtype=float)
        return (gains @ self.lin_coef + self.lin_const,
                gains @ self.quad_coef + self.quad_const)

    def threshold(self, bob_gain):
        """bob_gain / 2^rs + (sigma2 / pa) (2^-rs - 1); negative when the
        legitimate link is too weak for rate rs at any eavesdropper power."""
        return bob_gain / self.rate_pow + self.noise_off


def moment_match(cfg: SystemConfig) -> MomentMatch:
    """Coefficients of the Gamma moment match for ``cfg``."""
    c = cfg.betas_arr / (cfg.ks_arr + 1.0)
    rate_pow = 2.0**cfg.rs
    return MomentMatch(
        lin_coef=c * cfg.ks_arr, lin_const=float(np.sum(c)),
        quad_coef=2.0 * c**2 * cfg.ks_arr, quad_const=float(np.sum(c**2)),
        rate_pow=rate_pow,
        noise_off=cfg.sigma2 / cfg.pa * (1.0 / rate_pow - 1.0))


def gamma_outage(lin, quad, thr) -> float | FloatArray:
    """1 - P(lin^2 / quad, thr lin / quad) clamped to [0, 1].

    The outage of a collusion sum with moments (lin, quad) at threshold
    ``thr``; a nonpositive threshold means certain outage.  Arguments
    broadcast; scalars in, float out.
    """
    t = lin / quad * thr
    p = np.clip(1.0 - lower_incomplete_gamma_reg(lin**2 / quad, t), 0.0, 1.0)
    return float(p) if np.ndim(p) == 0 else p


def _los_power_gains(w, x, cfg: SystemConfig) -> FloatArray:
    proj = eve_los_matrix(x, cfg) @ np.asarray(w)
    return np.abs(proj) ** 2


def _bob_power_gain(w, x, cfg: SystemConfig) -> float:
    return abs(np.dot(main_channel(x, cfg), w)) ** 2


def link_stats(w, x, cfg: SystemConfig) -> list[EveLinkStats]:
    """Per-eavesdropper conditional power statistics for unit-norm ``w``."""
    gains = _los_power_gains(w, x, cfg)
    out = []
    for gain, beta, k in zip(gains, cfg.betas_arr, cfg.ks_arr):
        mean = beta / (k + 1.0) * (k * gain + 1.0)
        k_eff = k * gain
        m = (k_eff + 1.0) ** 2 / (2.0 * k_eff + 1.0)
        out.append(EveLinkStats(mean_power=float(mean), k_eff=float(k_eff),
                                fading_figure=float(m)))
    return out


def gamma_moments(stats: list[EveLinkStats]) -> GammaMoments:
    """Match a Gamma law to the sum of independent per-eve powers.

    Shape and scale follow from equating the first two moments of the sum:
    shape = (sum mu_i)^2 / sum(mu_i^2 / m_i) and scale its companion, where
    mu_i is the mean power and m_i the fading figure.  The shape never drops
    below 1 because every m_i >= 1.
    """
    means = np.array([s.mean_power for s in stats])
    figures = np.array([s.fading_figure for s in stats])
    second = np.sum(means**2 / figures)
    total = np.sum(means)
    return GammaMoments(shape=float(total**2 / second),
                        scale=float(second / total))


def sum_power_cdf(t: float, moments: GammaMoments) -> float:
    """CDF of the approximated collusion power sum at threshold ``t``."""
    if t <= 0.0:
        return 0.0
    return float(lower_incomplete_gamma_reg(moments.shape, t / moments.scale))


def outage_threshold(w, x, cfg: SystemConfig) -> float:
    """Largest tolerable collusion power before secrecy rate rs is lost.

    Equals bob_gain / 2^rs + (sigma2 / pa) (2^-rs - 1); may be negative
    when the legitimate link is too weak, in which case outage is certain.
    """
    return float(moment_match(cfg).threshold(_bob_power_gain(w, x, cfg)))


def secrecy_outage_closed_form(w, x, cfg: SystemConfig) -> float:
    """Closed-form secrecy outage probability under the Gamma approximation.

    Returns 1 - P(shape, scaled_threshold) clamped to [0, 1]; a nonpositive
    threshold means certain outage.
    """
    mm = moment_match(cfg)
    lin, quad = mm.moments(_los_power_gains(w, x, cfg))
    return gamma_outage(lin, quad, mm.threshold(_bob_power_gain(w, x, cfg)))


def monte_carlo_outage(w, x, cfg: SystemConfig, n_trials: int, seed: int) -> float:
    """Empirical secrecy outage probability over seeded channel draws.

    Trials are generated in fixed chunks of 100000 from one PCG64 stream
    (real block then imaginary block per chunk, entries scaled by
    1/sqrt(2)), so the estimate is bit-reproducible for a given seed.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    thr = outage_threshold(w, x, cfg)
    if thr <= 0.0:
        return 1.0
    hits = 0
    for powers in _collusion_power_stream(w, x, cfg, n_trials, seed):
        hits += int(np.count_nonzero(powers >= thr))
    return hits / n_trials


def _collusion_power_stream(w, x, cfg: SystemConfig, n_trials: int, seed: int):
    """Yield chunks of sum_i |h_i w|^2 under the documented draw order."""
    w = np.asarray(w)
    los_proj = eve_los_matrix(x, cfg) @ w
    k, b = cfg.ks_arr, cfg.betas_arr
    los_part = np.sqrt(k * b / (k + 1.0)) * los_proj
    scatter_scale = np.sqrt(b / (k + 1.0))
    rng = np.random.default_rng(seed)
    m, n = cfg.n_eves, cfg.n_antennas
    left = n_trials
    while left > 0:
        chunk = min(left, _MC_CHUNK)
        re = rng.standard_normal((chunk, m, n))
        im = rng.standard_normal((chunk, m, n))
        scatter_proj = ((re + 1j * im) @ w) / np.sqrt(2.0)
        proj = los_part[None, :] + scatter_scale[None, :] * scatter_proj
        yield np.sum(np.abs(proj) ** 2, axis=1)
        left -= chunk


def collusion_power_samples(w, x, cfg: SystemConfig, n_trials: int, seed: int) -> FloatArray:
    """Seeded samples of the collusion power sum (same stream as the MC)."""
    return np.concatenate(
        list(_collusion_power_stream(w, x, cfg, n_trials, seed)))

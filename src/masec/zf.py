"""Zero-forcing beamforming and eavesdropper-blind placement descent.

With at least one more antenna than eavesdroppers, the transmitter can null
every eavesdropper LoS direction exactly; the residual freedom is spent on
the legitimate user, whose effective gain becomes beta0 * N minus a loss
term Theta(x) that depends only on the antenna positions.  Minimizing that
loss by projected gradient descent decouples the placement from the power
and fading parameters, and the outage of the resulting scheme has the same
Gamma closed form with all LoS eavesdropper gains zeroed.

``bob_gain_loss`` and ``zf_outage`` take one placement (N,) or a stack of
placements (R, N) and return a float or one value per row.  A stack costs
one batched Gram factorization and one incomplete-gamma call, so the
random-placement baseline scores all its draws at once; every check (the
Gram condition number, the imaginary residue) still applies per row.
``screened_outage`` builds and checks each row's Gram matrix once, drops
the rows that fail the condition check and scores the rest.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .ascent import OptimizerParams, TraceRecord, line_search
from .model import (
    SystemConfig,
    eve_los_matrix,
    feasible_region,
    main_channel,
    project_positions,
)
from .outage import gamma_outage, moment_match

FloatArray = NDArray[np.floating]
ComplexArray = NDArray[np.complexfloating]

TWO_PI = 2.0 * np.pi

_COND_LIMIT = 1e12


class SingularSteeringError(RuntimeError):
    """Raised when the eavesdropper steering directions are numerically
    dependent and the nulling system cannot be solved reliably."""


def _require_zf(cfg: SystemConfig) -> None:
    if cfg.n_antennas < cfg.n_eves + 1:
        raise ValueError(
            "zero-forcing needs n_antennas >= n_eves + 1 "
            f"(got N={cfg.n_antennas}, M={cfg.n_eves})")


def _steering(x: FloatArray, cfg: SystemConfig):
    """Steering stacks (..., N, M), their Gram matrices (..., M, M) and the
    Gram condition numbers (...)."""
    _require_zf(cfg)
    stack = np.swapaxes(eve_los_matrix(x, cfg).conj(), -1, -2)  # columns h_i^H
    gram = np.swapaxes(stack.conj(), -1, -2) @ stack
    return stack, gram, np.linalg.cond(gram)


def _ill_conditioned(cond: float, cfg: SystemConfig) -> SingularSteeringError:
    worst = _closest_pair(cfg)
    return SingularSteeringError(
        "eavesdropper steering matrix ill-conditioned "
        f"(cond={cond:.2e}); "
        f"closest angles: theta_{worst[0]+1}={worst[2]:.6f} and "
        f"theta_{worst[1]+1}={worst[3]:.6f} rad")


def _steering_gram(x: FloatArray, cfg: SystemConfig):
    """Steering stacks (..., N, M) and the Cholesky factors of their Gram
    matrices, after a condition check of every placement."""
    stack, gram, cond = _steering(x, cfg)
    bad = ~(cond <= _COND_LIMIT)
    if np.any(bad):
        raise _ill_conditioned(np.asarray(cond)[bad][0], cfg)
    return stack, np.linalg.cholesky(gram)


def _gram_solve(chol: ComplexArray, y):
    """A^{-1} y for the Gram matrices A = chol chol^H and vectors y (..., M)."""
    lower = np.linalg.solve(chol, y[..., None])
    return np.linalg.solve(np.swapaxes(chol.conj(), -1, -2), lower)[..., 0]


def _closest_pair(cfg: SystemConfig):
    """Indices and angles of the first eavesdropper pair with the closest
    sines, in row-major pair order."""
    thetas = cfg.thetas_arr
    sines = np.sin(thetas)
    i, j = np.triu_indices(thetas.size, k=1)
    best = np.argmin(np.abs(sines[i] - sines[j]))
    i, j = i[best], j[best]
    return i, j, thetas[i], thetas[j]


def zf_beamformer(x: FloatArray, cfg: SystemConfig) -> ComplexArray:
    """Unit-norm beamformer orthogonal to every eavesdropper LoS row.

    Projects the legitimate channel onto the orthogonal complement of the
    eavesdropper steering span; the projection is applied twice to push the
    nulling residual to machine-noise level.
    """
    x = np.asarray(x, dtype=float)
    stack, chol = _steering_gram(x, cfg)
    h0h = main_channel(x, cfg).conj()

    def reject(v):
        return v - stack @ _gram_solve(chol, stack.conj().T @ v)

    w = reject(reject(h0h))
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        raise SingularSteeringError(
            "legitimate direction lies inside the eavesdropper steering span")
    return w / norm


def bob_gain_loss(x: FloatArray, cfg: SystemConfig) -> float | FloatArray:
    """Loss Theta(x) of the legitimate gain caused by exact nulling.

    Theta = h (H^H H)^{-1} h^H with h the Bob/eve coupling row; the
    zero-forced gain is beta0 * N - Theta, so Theta lies in [0, beta0 * N].
    Positions (N,) give a float, a stack (R, N) one loss per row.
    """
    x = np.asarray(x, dtype=float)
    return _loss(x, *_steering_gram(x, cfg), cfg)


def _loss(x: FloatArray, stack, chol, cfg: SystemConfig):
    """``bob_gain_loss`` from the steering stacks and Gram factors of x."""
    h = (main_channel(x, cfg)[..., None, :] @ stack)[..., 0, :]
    val = (h[..., None, :] @ _gram_solve(chol, h.conj())[..., :, None])[..., 0, 0]
    bad = ~(np.abs(val.imag) <= 1e-10)
    if np.any(bad):
        raise SingularSteeringError(
            "nulling loss has imaginary residue "
            f"{np.asarray(val.imag)[bad][0]:.2e}; "
            "the steering Gram solve is inaccurate")
    return float(val.real) if val.ndim == 0 else val.real


def bob_gain_loss_grad(x: FloatArray, cfg: SystemConfig) -> FloatArray:
    """Exact gradient of the nulling loss in the antenna positions.

    Differentiates Theta = h A^{-1} h^H with A = S^H S the Gram matrix of
    the steering stack S[n, i] = exp(-j k s_i x_n), k = 2 pi / lambda, using
    d(A^{-1}) = -A^{-1} dA A^{-1}.  Position x_n moves row n of S only:
    dS[n, i]/dx_n = -j k s_i S[n, i] and dh_i/dx_n = j k (sin theta0 - s_i)
    h0_n S[n, i].  With v = A^{-1} h^H and t = S v this stacks into

        dTheta/dx = 2 k Re(j [(h0 S (sin theta0 - s)) v + conj(t) (S s) v]),

    each term entering with its conjugate, so the gradient is exactly real.
    """
    x = np.asarray(x, dtype=float)
    sines = np.sin(cfg.thetas_arr)
    rate = TWO_PI / cfg.wavelength

    stack, chol = _steering_gram(x, cfg)
    h0 = main_channel(x, cfg)
    v = _gram_solve(chol, (h0 @ stack).conj())     # A^{-1} h^H, (M,)
    t = stack @ v                                  # S A^{-1} h^H, (N,)
    z = (h0[:, None] * stack * (np.sin(cfg.theta0) - sines)) @ v \
        + t.conj() * ((stack * sines) @ v)
    return -2.0 * rate * z.imag                    # 2 k Re(j z)


@dataclass
class PgdResult:
    x: FloatArray
    loss: float
    n_iter: int
    converged: bool
    trace: list[TraceRecord] = field(default_factory=list)


def pgd_solve(x0, cfg: SystemConfig, params=None,
              keep_trace: bool = True) -> PgdResult:
    """Minimize the nulling loss by projected gradient descent.

    Each iteration is the ascent solver's ``line_search`` on the negated
    loss, which IEEE negation keeps exact: a candidate is accepted once the
    loss is no larger than the quadratic model around the current point,
    which together with the box projection guarantees a nonincreasing loss
    trace.  Each search starts at min(delta0, 2 x the last accepted step),
    and the descent stops once no step is accepted or one lowers the loss
    by less than obj_tol x max(1, |loss|).  Trace records hold the loss as
    ``objective`` and the accepted step and model gap as ``delta_pos`` and
    ``pos_gap``.
    """
    params = params or OptimizerParams()
    region = feasible_region(cfg)
    x = np.asarray(x0, dtype=float)
    loss = bob_gain_loss(x, cfg)
    trace: list[TraceRecord] = []
    converged = False
    n_iter = 0
    delta = params.delta0
    for it in range(1, params.max_outer + 1):
        n_iter = it
        d = -bob_gain_loss_grad(x, cfg)
        found = line_search(lambda c: -bob_gain_loss(c, cfg), x, -loss, d,
                            lambda s: float(d @ s),
                            lambda c: project_positions(c, region), params,
                            min(params.delta0, 2.0 * delta))
        rec = TraceRecord(iteration=it, delta_beam=None, delta_pos=None,
                          objective=loss)
        if found is not None:
            rec.delta_pos, x, neg_loss, rec.pos_gap = found
            delta = rec.delta_pos
            improvement = loss + neg_loss
            loss = rec.objective = -neg_loss
        if keep_trace:
            trace.append(rec)
        if found is None or improvement < params.obj_tol * max(1.0, abs(loss)):
            converged = True
            break
    return PgdResult(x=x, loss=loss, n_iter=n_iter, converged=converged,
                     trace=trace)


def zf_outage(x: FloatArray, cfg: SystemConfig) -> float | FloatArray:
    """Closed-form secrecy outage with the zero-forcing beamformer at x.

    Nulling zeroes every eavesdropper LoS gain, so the collusion sum keeps
    only its scattered part and the legitimate gain is beta0 * N - Theta.
    Positions (N,) give a float; a stack (R, N) gives one outage per row
    from one Gram factorization and one incomplete-gamma call.
    """
    return _outage(bob_gain_loss(x, cfg), cfg)


def _outage(loss, cfg: SystemConfig):
    mm = moment_match(cfg)
    lin, quad = mm.moments(np.zeros(cfg.n_eves))
    return gamma_outage(lin, quad,
                        mm.threshold(cfg.beta0 * cfg.n_antennas - loss))


def screened_outage(xs: FloatArray, cfg: SystemConfig):
    """Zero-forcing outage of the usable placements of a stack (R, N).

    Each row's steering Gram matrix is built and condition-checked once;
    the rows that fail the check are dropped and only the rest are
    factored.  Returns the usable mask (R,) and the outages of
    ``xs[usable]``, equal to ``zf_outage(xs[usable], cfg)``.  Raises the
    first row's ``SingularSteeringError`` when no row is usable.
    """
    xs = np.asarray(xs, dtype=float)
    stack, gram, cond = _steering(xs, cfg)
    usable = cond <= _COND_LIMIT
    if not usable.any():
        raise _ill_conditioned(cond[0], cfg)
    chol = np.linalg.cholesky(gram[usable])
    return usable, _outage(_loss(xs[usable], stack[usable], chol, cfg), cfg)

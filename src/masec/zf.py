"""Zero-forcing beamforming and eavesdropper-blind placement descent.

With at least one more antenna than eavesdroppers, the transmitter can null
every eavesdropper LoS direction exactly; the residual freedom is spent on
the legitimate user, whose effective gain becomes beta0 * N minus a loss
term Theta(x) that depends only on the antenna positions.  Minimizing that
loss by projected gradient descent decouples the placement from the power
and fading parameters, and the outage of the resulting scheme has the same
Gamma closed form with all LoS eavesdropper gains zeroed.

Every function reads one nulling solve per placement: the eavesdropper
rows of the config's gain model (``SystemConfig.gain_model``), their Gram
condition check and Cholesky factor, and the loss.  A public call checks
its positions once (``model.check_vector``: the shape, finite, real); the
descent's candidates and the private helpers reuse them.  ``zf_solution``
gives the outage and the beamformer of one placement from one solve, the
one ``pgd_solve`` ends with when the caller holds it.

The condition check passes a Gram matrix whose condition number is at most
_COND_LIMIT = 1e12.  Gershgorin's discs bound that number from the row sums
of |A|; a call whose every matrix has a bound at most 1e11 passes without
an SVD.  The SVD is off by about eps * cond relative there, so it would
pass them too: the check gives the SVD's verdicts, and any cond above the
limit, the number an error reports, comes from the SVD of the whole stack.

``bob_gain_loss`` and ``zf_outage`` take one placement (N,) or a stack of
placements (R, N) and return a float or one value per row.  A stack costs
one batched Gram factorization and one incomplete-gamma call; every
check (the Gram condition number, the imaginary residue) still applies per
row.  ``best_of_draws`` gives the random-placement baseline's winner: it
builds and checks each draw's Gram matrix once, solves the usable draws
in one batch and ranks them by the loss, so it evaluates one outage.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .ascent import OptimizerParams, TraceRecord, ascend, line_search
from .model import (
    SystemConfig,
    check_vector,
    feasible_region,
    main_channel,
    project_positions,
)
from .outage import gamma_outage

FloatArray = NDArray[np.floating]
ComplexArray = NDArray[np.complexfloating]

_COND_LIMIT = 1e12


class SingularSteeringError(RuntimeError):
    """Raised when the eavesdropper steering directions are numerically
    dependent and the nulling system cannot be solved reliably."""


def _steering(x: FloatArray, cfg: SystemConfig):
    """Steering stacks (..., N, M) with columns h_i^H, their Gram matrices
    (..., M, M) and the Gram condition numbers (...), each a bound at most
    _COND_LIMIT / 10 or the SVD's ratio.

    With r_i the row sums of |A|, every eigenvalue of a Gram matrix A lies
    in [lo, hi] = [min_i (2 |A_ii| - r_i), max_i r_i] (Gershgorin).  When
    hi <= (_COND_LIMIT / 10) lo holds for every matrix of the call, the
    condition numbers are hi / lo and no SVD runs; otherwise they are the
    largest singular value over the smallest, as ``np.linalg.cond`` divides
    them, for the whole stack.  A certified matrix has cond <= 1e11, where
    the SVD's ratio is off by about eps * cond relative, so the SVD would
    pass it too: no verdict moves, and every cond above the limit, and so
    every error message, is the SVD's.
    """
    mm = cfg.gain_model
    n, m = x.shape[-1], mm.sines.size - 1
    if n < m + 1:
        raise ValueError("zero-forcing needs n_antennas >= n_eves + 1 "
                         f"(got N={n}, M={m})")
    stack = np.swapaxes(mm.rows(x)[..., 1:, :].conj(), -1, -2)
    gram = np.swapaxes(stack.conj(), -1, -2) @ stack
    a = np.abs(gram)
    r = a.sum(-1)
    lo = (2.0 * a.diagonal(0, -2, -1) - r).min(-1)
    hi = r.max(-1)
    if (hi <= (_COND_LIMIT / 10) * lo).all():
        return stack, gram, hi / lo
    s = np.linalg.svd(gram, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return stack, gram, s[..., 0] / s[..., -1]


def _ill_conditioned(cond: float, cfg: SystemConfig) -> SingularSteeringError:
    """The error for a Gram condition number ``cond`` above the limit; it
    names the first eavesdropper pair with the closest sines, in row-major
    pair order."""
    thetas, sines = cfg.thetas_arr, cfg.gain_model.sines[1:]
    i, j = np.triu_indices(thetas.size, k=1)
    best = np.argmin(np.abs(sines[i] - sines[j]))
    i, j = i[best], j[best]
    return SingularSteeringError(
        f"eavesdropper steering matrix ill-conditioned (cond={cond:.2e}); "
        f"closest angles: theta_{i+1}={thetas[i]:.6f} and "
        f"theta_{j+1}={thetas[j]:.6f} rad")


def _gram_solve(chol: ComplexArray, y):
    """A^{-1} y for the Gram matrices A = chol chol^H and vectors y (..., M)."""
    lower = np.linalg.solve(chol, y[..., None])
    return np.linalg.solve(np.swapaxes(chol.conj(), -1, -2), lower)[..., 0]


class _Nulling(NamedTuple):
    """The nulling solve at placements (..., N): the steering stacks S,
    the Cholesky factors of A = S^H S, the legitimate channels h0, v =
    A^{-1} h^H for the Bob/eve coupling rows h = h0 S, and the loss h v."""

    stack: ComplexArray
    chol: ComplexArray
    h0: ComplexArray
    v: ComplexArray
    loss: float | FloatArray


def _nulling(x: FloatArray, cfg: SystemConfig, steering=None) -> _Nulling:
    """The nulling solve at checked placements x, from ``steering =
    _steering(x, cfg)`` when given.  Raises SingularSteeringError when a
    placement fails the condition check or its loss keeps an imaginary
    residue."""
    stack, gram, cond = _steering(x, cfg) if steering is None else steering
    if (bad := ~(cond <= _COND_LIMIT)).any():
        raise _ill_conditioned(np.asarray(cond)[bad][0], cfg)
    chol = np.linalg.cholesky(gram)
    h0 = main_channel(x, cfg)
    h = (h0[..., None, :] @ stack)[..., 0, :]
    v = _gram_solve(chol, h.conj())
    val = (h[..., None, :] @ v[..., :, None])[..., 0, 0]
    if (bad := ~(np.abs(val.imag) <= 1e-10)).any():
        raise SingularSteeringError(
            "nulling loss has imaginary residue "
            f"{np.asarray(val.imag)[bad][0]:.2e}; "
            "the steering Gram solve is inaccurate")
    return _Nulling(stack, chol, h0, v,
                    float(val.real) if val.ndim == 0 else val.real)


def zf_beamformer(x: FloatArray, cfg: SystemConfig) -> ComplexArray:
    """Unit-norm beamformer orthogonal to every eavesdropper LoS row.

    Projects the legitimate channel onto the orthogonal complement of the
    eavesdropper steering span; the projection is applied twice to push the
    nulling residual to machine-noise level.
    """
    x = check_vector("x", x, cfg.n_antennas, real=True)
    return _beam(_nulling(x, cfg))


def _beam(solved: _Nulling) -> ComplexArray:
    """``zf_beamformer`` from the nulling solve at one placement."""
    stack, chol, h0 = solved[:3]

    def reject(v):
        return v - stack @ _gram_solve(chol, stack.conj().T @ v)

    w = reject(reject(h0.conj()))
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
    x = check_vector("x", x, cfg.n_antennas, real=True, stack=np.ndim(x) > 1)
    return _nulling(x, cfg).loss


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
    x = check_vector("x", x, cfg.n_antennas, real=True)
    return _loss_grad(_nulling(x, cfg), cfg)


def _loss_grad(solved: _Nulling, cfg: SystemConfig) -> FloatArray:
    """``bob_gain_loss_grad`` from the nulling solve at one placement."""
    mm = cfg.gain_model
    stack, v, sines = solved.stack, solved.v, mm.sines[1:]
    t = stack @ v                                  # S A^{-1} h^H, (N,)
    z = (solved.h0[:, None] * stack * (mm.sines[0] - sines)) @ v \
        + t.conj() * ((stack * sines) @ v)
    return -2.0 * mm.wave_rate * z.imag            # 2 k Re(j z)


@dataclass
class PgdResult:
    """``nulling`` is the nulling solve at ``x``, for ``zf_solution``."""

    x: FloatArray
    loss: float
    n_iter: int
    converged: bool
    nulling: _Nulling = field(repr=False, compare=False)
    trace: list[TraceRecord] = field(default_factory=list)


def pgd_solve(x0, cfg: SystemConfig, params=None) -> PgdResult:
    """Minimize the nulling loss by projected gradient descent.

    The descent is ``ascent.ascend`` with one position block, a
    ``line_search`` on the negated loss, which IEEE negation keeps exact: a
    candidate is accepted once the loss is no larger than the quadratic
    model around the current point, which together with the box projection
    guarantees a nonincreasing loss trace.  The next gradient reads the
    accepted candidate's nulling solve.  The loop's warm steps (the last
    accepted step, doubled only after ``ascent.GROW_AFTER`` first-try
    acceptances in a row) and relative stop apply, up to params.max_outer
    iterations; a search that accepts no step ends it as converged.  Trace
    records hold the loss itself as ``objective`` and the accepted step as
    ``delta_pos``.  ``x0`` is None, for the midpoints of the movement region,
    or one finite real placement (N,), or ``ValueError``.
    """
    params = params or OptimizerParams()
    region = feasible_region(cfg)
    if x0 is None:
        x = region.midpoints()
    else:
        x = check_vector("x0", x0, cfg.n_antennas, real=True)

    def neg_loss(cand):
        solved = _nulling(cand, cfg)
        return -solved.loss, solved

    start, at = neg_loss(x)     # at: the nulling solve at x

    def block(obj, delta):
        nonlocal x, at
        d = -_loss_grad(at, cfg)
        found = line_search(neg_loss, x, obj, d,
                            lambda c: project_positions(c, region), delta)
        if found is not None:
            _, x, obj, at = found
        return obj, found

    neg, trace, converged = ascend(start, params.max_outer, pos=block)
    for rec in trace:
        rec.objective = -rec.objective
    return PgdResult(x=x, loss=-neg, n_iter=len(trace), converged=converged,
                     nulling=at, trace=trace)


def zf_outage(x: FloatArray, cfg: SystemConfig) -> float | FloatArray:
    """Closed-form secrecy outage with the zero-forcing beamformer at x.

    Nulling zeroes every eavesdropper LoS gain, so the collusion sum keeps
    only its scattered part and the legitimate gain is beta0 * N - Theta.
    Positions (N,) give a float; a stack (R, N) gives one outage per row
    from one Gram factorization and one incomplete-gamma call.
    """
    x = check_vector("x", x, cfg.n_antennas, real=True, stack=np.ndim(x) > 1)
    return _outage(_nulling(x, cfg).loss, cfg)


def _outage(loss, cfg: SystemConfig):
    # zero LoS gains leave the moments' constants
    mm = cfg.gain_model
    return gamma_outage(mm.lin_const, mm.quad_const,
                        mm.threshold(cfg.beta0 * cfg.n_antennas - loss))


def zf_solution(x: FloatArray, cfg: SystemConfig,
                nulling: _Nulling | None = None) -> tuple[float, ComplexArray]:
    """``(zf_outage(x, cfg), zf_beamformer(x, cfg))`` from one nulling solve
    at the placement x (N,): ``nulling`` when the caller holds it, as
    ``PgdResult.nulling`` is for ``PgdResult.x``, else a new one."""
    if nulling is None:
        x = check_vector("x", x, cfg.n_antennas, real=True)
        nulling = _nulling(x, cfg)
    return _outage(nulling.loss, cfg), _beam(nulling)


def best_of_draws(xs: FloatArray, cfg: SystemConfig
                  ) -> tuple[int, float, ComplexArray]:
    """RAP_ZF's winner among the placements of a stack (R, N): the index
    of the usable row with the smallest zero-forcing outage (the first on
    ties), that outage and the row's ``zf_beamformer``.

    Each row's steering Gram matrix is built and condition-checked once;
    the rows that fail the check are dropped and the rest are solved in one
    batch.  The outage rises with the nulling loss, so the row with the
    smallest loss wins and only its outage is evaluated, with the bits of
    that row in ``zf_outage(xs[usable], cfg)``.  At a clamped outage (0 or
    1) rows of different losses tie, so then every usable row is scored
    and the first best outage wins.  The beam is built from the winner's
    row of the batched solve.  Raises the first row's
    ``SingularSteeringError`` when no row is usable.
    """
    xs = check_vector("xs", xs, cfg.n_antennas, real=True, stack=True)
    steering = _steering(xs, cfg)
    usable = np.flatnonzero(steering[2] <= _COND_LIMIT)
    if not usable.size:
        raise _ill_conditioned(steering[2][0], cfg)
    if usable.size < len(xs):
        xs, steering = xs[usable], [a[usable] for a in steering]
    solved = _nulling(xs, cfg, steering)
    i = int(np.argmin(solved.loss))
    p_out = _outage(solved.loss[i], cfg)
    if p_out in (0.0, 1.0):
        p = _outage(solved.loss, cfg)
        i = int(np.argmin(p))
        p_out = float(p[i])
    return int(usable[i]), p_out, _beam(_Nulling(*(a[i] for a in solved)))

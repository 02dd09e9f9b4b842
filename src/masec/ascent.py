"""Joint beamformer/placement optimization of the secrecy confidence.

The outage minimization is driven from the outside by bisection on the
secrecy confidence level eps: a level is feasible when the maximum of a
margin objective (the scaled outage threshold minus the linear surrogate
of the required Gamma quantile, cleared of its positive denominator) is
positive.  The inner maximization alternates projected gradient ascent
steps on the unit-norm beamformer and on the antenna positions, each with
backtracking against a quadratic model.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .gammainc import lower_incomplete_gamma_reg
from .model import (
    SystemConfig,
    feasible_region,
    mrt_beamformer,
    project_positions,
)
from .outage import moment_match, secrecy_outage_closed_form
from .surrogate import LinearFitTable, default_table, surrogate_lookup

FloatArray = NDArray[np.floating]
ComplexArray = NDArray[np.complexfloating]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class OptimizerParams:
    """Shared knobs of the ascent/descent loops.

    delta0 caps the step size a backtracking line search starts from: each
    block of a loop starts at min(delta0, 2 x its last accepted step), and
    the first search of a solve at delta0.  shrink multiplies the step on
    rejection.  A loop stops once one iteration changes its objective by
    less than obj_tol x max(1, |objective|), a relative test that reads the
    same at every scale of the objective.  tau is both the surrogate grid
    spacing and the bisection termination width.
    """

    delta0: float = 1.0
    shrink: float = 0.5
    max_outer: int = 2000
    obj_tol: float = 1e-8
    tau: float = 0.01
    min_step: float = 1e-15


@dataclass
class TraceRecord:
    """One outer iteration: accepted steps, objective, model gaps.

    ``beam_gap``/``pos_gap`` store objective-minus-model at the accepted
    point; the backtracking contract requires them to be nonnegative.
    """

    iteration: int
    delta_beam: float | None
    delta_pos: float | None
    objective: float
    beam_gap: float | None = None
    pos_gap: float | None = None


@dataclass
class ApgaResult:
    w: ComplexArray
    x: FloatArray
    objective: float
    n_iter: int
    converged: bool
    trace: list[TraceRecord] = field(default_factory=list)


@dataclass
class BisectionResult:
    """Outcome of the confidence bisection.

    ``eps`` is the largest confidence level certified feasible; ``p_out``
    is the closed-form outage at the returned solution.  When no probed
    level was feasible, ``feasible`` is False and the best-effort iterate
    of the last probe is returned with eps = 0.  When the closed form rules
    out every level before any probe (the legitimate gain cannot reach a
    positive outage threshold), ``rounds`` is 0, ``probes`` is empty and
    the start point is returned with p_out 1.
    """

    eps: float
    p_out: float
    w: ComplexArray
    x: FloatArray
    feasible: bool
    rounds: int
    total_iterations: int
    probes: list[tuple[float, bool, float]] = field(default_factory=list)
    best_trace: list[TraceRecord] | None = None


class _Scenario:
    """Precomputed constants of the margin objective for one config.

    Direction 0 is the legitimate user, 1..M the eavesdroppers; the margin
    depends on (w, x) only through the M+1 LoS power gains |s_d w|^2.
    """

    def __init__(self, cfg: SystemConfig):
        self.sines = np.concatenate(([np.sin(cfg.theta0)], np.sin(cfg.thetas_arr)))
        self.wave_rate = TWO_PI / cfg.wavelength
        self.mm = moment_match(cfg)
        self.beta0 = cfg.beta0

    def steer_rows(self, x: FloatArray) -> ComplexArray:
        """Unit-magnitude steering rows for Bob and all eves, (M+1, N)."""
        return np.exp(1j * self.wave_rate * np.outer(self.sines, x))

    def margin(self, rows: ComplexArray, w: ComplexArray,
               slope: float, intercept: float) -> float:
        gains = np.abs(rows @ w) ** 2
        lin, quad = self.mm.moments(gains[1:])
        thr = self.mm.threshold(self.beta0 * gains[0])
        return float(lin * thr - slope * lin**2 - intercept * quad)

    def _gain_weights(self, rows: ComplexArray, w: ComplexArray,
                      slope: float, intercept: float):
        """v = rows @ w and the margin's partials in the M+1 gains |v_d|^2."""
        v = rows @ w
        gains = np.abs(v) ** 2
        lin, _ = self.mm.moments(gains[1:])
        thr = self.mm.threshold(self.beta0 * gains[0])
        eve = (thr - 2.0 * slope * lin) * self.mm.lin_coef \
            - intercept * self.mm.quad_coef
        return v, np.concatenate(([lin * self.beta0 / self.mm.rate_pow], eve))

    def margin_grad_w(self, rows: ComplexArray, w: ComplexArray,
                      slope: float, intercept: float) -> ComplexArray:
        # d|v_d|^2 / d conj(w) = v_d conj(s_d)
        v, weights = self._gain_weights(rows, w, slope, intercept)
        return (weights * v) @ rows.conj()

    def margin_grad_x(self, rows: ComplexArray, w: ComplexArray,
                      slope: float, intercept: float) -> FloatArray:
        # d|v_d|^2 / dx = -2 k_d Im(conj(v_d) s_d * w), k_d = 2 pi sin_d / lambda
        v, weights = self._gain_weights(rows, w, slope, intercept)
        k = self.wave_rate * self.sines
        return -2.0 * np.imag(((weights * k) * v.conj()) @ rows * w)


def margin_objective(w, x, eps: float, table: LinearFitTable,
                     cfg: SystemConfig) -> float:
    """Feasibility margin of confidence level eps at (w, x); > 0 is feasible."""
    slope, intercept = surrogate_lookup(table, eps)
    sc = _Scenario(cfg)
    return sc.margin(sc.steer_rows(np.asarray(x, float)), np.asarray(w), slope, intercept)


def margin_grad_beamformer(w, x, eps: float, table: LinearFitTable,
                           cfg: SystemConfig) -> ComplexArray:
    """Ascent direction in w; half the real-pair gradient, complex form."""
    slope, intercept = surrogate_lookup(table, eps)
    sc = _Scenario(cfg)
    return sc.margin_grad_w(sc.steer_rows(np.asarray(x, float)), np.asarray(w),
                            slope, intercept)


def margin_grad_positions(w, x, eps: float, table: LinearFitTable,
                          cfg: SystemConfig) -> FloatArray:
    """Exact gradient of the margin objective in the antenna positions."""
    slope, intercept = surrogate_lookup(table, eps)
    sc = _Scenario(cfg)
    return sc.margin_grad_x(sc.steer_rows(np.asarray(x, float)), np.asarray(w),
                            slope, intercept)


def _normalize(w: ComplexArray) -> ComplexArray:
    return w / np.linalg.norm(w)


def line_search(value, point, obj: float, direction, slope, project,
                params: OptimizerParams, delta: float):
    """One projected backtracking step of an ascent on ``value``.

    Tries ``cand = project(point + delta * direction)`` for the given start
    delta, delta * shrink, ... down to params.min_step and accepts the
    first candidate whose value reaches the quadratic model
    ``obj + slope(step) - |step|^2 / delta`` with ``step = cand - point``;
    ``slope(step)`` is the directional derivative of the objective at
    ``point``.  Returns ``(delta, cand, value, value - model)`` for the
    accepted candidate, which is the last one evaluated, or None.
    """
    while delta >= params.min_step:
        cand = project(point + delta * direction)
        step = cand - point
        model = obj + slope(step) - float(np.vdot(step, step).real) / delta
        val = value(cand)
        if val >= model:
            return delta, cand, val, val - model
        delta *= params.shrink
    return None


def apga_solve(
    w0, x0, eps: float, table: LinearFitTable, cfg: SystemConfig,
    params: OptimizerParams | None = None, mode: str = "joint",
    keep_trace: bool = True,
) -> ApgaResult:
    """Maximize the margin objective by alternating projected ascent.

    mode "joint" runs a beamformer block then a position block per outer
    iteration; "beam_only" holds the positions fixed; "positions_mrt"
    replaces the beamformer block by the closed-form matched filter and only
    ascends in the positions (the objective trace is then not guaranteed
    monotone, since the matched filter maximizes the legitimate gain, not
    the margin).

    Each block is one ``line_search``: beamformer candidates are
    renormalized to the unit sphere and position candidates clamped into
    the movement region, and a candidate is accepted once the objective at
    it reaches the quadratic model built from the block's gradient, which
    for these projections implies the objective never decreases within a
    block.  A block that accepts no step leaves its variable unchanged.
    Each block carries its step forward: its search starts at
    min(delta0, 2 x the block's last accepted delta).  The solve stops as
    converged once an iteration moves the objective by less than
    obj_tol x max(1, |objective|), and otherwise after max_outer iterations.
    """
    if mode not in ("joint", "beam_only", "positions_mrt"):
        raise ValueError(f"unknown mode {mode!r}")
    params = params or OptimizerParams()
    slope, intercept = surrogate_lookup(table, eps)
    sc = _Scenario(cfg)
    region = feasible_region(cfg)

    w = _normalize(np.asarray(w0, dtype=complex))
    x = np.asarray(x0, dtype=float)
    rows = sc.steer_rows(x)
    cand_rows = rows
    obj = sc.margin(rows, w, slope, intercept)

    def beam_margin(cand):
        return sc.margin(rows, cand, slope, intercept)

    def pos_margin(cand):
        nonlocal cand_rows   # kept for the accepted (last evaluated) candidate
        cand_rows = sc.steer_rows(cand)
        return sc.margin(cand_rows, w, slope, intercept)

    trace: list[TraceRecord] = []
    converged = False
    n_iter = 0
    delta_w = delta_x = params.delta0    # last accepted step of each block
    for it in range(1, params.max_outer + 1):
        n_iter = it
        rec = TraceRecord(iteration=it, delta_beam=None, delta_pos=None,
                          objective=obj)

        obj_w = obj
        if mode == "positions_mrt":
            w = mrt_beamformer(x, cfg)
            obj_w = sc.margin(rows, w, slope, intercept)
        else:
            g = sc.margin_grad_w(rows, w, slope, intercept)
            found = line_search(beam_margin, w, obj, g,
                                lambda s: 2.0 * float(np.vdot(g, s).real),
                                _normalize, params,
                                min(params.delta0, 2.0 * delta_w))
            if found is not None:
                rec.delta_beam, w, obj_w, rec.beam_gap = found
                delta_w = rec.delta_beam

        obj_x = obj_w
        if mode != "beam_only":
            g = sc.margin_grad_x(rows, w, slope, intercept)
            found = line_search(pos_margin, x, obj_w, g,
                                lambda s: float(g @ s),
                                lambda c: project_positions(c, region), params,
                                min(params.delta0, 2.0 * delta_x))
            if found is not None:
                rec.delta_pos, x, obj_x, rec.pos_gap = found
                delta_x = rec.delta_pos
                rows = cand_rows

        improvement = obj_x - obj
        obj = obj_x
        rec.objective = obj
        if keep_trace:
            trace.append(rec)
        if abs(improvement) < params.obj_tol * max(1.0, abs(obj)):
            converged = True
            break

    return ApgaResult(w=w, x=x, objective=obj, n_iter=n_iter,
                      converged=converged, trace=trace)


def bisect_confidence(probe, eps_max: float, tau: float) -> list[tuple]:
    """Bisect the confidence level eps over [0, eps_max].

    ``probe(eps)`` returns ``(feasible, payload)``.  Probing starts at
    min(0.5, eps_max), moves up after a feasible level and down after an
    infeasible one, and stops once the bracket is at most ``tau`` wide.
    Returns every probe as ``(eps, feasible, payload)`` in order; the last
    feasible one is the certified level.
    """
    eps_lo, eps_hi = 0.0, eps_max
    eps = min(0.5, eps_max)
    probes = []
    while True:
        feasible, payload = probe(eps)
        probes.append((eps, feasible, payload))
        if feasible:
            eps_lo = eps
            eps = 0.5 * (eps + eps_hi)
        else:
            eps_hi = eps
            eps = 0.5 * (eps_lo + eps)
        if eps_hi - eps_lo <= tau:
            return probes


def _certified(probes: list[tuple]) -> tuple[float, bool, object]:
    """The last feasible probe, or eps 0 with the last probe's payload."""
    for eps, feasible, payload in reversed(probes):
        if feasible:
            return eps, True, payload
    return 0.0, False, probes[-1][2]


def bisection_outage_min(
    cfg: SystemConfig,
    table: LinearFitTable | None = None,
    params: OptimizerParams | None = None,
    w0=None, x0=None, mode: str = "joint",
    keep_trace: bool = False,
) -> BisectionResult:
    """Minimize the secrecy outage by bisection on the confidence level.

    ``bisect_confidence`` probes over [0, min(1, table max)], starting at
    min(0.5, that bound); each probe solves the margin maximization
    (warm-started from the previous probe) and the sign of the attained
    maximum steers the bisection, which stops once the bracket is narrower
    than params.tau.  The reported outage is the closed-form value at the
    best feasible solution.

    Before any probe, the closed form is checked for certain outage: a
    unit-norm w gives |s_0 w|^2 <= N, so when even the legitimate gain
    beta0 N leaves the outage threshold nonpositive, no (w, x) certifies any
    level.  The start (w, x) is then returned at once with eps 0, no probes
    and no iterations.
    """
    table = table or default_table()
    params = params or OptimizerParams()
    region = feasible_region(cfg)
    x = np.asarray(x0, dtype=float) if x0 is not None else region.midpoints()
    w = np.asarray(w0, dtype=complex) if w0 is not None else mrt_beamformer(x, cfg)

    if moment_match(cfg).threshold(cfg.beta0 * cfg.n_antennas) <= 0.0:
        w = _normalize(w)
        return BisectionResult(
            eps=0.0, p_out=secrecy_outage_closed_form(w, x, cfg), w=w, x=x,
            feasible=False, rounds=0, total_iterations=0, probes=[],
            best_trace=[] if keep_trace else None)

    def probe(eps: float):
        nonlocal w, x
        res = apga_solve(w, x, eps, table, cfg, params, mode=mode,
                         keep_trace=keep_trace)
        w, x = res.w, res.x
        return res.objective > 0.0, res

    runs = bisect_confidence(probe, min(1.0, table.max_eps), params.tau)
    eps_star, feasible, sol = _certified(runs)
    return BisectionResult(
        eps=eps_star, p_out=secrecy_outage_closed_form(sol.w, sol.x, cfg),
        w=sol.w, x=sol.x, feasible=feasible, rounds=len(runs),
        total_iterations=sum(res.n_iter for _, _, res in runs),
        probes=[(eps, feas, res.objective) for eps, feas, res in runs],
        best_trace=sol.trace if keep_trace else None)


@dataclass
class ToyResult:
    eps: float
    point: FloatArray
    value: float


def _box_gradient(f, v: FloatArray, lo: FloatArray, hi: FloatArray,
                  h: float = 1e-6) -> FloatArray:
    """Central differences of f at v with both probes clipped into the box;
    one-sided at a face, where a function like sqrt may not extend."""
    grad = np.zeros_like(v)
    for i in range(v.size):
        step = np.zeros_like(v)
        step[i] = h
        up, down = np.clip(v + step, lo, hi), np.clip(v - step, lo, hi)
        if up[i] > down[i]:
            grad[i] = (f(up) - f(down)) / (up[i] - down[i])
    return grad


def maximize_gamma_objective(
    shape_fn, threshold_fn, bounds: list[tuple[float, float]],
    table: LinearFitTable | None = None, tau: float = 0.01,
) -> ToyResult:
    """Bisection framework for box-constrained gamma-CDF maximization.

    Maximizes P(shape_fn(v), threshold_fn(v)) over the box ``bounds`` by the
    same confidence bisection used for the outage problem.  The inner margin
    threshold_fn - slope * shape_fn - intercept is concave for the intended
    toys and is maximized by projected ascent from each point of a
    deterministic 3^d grid of starts: ``line_search`` steps along its
    finite-difference gradient, clipped into the box, with the warm step and
    relative stop of ``apga_solve`` under the default ``OptimizerParams``.

    Returns the certified confidence level, the maximizing point, and the
    exact objective value there.
    """
    table = table or default_table()
    params = OptimizerParams()
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    starts = [lo + np.array(f) * (hi - lo)
              for f in itertools.product((0.15, 0.5, 0.85), repeat=len(bounds))]

    def ascend(margin, v):
        obj = margin(v)
        delta = params.delta0
        for _ in range(params.max_outer):
            g = _box_gradient(margin, v, lo, hi)
            found = line_search(margin, v, obj, g, lambda s: float(g @ s),
                                lambda c: np.clip(c, lo, hi), params,
                                min(params.delta0, 2.0 * delta))
            if found is None:
                break
            delta, v, new_obj, _ = found
            improvement, obj = new_obj - obj, new_obj
            if abs(improvement) < params.obj_tol * max(1.0, abs(obj)):
                break
        return v, obj

    def probe(eps: float):
        slope, intercept = surrogate_lookup(table, eps)

        def margin(v):
            return threshold_fn(v) - slope * shape_fn(v) - intercept

        # max keeps the first of equal margins, so the first start wins ties
        v, best = max((ascend(margin, s) for s in starts), key=lambda r: r[1])
        return best > 0.0, v

    eps_star, _, v_star = _certified(
        bisect_confidence(probe, min(1.0, table.max_eps), tau))
    value = float(lower_incomplete_gamma_reg(shape_fn(v_star),
                                             threshold_fn(v_star)))
    return ToyResult(eps=eps_star, point=np.asarray(v_star), value=value)


def write_trace(trace: list[TraceRecord], path) -> None:
    """Plain-text iteration trace: iteration, accepted step, objective."""
    lines = ["# iteration delta objective"]
    for rec in trace:
        delta = rec.delta_pos if rec.delta_pos is not None else rec.delta_beam
        lines.append(f"{rec.iteration} {'' if delta is None else repr(delta)} "
                     f"{rec.objective!r}")
    Path(path).write_text("\n".join(lines) + "\n")

"""Joint beamformer/placement optimization of the secrecy confidence.

The outage minimization is driven from the outside by bisection on the
secrecy confidence level eps: a level is feasible when the maximum of a
margin objective (the scaled outage threshold minus the linear surrogate
of the required Gamma quantile, cleared of its positive denominator) is
positive.  The inner maximization alternates projected gradient ascent
steps on the unit-norm beamformer and on the antenna positions, each with
backtracking against a quadratic model.  Each outer iteration first tries
a FISTA extrapolation (Beck & Teboulle 2009), of both in joint mode and of
the beamformer alone in beam_only mode, and keeps it only when the margin
rises, restarting the momentum otherwise (O'Donoghue & Candes 2015), so
the trace stays monotone while the slow zig-zag tail of the alternating
steps is cut short.  positions_mrt runs no extrapolation.

The bisection reads only the sign of a probe's maximum, so a joint or
beam_only probe also stops once its margin cannot reach zero: past
MOMENTUM_AFTER, an iteration whose gain, repeated up to the iteration cap,
would still leave the margin negative settles the probe as infeasible
(``ascend``'s ``target``), and the probe reports that it converged.
Three loops stop only on the relative change or the cap: positions_mrt,
whose trace is not monotone, ``zf.pgd_solve``, whose objective (the
negated loss) is always negative, and the toy maximizer.

Each evaluated point, a start, a line-search candidate or an
extrapolated point, costs one steering product v = rows @ w, its gains
|v|^2 and one ``MomentMatch.statistics`` call.  ``line_search`` hands back
the accepted candidate's evaluation, and a kept extrapolation its own, so
the next beamformer gradient and the next position gradient both read it
and recompute no gain.  On one lane those are a few numpy calls on
(M+1, N) arrays, where numpy's fixed cost per call outweighs the math: the
lane takes the gains as ``np.square(np.abs(v))`` and its dot products by
``ndarray.dot``, which skip the slower ``** 2`` path and ``np.dot``'s
dispatcher with the same bits.  For the same reason the checks of a start
run once, at ``apga_solve``'s door, and not in each probe of a bisection,
whose starts are unit-norm beams already.  Every solver reads its config's
gain model, ``SystemConfig.gain_model``, built once with the config; each
bisection builds its region once, and ``_margin_bound`` its constants.

The margin, its gain weights and both gradients are written twice, with
the same operations in the same order.  The helpers ``_evaluate``,
``_gain_weights``, ``_grad_w`` and ``_grad_x`` broadcast over stacks of
lanes; the public ``margin_*`` functions and the lane solver use them.
``apga_solve`` solves one lane in float arithmetic on 1-D arrays, with the
constants of the solve computed once, since 0-d numpy operations cost more
than the math on (M+1, N) arrays.  The parity tests hold the two to the
same bits.  The beam normalization is written once: ``model.unit_norm``
takes its one-lane path on a 1-D beam and its stacked path otherwise.

The solvers take lines, not levels: ``apga_solve`` and ``_beam_lanes``
maximize the margin of a given surrogate line, slope and intercept, and
never read the surrogate table.  ``_bisect`` is the one place that maps
confidence levels to lines, with one ``surrogate_lookup`` per bisection
over every level the bisection can probe.

``bisect_confidence`` is the one bisection loop.  Every level that a
bisection over [0, eps_max] can probe is a node of one cached tree
(``_level_tree``; 127 nodes over at most 7 rounds for the default table),
each lane keeps its node in an array over the lanes, and every round
probes all lanes still bisecting at once and moves each to the child its
verdict picks.  ``_bisect`` is the one body around it.  Once per
bisection it computes the matched-filter start of every lane, the
closed-form exit for certain outage, and the line and the screen's bound
of every node.  A round gathers the live lanes' lines and bounds, solves
the lanes the screen passes, takes the ``margin > 0`` verdict and writes
the margins and iteration counts into one row each; it keeps the arrays
the solve returned and sets no feasible lane's (w, x) aside.  The results
are built once, at the end: each lane's (w, x) from its last feasible
solve, the screened counts, one stacked closed-form outage for all lanes,
and a lane's trace only when it is read.  The screen is ``_margin_bound``,
a closed-form upper bound on the margin of a line over every (w, x): a
lane whose bound is negative is infeasible at its level without a solve,
and only the other lanes are solved.
``bisection_outage_min`` hands it one lane solved by ``apga_solve``'s
set-up, built once per bisection; ``bisect_beam_lanes`` hands it a stack of
fixed placements solved beamformer-only by ``_beam_lanes``, where every
numpy call of the margin, its gradient and the line search covers all
lanes still running and each lane keeps its own step, momentum, stop and
iteration cap.  Lane i gives the same result, bit for bit, as
``bisection_outage_min`` in beam_only mode at placement i.  The lanes'
bookkeeping is kept to few numpy calls: FISTA's weights are read from one
table by each lane's count since its restart, a kept extrapolation is
merged into the fresh arrays of its evaluation, and a stopping lane leaves
the stack by one index gather per array.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .gammainc import lower_incomplete_gamma_reg
from .model import (
    FeasibleRegion,
    SystemConfig,
    check_integer,
    check_vector,
    feasible_region,
    mrt_beamformer,
    project_positions,
    unit_norm,
)
from .outage import MomentMatch
from .surrogate import (DEFAULT_TAU, LinearFitTable, default_table,
                        surrogate_lookup)

FloatArray = NDArray[np.floating]
ComplexArray = NDArray[np.complexfloating]

DELTA0 = 1.0       # largest step a line search starts from
SHRINK = 0.5       # step factor after each rejected candidate
MIN_STEP = 1e-15   # a line search gives up below this step
OBJ_TOL = 1e-8     # relative objective change that ends a loop
GROW_AFTER = 2     # first-try acceptances in a row before a start step grows
MOMENTUM_AFTER = 5 # iterations before the first extrapolation


@dataclass(frozen=True)
class OptimizerParams:
    """The one solver setting: max_outer caps the outer iterations of every
    ascent and descent loop.

    The step and stop policy that ``ascend`` applies to all of them is
    fixed by the module constants DELTA0, SHRINK, MIN_STEP, OBJ_TOL and
    GROW_AFTER, the start of the extrapolation (joint and beam_only
    ascents) by MOMENTUM_AFTER, and the confidence bisection stops at
    ``surrogate.DEFAULT_TAU``.  The joint and beam_only ascents also stop
    once their margin cannot reach zero by max_outer at the pace of the
    last iteration, from iteration MOMENTUM_AFTER + 1 on; positions_mrt,
    ``zf.pgd_solve`` and the toy maximizer do not.
    Built with anything but a non-negative integer (not a bool) as
    max_outer, the params raise a one-line ValueError.
    """

    max_outer: int = 2000

    def __post_init__(self) -> None:
        check_integer("max_outer", self.max_outer, 0)


@dataclass(slots=True)
class TraceRecord:
    """One outer iteration: each block's accepted step (None when it
    accepted none or did not run), the objective after it, and the weight
    of the extrapolation kept before the blocks ran (None when none was
    tried or the iterate was kept)."""

    iteration: int
    delta_beam: float | None
    delta_pos: float | None
    objective: float
    beta: float | None = None


@dataclass
class ApgaResult:
    """One margin maximization: the final (w, x), its margin and its outage
    threshold (``threshold``, from the evaluation the margin came from), the
    number of outer iterations, and their trace.

    ``converged`` is True when the loop ended on a stop rule, the relative
    stop or, in joint and beam_only mode, the stop once the margin cannot
    reach zero, and False when it ran into the ``max_outer`` cap.  A
    converged probe with a negative margin therefore need not sit at a
    maximum: it ended once no remaining iteration at its pace could make it
    feasible.
    """

    w: ComplexArray
    x: FloatArray
    objective: float
    n_iter: int
    converged: bool
    threshold: float
    trace: list[TraceRecord] = field(default_factory=list)


@dataclass
class BisectionResult:
    """Outcome of the confidence bisection.

    ``eps`` is the largest confidence level certified feasible; ``p_out``
    is the closed-form outage at the returned solution.  A level is
    certified where its probe's solve ends at a positive margin and a
    positive outage threshold: at a threshold <= 0 the closed-form outage
    is 1, so no level holds there, whatever the surrogate margin says, and
    the probe is recorded as infeasible with its margin.  When no probed
    level was feasible, ``feasible`` is False and the best-effort iterate
    of the last probe is returned with eps = 0.  ``best_trace`` is the
    iteration trace of the solve that produced the returned solution, built
    from the solver's record each time it is read.  When the closed form
    rules out every level before any probe (the legitimate gain cannot
    reach a positive outage threshold), ``rounds`` is 0, ``probes`` and
    ``best_trace`` are empty and the start point is returned with p_out 1.

    Each probe is recorded as ``(eps, feasible, margin)``.  A probe that
    the closed-form margin bound rules out is not solved: it is recorded as
    ``(eps, False, bound)``, adds no iterations and leaves the lane's (w, x)
    as they were, and ``screened`` counts such probes.  When no level is
    feasible and the last probe was screened, ``best_trace`` is empty.
    """

    eps: float
    p_out: float
    w: ComplexArray
    x: FloatArray
    feasible: bool
    rounds: int
    total_iterations: int
    probes: list[tuple[float, bool, float]] = field(default_factory=list)
    screened: int = 0
    _trace: Callable = field(default=list, repr=False, compare=False)

    @property
    def best_trace(self) -> list[TraceRecord]:
        return self._trace()


class _Evaluation(NamedTuple):
    """The margin at a point (w, x) and what both its gradients read there:
    the steering products v = rows @ w (..., M+1) and the statistics lin
    and thr (...)."""

    margin: float | FloatArray
    v: ComplexArray
    lin: FloatArray
    thr: FloatArray


def _evaluate(mm: MomentMatch, rows: ComplexArray, w: ComplexArray,
              slope, intercept) -> _Evaluation:
    """The evaluation at beams w (..., N) on steering rows (..., M+1, N),
    with per-lane slope and intercept (...)."""
    v = np.matvec(rows, w)
    lin, quad, thr = mm.statistics(np.abs(v) ** 2)
    m = lin * thr - slope * (lin * lin) - intercept * quad
    return _Evaluation(m if v.ndim > 1 else float(m), v, lin, thr)


def _margin_bound(mm: MomentMatch, n: int, thr_max: float):
    """``bound(slope, intercept)``: an upper bound on the margin of every
    line (slope, intercept) (...) over all unit-norm beams and all
    placements of n antennas, given the largest threshold thr_max =
    ``mm.threshold(beta0 n)``.  The ends of lin's and quad's intervals are
    computed here, once per config.

    A unit-norm w on unit-modulus steering rows gives gains |s_d w|^2 in
    [0, n].  lin, quad and the threshold are affine in them with
    nonnegative coefficients, and lin > 0, so lin thr <= lin thr_max and lin
    and quad lie in [const, const + n sum coef].  The bound maximizes
    lin thr_max - slope lin^2 over lin's interval, which for a positive
    slope peaks at the clipped thr_max / (2 slope), and subtracts intercept
    quad at quad's end that makes it smallest.  It does not read x.
    """
    lin_top = mm.lin_const + n * float(mm.lin_coef.sum())
    quad_top = mm.quad_const + n * float(mm.quad_coef.sum())

    def bound(slope, intercept) -> FloatArray:
        with np.errstate(divide="ignore", over="ignore"):
            # a slope near 0 puts the peak past the float range: inf clips
            peak = thr_max / (2.0 * slope)
        lin = np.minimum(np.maximum(peak, mm.lin_const), lin_top)
        quad = np.where(intercept >= 0.0, mm.quad_const, quad_top)
        return lin * thr_max - slope * (lin * lin) - intercept * quad
    return bound


def _gain_weights(mm: MomentMatch, at: _Evaluation, slope, intercept):
    """The margin's partials in the M+1 gains |v_d|^2 at evaluation ``at``."""
    lin, thr = at.lin, at.thr
    weights = np.empty(at.v.shape)
    weights[..., 0] = lin * mm.beta0 / mm.rate_pow
    scale = np.asarray(thr - 2.0 * slope * lin)[..., None]
    weights[..., 1:] = scale * mm.lin_coef \
        - np.asarray(intercept)[..., None] * mm.quad_coef
    return weights


def _grad_w(mm: MomentMatch, rows_conj: ComplexArray, at: _Evaluation,
            slope, intercept) -> ComplexArray:
    # d|v_d|^2 / d conj(w) = v_d conj(s_d)
    weights = _gain_weights(mm, at, slope, intercept)
    return ((weights * at.v)[..., None, :] @ rows_conj)[..., 0, :]


def _grad_x(mm: MomentMatch, rows: ComplexArray, w: ComplexArray,
            at: _Evaluation, slope: float, intercept: float) -> FloatArray:
    # d|v_d|^2 / dx = -2 k_d Im(conj(v_d) s_d * w), k_d = 2 pi sin_d / lambda
    weights = _gain_weights(mm, at, slope, intercept)
    k = mm.wave_rate * mm.sines
    return -2.0 * np.imag(((weights * k) * at.v.conj()) @ rows * w)


def margin_objective(w, x, eps: float, table: LinearFitTable,
                     cfg: SystemConfig) -> float:
    """Feasibility margin of confidence level eps at (w, x); > 0 is feasible."""
    mm = cfg.gain_model
    return _evaluate(mm, mm.rows(x), np.asarray(w),
                     *surrogate_lookup(table, eps)).margin


def margin_grad_beamformer(w, x, eps: float, table: LinearFitTable,
                           cfg: SystemConfig) -> ComplexArray:
    """Ascent direction in w; half the real-pair gradient, complex form."""
    mm = cfg.gain_model
    rows, w, lookup = mm.rows(x), np.asarray(w), surrogate_lookup(table, eps)
    return _grad_w(mm, rows.conj(), _evaluate(mm, rows, w, *lookup), *lookup)


def margin_grad_positions(w, x, eps: float, table: LinearFitTable,
                          cfg: SystemConfig) -> FloatArray:
    """Exact gradient of the margin objective in the antenna positions."""
    mm = cfg.gain_model
    rows, w, lookup = mm.rows(x), np.asarray(w), surrogate_lookup(table, eps)
    return _grad_x(mm, rows, w, _evaluate(mm, rows, w, *lookup), *lookup)


def line_search(evaluate, point, obj: float, direction, project, delta: float):
    """One projected backtracking step of an ascent.

    Tries ``cand = project(point + delta * direction)`` for the given start
    delta, delta * SHRINK, ... down to MIN_STEP; ``evaluate(cand)`` returns
    ``(value, evaluation)``, the objective and what else was computed at
    ``cand``.  Accepts the first candidate whose value reaches the quadratic
    model ``obj + slope - |step|^2 / delta``, step = cand - point, whose
    slope Re<direction, step> is doubled for a complex point: ``direction``
    is the objective's gradient at ``point``, for a complex point half the
    real-pair one.  ``point`` is an array.  Returns ``(delta, cand, value,
    evaluation)``, or None.
    """
    scale = 2.0 if point.dtype.kind == "c" else 1.0
    while delta >= MIN_STEP:
        cand = project(point + delta * direction)
        step = cand - point
        model = obj + scale * float(np.vdot(direction, step).real) \
            - float(np.vdot(step, step).real) / delta
        val, evaluation = evaluate(cand)
        if val >= model:
            return delta, cand, val, evaluation
        delta *= SHRINK
    return None


def _fista(t: float, it: int):
    """FISTA's schedule at iteration ``it``: from t_{k-1} (0 before the
    first iteration, 1 after a restart), t_k = (1 + sqrt(1 + 4 t_{k-1}^2))
    / 2 and the weight beta_k = (t_{k-1} - 1) / t_k, or 0 up to iteration
    MOMENTUM_AFTER.  Returns (t_k, beta_k), floats."""
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
    return t_next, (t - 1.0) / t_next if it > MOMENTUM_AFTER else 0.0


@functools.cache
def _fista_weights(size: int) -> FloatArray:
    """``_fista``'s weights by the number k < size of iterations since the
    start (t = 0 at k = 0) or since a restart (t = 1, as at k = 1): the
    k-th is (t_k - 1) / t_{k+1}, the float ``_fista`` gives, so a lane that
    reads it gets the bits of its own schedule.  Read-only; ``_beam_lanes``
    asks for sizes 8, 16, 32, ..., so few are cached."""
    t, weights = 0.0, np.empty(size)
    for k in range(size):
        t, weights[k] = _fista(t, MOMENTUM_AFTER + 1)
    weights.flags.writeable = False
    return weights


def _out_of_reach(obj, start, it: int, max_outer: int, target):
    """Whether an iteration ``it`` that moved the objective from ``start``
    to ``obj`` leaves ``target`` out of reach: past MOMENTUM_AFTER and short
    of max_outer, ``obj + (obj - start) (max_outer - it) < target``.  obj
    and start are floats, or arrays of lanes, which get a bool array (or
    False outside those iterations) with the same bits per lane."""
    return (MOMENTUM_AFTER < it < max_outer
            and obj + (obj - start) * (max_outer - it) < target)


def ascend(obj: float, max_outer: int, beam=None, pos=None,
           extrapolate=None, target: float | None = None):
    """The outer loop of every projected ascent, from objective ``obj``.

    Each iteration calls the blocks ``beam`` then ``pos`` that are given as
    ``block(obj, delta)``, with the objective so far and the block's start
    step.  A block moves its own variable and returns the new objective and
    its ``line_search`` result, None when it accepted no step.

    Each block keeps its last accepted delta ``last`` and ``run``, how many
    of its searches in a row accepted their first candidate; they start at
    DELTA0 and GROW_AFTER.  A search starts at min(DELTA0, 2 x last) when
    run >= GROW_AFTER and at ``last`` otherwise.  An accepted search sets
    ``last`` to its delta and adds one to ``run`` if that was the start
    step, else resets it to 0; a search that accepts nothing changes
    neither.  The loop stops as converged once an iteration moves the
    objective by less than OBJ_TOL x max(1, |objective|), and otherwise
    after max_outer iterations.  Returns the objective, one TraceRecord per
    iteration and whether the loop converged.

    ``target``, when given, adds a second stop for a caller that only
    needs to know whether the maximum reaches it: the loop stops as
    converged after an iteration that leaves the target out of reach
    (``_out_of_reach``), where the objective would stay below it at the cap
    even if every remaining iteration gained as much as this one.  A loop
    that reaches max_outer still reports that it did not converge.  None
    keeps the relative stop alone.

    ``extrapolate(obj, beta)``, when given, runs first in every iteration.
    It tries the point y = z_k + beta (z_k - z_{k-1}), projected, where z_k
    is its iterate at the start of iteration k, moves there only when the
    objective at y strictly exceeds ``obj``, and returns the new objective
    and beta, or ``obj`` and None when it keeps z_k.  The weights are
    FISTA's (``_fista``), beta_k = (t_{k-1} - 1) / t_k with t_1 = 1 and
    t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2, advanced every iteration from
    iteration 2; a kept z_k restarts t at 1.  Up to iteration
    MOMENTUM_AFTER, and in the iteration after a restart (where beta_k is 0
    and y would be z_k), the weight passed is 0: the block then only
    records z_k.
    """
    blocks, trace = (beam, pos), []
    last, run = [DELTA0, DELTA0], [GROW_AFTER, GROW_AFTER]
    t = 0.0
    for it in range(1, max_outer + 1):
        start, delta, beta = obj, [None, None], None
        if extrapolate is not None:
            t, weight = _fista(t, it)
            obj, beta = extrapolate(obj, weight)
            if weight and beta is None:
                t = 1.0
        for i, block in enumerate(blocks):
            if block is not None:
                first = (min(DELTA0, 2.0 * last[i]) if run[i] >= GROW_AFTER
                         else last[i])
                obj, found = block(obj, first)
                if found is not None:
                    run[i] = run[i] + 1 if found[0] == first else 0
                    last[i] = delta[i] = found[0]
        trace.append(TraceRecord(it, delta[0], delta[1], obj, beta))
        if abs(obj - start) < OBJ_TOL * max(1.0, abs(obj)):
            return obj, trace, True
        if target is not None and _out_of_reach(obj, start, it, max_outer,
                                                target):
            return obj, trace, True
    return obj, trace, False


def apga_solve(
    w0, x0, slope: float, intercept: float, cfg: SystemConfig,
    params: OptimizerParams | None = None, mode: str = "joint",
) -> ApgaResult:
    """Maximize the margin objective of the surrogate line ``slope * shape +
    intercept`` by alternating projected ascent.

    mode "joint" runs a beamformer block then a position block per outer
    iteration; "beam_only" holds the positions fixed; "positions_mrt"
    resets the beamformer to the closed-form matched filter at the start of
    each position block and only ascends in the positions (the objective
    trace is then not guaranteed monotone, since the matched filter
    maximizes the legitimate gain, not the margin).

    Each block is one ``line_search``: beamformer candidates are
    renormalized to the unit sphere and position candidates clamped into
    the movement region, and a candidate is accepted once the objective at
    it reaches the quadratic model built from the block's gradient, which
    for these projections implies the objective never decreases within a
    block.  A block that accepts no step leaves its variable unchanged.
    ``ascend`` runs the blocks with its warm steps, which grow only after
    GROW_AFTER first-try acceptances in a row, and its relative stop, up to
    params.max_outer iterations, and the result keeps its trace.  In joint
    and beam_only mode it gets the target 0: past MOMENTUM_AFTER, a probe
    whose margin would stay negative at the cap even if every remaining
    iteration gained as much as the last one stops there, converged, since
    the bisection reads only the margin's sign.  positions_mrt, whose trace
    is not monotone, runs without it.

    In joint and beam_only mode ``ascend`` also gets an extrapolation
    block.  It keeps the previous outer iterate (w_{k-1}, x_{k-1}) and,
    given ``ascend``'s FISTA weight beta (nonzero from iteration
    MOMENTUM_AFTER + 1 on), evaluates y = (unit_norm(w_k + beta (w_k -
    w_{k-1})), project_positions(x_k + beta (x_k - x_{k-1}))) in joint mode,
    y = (unit_norm(w_k + beta (w_k - w_{k-1})), x_k) in beam_only mode, with
    one evaluation (and in joint mode one steering product).  beam_only
    never moves or projects x: a fixed placement may lie outside the
    movement region, as the FPA layout does.  The block moves to y, with its
    rows and statistics for the next gradients, only when the margin there
    strictly exceeds the current one; the trace records the kept beta.
    positions_mrt runs no extrapolation.

    The lane is evaluated in float arithmetic, with the same operations in
    the same order as the stacked ``_evaluate``, ``_grad_w`` and
    ``_grad_x``, so it gets their bits; it normalizes its beams with
    ``model.unit_norm``, whose one-lane path has the bits of its row of a
    stack.  The slope and intercept are taken as given (``_bisect`` looks
    them up for a level in the surrogate table); pass Python floats, since
    numpy scalars cost more per operation.  ``w0`` must be a finite (N,) vector with a nonzero
    finite norm and ``x0`` a finite real (N,) vector; anything else raises
    ``ValueError``.  These checks are this function's alone: its set-up and
    probe are ``_apga_solver``'s, which ``bisection_outage_min`` builds once
    per bisection and runs on starts that pass them by construction.
    """
    solve = _apga_solver(cfg, params, mode)
    n = cfg.n_antennas
    w0 = check_vector("w0", w0, n).astype(complex)
    with np.errstate(all="ignore"):
        unit = unit_norm(w0)
    if not (np.isfinite(unit).all() and unit.any()):  # its norm is 0 or inf
        raise ValueError("w0 must have a nonzero finite norm")
    return solve(w0, check_vector("x0", x0, n, real=True), slope, intercept)


def _apga_solver(cfg: SystemConfig, params: OptimizerParams | None,
                 mode: str, region: FeasibleRegion | None = None):
    """``apga_solve``'s set-up (region, work buffers, the constants of
    ``cfg.gain_model``) for one config, params and mode; the region of
    ``cfg`` is built unless given.  Returns ``solve(w0, x0, slope,
    intercept)``, one probe on it, from a complex w0 with a nonzero finite
    norm and a real x0, each (N,); calls share only the buffers, each
    written first."""
    if mode not in ("joint", "beam_only", "positions_mrt"):
        raise ValueError(f"unknown mode {mode!r}")
    n = cfg.n_antennas
    max_outer = (params or OptimizerParams()).max_outer
    mm = cfg.gain_model
    region = region or feasible_region(cfg)

    # the constants of the solve, computed once
    statistics, beta0, rate_pow = mm.statistics, mm.beta0, mm.rate_pow
    lin_coef, quad_coef = mm.lin_coef, mm.quad_coef
    phase, sines = 1j * mm.wave_rate, mm.sines[:, None]
    k = mm.wave_rate * mm.sines
    # Work buffers, written through their real parts.  numpy casts a real
    # array to r + 0j before it multiplies a complex one; a complex buffer
    # with zero imaginary parts is that cast already, so products with it
    # keep their bits and skip the cast.
    phases = np.zeros((len(mm.sines), n), dtype=complex)
    weights = np.zeros(len(mm.sines), dtype=complex)
    weighted_k = np.zeros(len(mm.sines), dtype=complex)
    phases_re, weights_re, weighted_k_re = (
        buf.real for buf in (phases, weights, weighted_k))
    weights_tail = weights_re[1:]

    def steer(pos):                     # mm.rows
        np.multiply(sines, pos, out=phases_re)
        return np.exp(phase * phases)

    def solve(w0, x, slope, intercept):
        intercept_quad = intercept * quad_coef

        def evaluate(rows, w):          # _evaluate: (margin, v, lin, thr)
            v = np.matvec(rows, w)
            lin, quad, thr = statistics(np.square(np.abs(v)))
            return (lin * thr - slope * (lin * lin) - intercept * quad,
                    v, lin, thr)

        def gain_weights(lin, thr):     # _gain_weights, into ``weights``
            weights_re[0] = lin * beta0 / rate_pow
            np.multiply(lin_coef, thr - 2.0 * slope * lin, out=weights_tail)
            np.subtract(weights_tail, intercept_quad, out=weights_tail)

        w = unit_norm(w0)
        rows = steer(x)
        rows_conj = rows.conj()
        obj, v, lin, thr = evaluate(rows, w)    # always at (w, x)

        def beam_margin(cand):
            evaluated = evaluate(rows, cand)
            return evaluated[0], evaluated

        def pos_margin(cand):
            new_rows = steer(cand)
            evaluated = evaluate(new_rows, w)
            return evaluated[0], (new_rows, evaluated)

        def beam_block(obj, delta):
            nonlocal w, v, lin, thr
            gain_weights(lin, thr)
            g = (weights * v) @ rows_conj
            found = line_search(beam_margin, w, obj, g, unit_norm, delta)
            if found is not None:
                _, w, obj, (_, v, lin, thr) = found
            return obj, found

        def pos_block(obj, delta):
            nonlocal w, x, rows, rows_conj, v, lin, thr
            if mode == "positions_mrt":
                w = mrt_beamformer(x, cfg)
                obj, v, lin, thr = evaluate(rows, w)
            gain_weights(lin, thr)
            np.multiply(weights_re, k, out=weighted_k_re)
            g = -2.0 * ((weighted_k * v.conj()) @ rows * w).imag
            found = line_search(pos_margin, x, obj, g,
                                lambda c: project_positions(c, region), delta)
            if found is not None:
                _, x, obj, (rows, (_, v, lin, thr)) = found
                if mode == "joint":
                    rows_conj = rows.conj()
            return obj, found

        w_prev, x_prev = w, x           # (w, x) when the last iteration began

        def extrapolate(obj, beta):
            nonlocal w, x, rows, rows_conj, v, lin, thr, w_prev, x_prev
            w_last, x_last, w_prev, x_prev = w_prev, x_prev, w, x
            if not beta:
                return obj, None
            y_w = unit_norm(w + beta * (w - w_last))
            if mode == "joint":
                y_x = project_positions(x + beta * (x - x_last), region)
                y_rows = steer(y_x)
            else:
                y_x, y_rows = x, rows
            margin, y_v, y_lin, y_thr = evaluate(y_rows, y_w)
            if not margin > obj:
                return obj, None
            if mode == "joint":
                x, rows, rows_conj = y_x, y_rows, y_rows.conj()
            w, v, lin, thr = y_w, y_v, y_lin, y_thr
            return margin, beta

        obj, trace, converged = ascend(
            obj, max_outer,
            beam=None if mode == "positions_mrt" else beam_block,
            pos=None if mode == "beam_only" else pos_block,
            extrapolate=None if mode == "positions_mrt" else extrapolate,
            target=None if mode == "positions_mrt" else 0.0)
        return ApgaResult(w=w, x=x, objective=obj, n_iter=len(trace),
                          converged=converged, threshold=thr, trace=trace)

    return solve


@functools.lru_cache(maxsize=16)
def _level_tree(eps_max: float):
    """Every level that a bisection over [0, eps_max] can probe, as a tree
    of nodes: ``(levels, after, depth)``.  Node 1 is min(0.5, eps_max), with
    the bracket [0, eps_max]; a verdict v (0 infeasible, 1 feasible) at node
    i with level e and bracket [lo, hi] leaves the bracket [lo, e] or [e,
    hi], and node ``after[2 i + v]`` probes its midpoint 0.5 (lo + hi) while
    the bracket is wider than ``surrogate.DEFAULT_TAU``, else 0: the lane
    stops.  ``levels`` holds node i's level at i, and 0 at node 0, which
    no lane probes; depth is the most rounds of a path.  Read-only, and
    cached: the tree of the default table's 0.99 has 127 nodes and depth 7.
    """
    levels, after = [0.0, min(0.5, eps_max)], [0, 0]
    brackets, depths, i = [None, (0.0, eps_max)], [0, 1], 1
    while i < len(levels):
        (lo, hi), level = brackets[i], levels[i]
        for lo, hi in ((lo, level), (level, hi)):
            after.append(len(levels) if hi - lo > DEFAULT_TAU else 0)
            if after[-1]:
                levels.append(0.5 * (lo + hi))
                brackets.append((lo, hi))
                depths.append(depths[i] + 1)
        i += 1
    levels, after = np.array(levels), np.array(after)
    levels.flags.writeable = after.flags.writeable = False
    return levels, after, max(depths)


def bisect_confidence(probe, eps_max: float, lanes: int = 1):
    """Bisect the confidence level eps over [0, eps_max] in every lane.

    Each lane keeps its own bracket: probing starts at min(0.5, eps_max),
    moves up after a feasible level and down after an infeasible one, and
    the lane stops once its bracket is at most ``surrogate.DEFAULT_TAU``
    wide, so every probed level is positive.  The levels are the nodes of
    ``_level_tree(eps_max)``, and each lane keeps its node: each round calls
    ``probe(live, nodes)`` with the indices and nodes of the lanes still
    bisecting, which returns their verdicts, True where feasible.  Returns
    the nodes and verdicts (R, lanes) of every round: lane b probes in
    rounds 0 .. k_b - 1 and reads node 0 and False after.
    """
    after, depth = _level_tree(eps_max)[1:]
    nodes = np.zeros((depth, lanes), dtype=int)
    verdicts = np.zeros(nodes.shape, dtype=bool)
    live, node = np.arange(lanes), np.ones(lanes, dtype=int)
    for r in range(depth):
        feasible = np.asarray(probe(live, node), dtype=bool)
        # a round of every lane writes a whole row, without an index
        row = r if len(live) == lanes else (r, live)
        nodes[row], verdicts[row] = node, feasible
        node = after[2 * node + feasible]
        if (going := np.count_nonzero(node)) < len(node):
            if not going:
                break
            stay = node.nonzero()[0]
            live, node = live[stay], node[stay]
    return nodes[:r + 1], verdicts[:r + 1]


def _bisect(cfg: SystemConfig, table: LinearFitTable | None, xs,
            solve) -> list[BisectionResult]:
    """Minimize the secrecy outage by confidence bisection in every lane of
    the placements xs (B, N), each from its matched filter, on the gain
    model of cfg.

    This is the one place of the solver stack that reads the table (the
    default table when None).  Once per bisection, one ``surrogate_lookup``
    maps every level of ``_level_tree`` to its line, and ``_margin_bound``
    bounds each line's margin.  Each round gathers the lines of the nodes
    of the lanes ``live``, and ``solve(live, w, x, slope, intercept)``
    maximizes those lanes' margins from their beams w and placements x with
    the per-lane slope and intercept arrays, and returns their new beams,
    placements, margins, outage thresholds (of the evaluations the margins
    came from) and iteration counts and ``trace(b, n)``, the n-iteration
    trace of lane b; it writes none of its inputs.  A lane's next probe
    starts where its last solve ended.  A level is feasible when the
    attained maximum is positive and so is the threshold there: at a
    threshold <= 0 the outage is certain.  ``bisect_confidence`` probes over
    [0, table max].  A round keeps what its solve returned, and writes the
    lanes' margins and iterations into one row each; the results, with the
    (w, x) of each lane's last feasible solve, the screened count and one
    stacked closed-form outage, are built at the end, and a lane's trace
    when its ``best_trace`` is read.

    Before any probe, the closed form is checked for certain outage: a
    unit-norm w gives |s_0 w|^2 <= N, so when even the legitimate gain
    beta0 N leaves the outage threshold nonpositive, no (w, x) certifies any
    level.  Every start is then returned at once with eps 0, no probes and
    no iterations.  Past that exit, a lane whose level has a negative bound
    at the same largest threshold is infeasible there for every (w, x), so
    it keeps its (w, x), its probe carries the bound as margin, and
    ``solve`` runs only for the other lanes (not at all when none is left).
    """
    table, mm = table or default_table(), cfg.gain_model
    xs = np.array(xs)     # a copy: joint probes move it
    w = mrt_beamformer(xs, cfg)
    thr_max = mm.threshold(cfg.beta0 * cfg.n_antennas)
    if thr_max <= 0.0:
        w = unit_norm(w)
        return [BisectionResult(eps=0.0, p_out=p, w=wi, x=xi, feasible=False,
                                rounds=0, total_iterations=0)
                for p, wi, xi in zip(mm.outage(w, xs).tolist(), w, xs)]
    tree, _, depth = _level_tree(table.max_eps)
    # the line and the bound of every node; node 0, no probe, is not screened
    slopes, intercepts = surrogate_lookup(table, tree)
    bounds = _margin_bound(mm, cfg.n_antennas, thr_max)(slopes, intercepts)
    solvable = bounds >= 0.0
    solvable[0] = True
    margins = np.zeros((depth, len(xs)))
    iterations = np.zeros(margins.shape, dtype=int)
    solves = []           # per round: the lanes solved and what solve returned

    def probe(live, nodes):
        nonlocal w, xs
        r, run, margin = len(solves), solvable[nodes], bounds[nodes]
        solves.append(None)
        lanes, at = (live, nodes) if run.all() else (live[run], nodes[run])
        if lanes.size:
            # a solve of every lane reads and writes whole arrays and rows
            whole = len(lanes) == len(xs)
            new_w, new_x, margin[run], thr, n_iter, trace = solve(
                lanes, *((w, xs) if whole else (w.take(lanes, axis=0),
                                                xs.take(lanes, axis=0))),
                slopes[at], intercepts[at])
            iterations[r if whole else (r, lanes)] = n_iter
            # no array a round kept is written: a part is set on a copy
            if whole:
                w, xs = new_w, new_x
            else:
                w, xs = w.copy(), xs.copy()
                w[lanes], xs[lanes] = new_w, new_x
            solves[r] = (lanes, new_w, new_x, trace)
        margins[r if len(live) == len(xs) else (r, live)] = margin
        feasible = margin > 0.0
        if lanes.size:
            feasible[run] &= thr > 0.0
        return feasible

    nodes, verdicts = bisect_confidence(probe, table.max_eps, len(xs))
    levels, margins, iterations = tree[nodes], margins[:len(nodes)], \
        iterations[:len(nodes)]
    # a lane's result: its last, so highest, feasible probe, else its last
    rounds = np.count_nonzero(nodes, axis=0)
    eps = (feasible := np.where(verdicts, levels, 0.0)).max(axis=0)
    source = np.where(eps > 0.0, feasible.argmax(axis=0), rounds - 1)
    screened = np.count_nonzero(~solvable[nodes], axis=0)
    w_out, x_out = w.copy(), xs.copy()
    for r in set(source[eps > 0.0].tolist()):
        lanes, new_w, new_x, _ = solves[r]
        take = ((source == r) & (eps > 0.0)).nonzero()[0]
        at = np.searchsorted(lanes, take)
        w_out[take] = new_w.take(at, axis=0)
        x_out[take] = new_x.take(at, axis=0)
    p_out = mm.outage(w_out, x_out)
    return [BisectionResult(
        eps=e, p_out=p, w=w_out[b], x=x_out[b], feasible=e > 0.0, rounds=k,
        total_iterations=sum(n), probes=list(zip(lv, f, m))[:k],
        screened=s, _trace=functools.partial(solves[r][3], b, n[r]) if n[r]
        else list)
        for b, (e, p, k, s, r, lv, f, m, n) in enumerate(zip(
            eps.tolist(), p_out.tolist(), rounds.tolist(), screened.tolist(),
            source.tolist(), levels.T.tolist(), verdicts.T.tolist(),
            margins.T.tolist(), iterations.T.tolist()))]


def bisection_outage_min(
    cfg: SystemConfig,
    table: LinearFitTable | None = None,
    params: OptimizerParams | None = None,
    x0=None, mode: str = "joint",
) -> BisectionResult:
    """Minimize the secrecy outage by bisection on the confidence level.

    Starts from the placement x0 (default: the midpoints of the movement
    region; else a finite real (N,) vector, or ``ValueError``) and its
    matched filter; ``_bisect`` runs the bisection on this one lane.  Each
    probe maximizes the margin as ``apga_solve`` does in the given mode, on
    one set-up (``_apga_solver``) built for the whole bisection from the
    region and ``cfg.gain_model``, warm-started from the previous probe,
    and the reported outage is the closed-form value at the certified
    solution.  ``best_trace`` is that solve's iteration trace.
    """
    region = feasible_region(cfg)
    if x0 is None:
        x0 = region.midpoints()
    else:
        x0 = check_vector("x0", x0, cfg.n_antennas, real=True)
    apga = _apga_solver(cfg, params, mode, region)

    def solve(live, w, x, slope, intercept):
        res = apga(w[0], x[0], float(slope[0]), float(intercept[0]))
        return (res.w[None], res.x[None], res.objective, res.threshold,
                res.n_iter, lambda b, n: res.trace)

    return _bisect(cfg, table, [x0], solve)[0]


def _try_lanes(mm: MomentMatch, rows, w, obj, g, slope, intercept, delta):
    """Every lane's candidate ``unit_norm(w + delta g)``, its evaluation and
    whether it reaches the lane's quadratic model."""
    cand = unit_norm(w + delta[:, None] * g)
    step = cand - w
    model = obj + 2.0 * np.vecdot(g, step).real \
        - np.vecdot(step, step).real / delta
    val = _evaluate(mm, rows, cand, slope, intercept)
    return cand, val, val.margin >= model


def _line_search_lanes(mm: MomentMatch, rows, w, at: _Evaluation, g, slope,
                       intercept, delta):
    """``line_search`` on the beamformer of every lane at once.

    Lane i tries ``unit_norm(w[i] + delta[i] * g[i])`` and shrinks its own
    delta by SHRINK until the candidate reaches the lane's quadratic model
    or the delta drops below MIN_STEP.  Every start delta is at least
    MIN_STEP, so the first try covers all lanes and seeds the result; later
    tries compute only the lanes still searching, whose inputs are gathered
    again, by index, only when a lane leaves.  Returns the accepted deltas,
    NaN for a lane that accepted nothing, and the new beams and their
    evaluations (unchanged for such a lane).
    """
    new_w, new_at, leave = _try_lanes(mm, rows, w, at.margin, g, slope,
                                      intercept, delta)
    accepted = np.where(leave, delta, np.nan)
    if leave.all():
        return accepted, new_w, new_at
    live, inputs = np.arange(len(w)), (rows, w, at.margin, g, slope, intercept)
    while True:
        delta = delta * SHRINK
        leave |= delta < MIN_STEP
        if np.count_nonzero(leave):
            stay = (~leave).nonzero()[0]
            if not stay.size:
                break
            live, delta = live[stay], delta[stay]
            inputs = [a.take(stay, axis=0) for a in inputs]
        cand, val, leave = _try_lanes(mm, *inputs, delta)
        if np.count_nonzero(leave):
            got = leave.nonzero()[0]
            hit = live[got]
            new_w[hit], accepted[hit] = cand.take(got, axis=0), delta[got]
            for kept, new in zip(new_at, val):
                kept[hit] = new.take(got, axis=0)
    failed = np.isnan(accepted).nonzero()[0]
    if failed.size:
        new_w[failed] = w.take(failed, axis=0)
        for kept, old in zip(new_at, at):
            kept[failed] = old.take(failed, axis=0)
    return accepted, new_w, new_at


def _beam_lanes(mm: MomentMatch, rows, w, slope, intercept, max_outer: int):
    """One probe of ``apga_solve`` in beam_only mode for every lane at once.

    Lane i ascends from w[i], renormalized, on its fixed rows (M+1, N) with
    its own slope and intercept, under ``ascend``'s policy: its own last
    accepted delta and run of first-try acceptances, which set its warm
    step, its own FISTA t, kept as the count of iterations since its start
    or restart that indexes ``_fista_weights``, and previous beam, which set
    its extrapolation and its restart, its relative stop, its stop once the
    margin cannot reach zero (``_out_of_reach`` at target 0, as
    ``apga_solve`` passes ``ascend``) and the max_outer cap.
    Each iteration first tries y = unit_norm(w_k + beta (w_k - w_{k-1})) in
    the lanes with a nonzero weight and keeps it where the margin strictly
    rises, then takes the gradient step.  A kept y is merged by writing the
    lanes that keep w_k into y's fresh arrays, and skipped where every lane
    or none keeps it.  A lane that stops leaves the working stack, gathered
    by index, so only active lanes are computed.  Returns the final beams,
    objectives and outage thresholds (of the final evaluations), the
    iteration counts and one record per iteration: the lanes it computed
    and their objective, accepted delta and kept beta, with NaN delta where
    no step was accepted and NaN beta where no extrapolation was kept.
    """
    w = unit_norm(w)
    at = _evaluate(mm, rows, w, slope, intercept)
    rows_conj = rows.conj()
    w_out, obj_out, thr_out = w.copy(), at.margin.copy(), at.thr.copy()
    n_iter = np.zeros(len(w), dtype=int)
    history = []
    lane, last = np.arange(len(w)), np.full(len(w), DELTA0)
    run = np.full(len(w), GROW_AFTER)
    # each lane's FISTA t is t_k, k iterations since its start or restart
    k, weights, w_prev = np.zeros(len(w), dtype=int), _fista_weights(8), w
    none_kept = np.full(len(w), np.nan)     # never written: sliced per record
    for it in range(1, max_outer + 1):
        start = at.margin
        if it > len(weights):
            weights = _fista_weights(2 * len(weights))
        beta, k = weights[k], k + 1
        w_last, w_prev = w_prev, w
        kept = none_kept[:len(lane)]
        if it > MOMENTUM_AFTER and np.count_nonzero(beta):
            # every lane is evaluated; one with a zero weight keeps its beam
            tried = beta != 0.0
            y = unit_norm(w + beta[:, None] * (w - w_last))
            y_at = _evaluate(mm, rows, y, slope, intercept)
            up = tried & (y_at.margin > at.margin)
            k[tried & ~up] = 1
            if ups := np.count_nonzero(up):
                if ups < len(up):
                    stay = ~up
                    np.copyto(beta, np.nan, where=stay)
                    np.copyto(y, w, where=stay[:, None])
                    for new, old in zip(y_at, at):
                        np.copyto(new, old, where=stay[:, None]
                                  if new.ndim > 1 else stay)
                kept, w, at = beta, y, y_at
        g = _grad_w(mm, rows_conj, at, slope, intercept)
        first = np.where(run >= GROW_AFTER, np.minimum(DELTA0, 2.0 * last),
                         last)
        delta, w, at = _line_search_lanes(mm, rows, w, at, g, slope,
                                          intercept, first)
        obj = at.margin
        missed = np.isnan(delta)
        run = np.where(delta == first, run + 1, np.where(missed, run, 0))
        last = np.where(missed, last, delta)
        history.append((lane, obj, delta, kept))
        stop = np.abs(obj - start) < OBJ_TOL * np.maximum(1.0, np.abs(obj))
        stop |= _out_of_reach(obj, start, it, max_outer, 0.0)
        if it == max_outer:
            stop[:] = True
        if np.count_nonzero(stop):
            done = stop.nonzero()[0]
            lanes = lane[done]
            w_out[lanes], obj_out[lanes] = w.take(done, axis=0), obj[done]
            thr_out[lanes] = at.thr[done]
            n_iter[lanes] = it
            go = (~stop).nonzero()[0]
            if not go.size:
                break
            (lane, rows, rows_conj, w, last, run, slope, intercept, k,
             w_prev) = (v.take(go, axis=0) for v in (
                 lane, rows, rows_conj, w, last, run, slope, intercept, k,
                 w_prev))
            at = _Evaluation._make(a.take(go, axis=0) for a in at)
    return w_out, obj_out, thr_out, n_iter, history


def _lane_trace(history, lane: int, n_iter: int) -> list[TraceRecord]:
    """The TraceRecords of lane ``lane`` in ``_beam_lanes``' history."""
    trace = []
    for it, (lanes, *values) in enumerate(history[:n_iter], 1):
        i = np.searchsorted(lanes, lane)    # the lanes are in order
        o, d, b = (float(v[i]) for v in values)
        trace.append(TraceRecord(it, None if math.isnan(d) else d, None, o,
                                 None if math.isnan(b) else b))
    return trace


def bisect_beam_lanes(cfg: SystemConfig, xs, table: LinearFitTable | None = None,
                      params: OptimizerParams | None = None,
                      ) -> list[BisectionResult]:
    """``bisection_outage_min`` in beam_only mode for every placement of the
    stack xs (B, N) at once.

    Result i equals ``bisection_outage_min(cfg, table, params, x0=xs[i],
    mode="beam_only")`` bit for bit.  ``_bisect`` runs one bisection per
    lane, and each probe round solves every still-bisecting lane at once
    with ``_beam_lanes``.  A stack that is not a finite real (B, N) array
    raises a one-line ``ValueError`` before any probe.
    """
    xs = check_vector("xs", xs, cfg.n_antennas, real=True, stack=True)
    params = params or OptimizerParams()
    mm = cfg.gain_model
    rows = mm.rows(xs)

    def solve(live, w, x, slope, intercept):
        beams, obj, thr, n_iter, history = _beam_lanes(
            mm, rows if len(live) == len(rows) else rows.take(live, axis=0), w,
            slope, intercept, params.max_outer)
        return beams, x, obj, thr, n_iter, lambda b, n: _lane_trace(
            history, int(np.searchsorted(live, b)), n)

    return _bisect(cfg, table, xs, solve)


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
    table: LinearFitTable | None = None,
) -> ToyResult:
    """Bisection framework for box-constrained gamma-CDF maximization.

    Maximizes P(shape_fn(v), threshold_fn(v)) over the box ``bounds`` by the
    same confidence bisection used for the outage problem.  The inner margin
    threshold_fn - slope * shape_fn - intercept is concave for the intended
    toys and is maximized by ``ascend`` from each point of a deterministic
    3^d grid of starts, with one block: a ``line_search`` along the
    margin's finite-difference gradient, clipped into the box.

    Returns the certified confidence level, the maximizing point, and the
    exact objective value there.
    """
    table = table or default_table()
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    starts = [lo + np.array(f) * (hi - lo)
              for f in itertools.product((0.15, 0.5, 0.85), repeat=len(bounds))]

    def ascend_from(margin, v):
        def block(obj, delta):
            nonlocal v
            g = _box_gradient(margin, v, lo, hi)
            found = line_search(lambda c: (margin(c), None), v, obj, g,
                                lambda c: np.clip(c, lo, hi), delta)
            if found is not None:
                _, v, obj, _ = found
            return obj, found

        obj = ascend(margin(v), OptimizerParams().max_outer, pos=block)[0]
        return v, obj

    def probe(live, nodes):
        nonlocal eps_star, v_star
        level = float(levels[nodes[0]])
        slope, intercept = surrogate_lookup(table, level)

        def margin(v):
            return threshold_fn(v) - slope * shape_fn(v) - intercept

        # max keeps the first of equal margins, so the first start wins ties
        v, best = max((ascend_from(margin, s) for s in starts),
                      key=lambda r: r[1])
        if best > 0.0 or eps_star == 0.0:   # or while none was feasible
            eps_star, v_star = level if best > 0.0 else 0.0, v
        return [best > 0.0]

    eps_star, v_star, levels = 0.0, None, _level_tree(table.max_eps)[0]
    bisect_confidence(probe, table.max_eps)
    value = float(lower_incomplete_gamma_reg(shape_fn(v_star),
                                             threshold_fn(v_star)))
    return ToyResult(eps=eps_star, point=np.asarray(v_star), value=value)


def write_trace(trace: list[TraceRecord], path) -> None:
    """Plain-text iteration trace, one line per record with every
    ``TraceRecord`` field in order (iteration, delta_beam, delta_pos,
    objective, beta); numbers by ``repr``, a None as ``-``."""
    names = [f.name for f in fields(TraceRecord)]
    lines = ["# " + " ".join(names)]
    for rec in trace:
        lines.append(" ".join("-" if v is None else repr(v)
                              for v in (getattr(rec, n) for n in names)))
    Path(path).write_text("\n".join(lines) + "\n")

"""First-order steppers and the instrumented run loop.

Every variational-inequality method is one projected step of the
five-parameter extra-point rule

    half = z + beta (z - z_prev) - eta F(z)            [projected if restricted]
    next = P( z - alpha F(half) + gamma (z - z_prev) - tau (F(z) - F(z_prev)) )

and the classical methods are parameter masks of it, applied once by run():
vanilla projection keeps alpha only, extra-gradient (alpha, eta),
past-gradient/optimistic steps (alpha, tau), heavy-ball (alpha, gamma), and
the accelerated extrapolation method (alpha, beta) with gamma := beta and a
half point that is never projected. The stepper (vi_stepper, bound once per
run) skips every term whose coefficient is zero, so each mask performs
exactly its method's arithmetic.

The optimization scheme keeps two sequences (x, v) and nine coefficients;
see opt_stepper.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from time import perf_counter_ns
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (MonotoneProblem, SmoothObjective, as_vector,
                   bind_objective_merits, bind_vi_merits, norm2)
from .harness import (DIVERGENCE_NORM, TRACE_FIELDS, DivergenceError,
                      IterateTrace)

# The coefficients each named VI method keeps; run() zeroes the others.
VI_MASKS = {
    "vanilla": ("alpha",),
    "extra-gradient": ("alpha", "eta"),
    "ogda": ("alpha", "tau"),
    "heavy-ball": ("alpha", "gamma"),
    "nesterov": ("alpha", "beta"),
    "extra-point": ("alpha", "beta", "gamma", "eta", "tau"),
}
VI_METHODS = tuple(VI_MASKS)
OPT_METHODS = ("opt-extra-point",)
METHODS = VI_METHODS + OPT_METHODS

Y_RULES = ("p", "grad-step")

# Builds a state tuple without the NamedTuple's Python-level __new__: the
# same object at half the cost, for the steppers' hot path.
_new_state = tuple.__new__


def _finite_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class ViParams:
    """Step coefficients (alpha, beta, gamma, eta, tau), all nonnegative.

    alpha scales the operator at the half point, eta the operator in the
    half-point build, beta and gamma the two momentum terms, tau the
    operator-difference correction.
    """

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0
    eta: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "eta", "tau"):
            object.__setattr__(self, name, _finite_nonneg(name, getattr(self, name)))


@dataclass(frozen=True)
class OptParams:
    """Coefficients for the two-sequence minimization scheme.

    t holds the nine step coefficients t1..t9; theta is the intended
    potential contraction amount, c the distance weight in the potential.
    Construction checks only signs and finiteness; the consistency ties
    between the fields are the certifier's job.
    """

    t: tuple
    theta: float
    c: float

    def __post_init__(self):
        t = tuple(float(v) for v in self.t)
        if len(t) != 9:
            raise ValueError("t must hold exactly nine coefficients")
        for i, v in enumerate(t, start=1):
            _finite_nonneg(f"t{i}", v)
        object.__setattr__(self, "t", t)
        th = float(self.theta)
        if not (math.isfinite(th) and 0.0 < th <= 1.0):
            raise ValueError("theta must lie in (0, 1]")
        object.__setattr__(self, "theta", th)
        c = float(self.c)
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError("c must be positive and finite")
        object.__setattr__(self, "c", c)


class ViState(NamedTuple):
    """Two-point history with cached operator values (never stale); a
    step's half point lives in that step only."""

    z_curr: np.ndarray
    z_prev: np.ndarray
    f_curr: np.ndarray
    f_prev: np.ndarray


class OptState(NamedTuple):
    """Primary sequence x and auxiliary sequence v of the opt scheme, with
    f and grad f cached at x_curr (never stale)."""

    x_curr: np.ndarray
    v_curr: np.ndarray
    f_curr: float
    g_curr: np.ndarray


def vi_state(problem: MonotoneProblem, z0) -> ViState:
    """Initial state with the standard two-history start z_prev = z_curr."""
    z0 = as_vector(z0, problem.dimension)
    f0 = problem.operator(z0)
    return ViState(z_curr=z0, z_prev=z0.copy(), f_curr=f0, f_prev=f0.copy())


def opt_state(objective: SmoothObjective, x0) -> OptState:
    """Initial state x_curr = v_curr = x0, with f and grad f at x0."""
    x0 = as_vector(x0, objective.dimension)
    return OptState(x0, x0.copy(), *objective.value_and_gradient(x0))


def vi_stepper(problem: MonotoneProblem, params: ViParams,
               restricted: bool = False) -> Callable:
    """One step of the general five-parameter rule, bound to a problem and
    its coefficients: returns ``step(state) -> ViState``.

    The operator and projection are looked up once (the whole space's
    identity projection is never called), and each nonzero
    coefficient c is held as the vector np.full(n, c): numpy applies it as
    the same IEEE operation as the float c, at less dispatch cost. Terms
    whose coefficient is zero are skipped; with eta = beta = 0 the half
    point is the current iterate and its cached operator value is reused.
    That makes the named specializations reproduce bit for bit; with
    beta == gamma (nesterov, the paper defaults) beta (z - z_prev) is
    formed once and serves both points. Building an unprojected half
    point on a domain-restricted problem raises ValueError here, before
    any step.

    restricted projects the half point (the whole space ignores it). No
    input array is written; a step's only fresh arrays are the next point
    and its operator value, and the returned state carries the others over
    from its input. The intermediates, the half point among them, live in
    scratch vectors allocated here, written with ufunc out arguments; the
    operation that finishes the next point allocates, unless a projection
    follows that returns a new array. A bound stepper is therefore not
    reentrant: one run, one thread. The returned function's ``calls`` maps
    "operator" and "project" to the calls one step makes.
    """
    n = problem.dimension
    al = np.full(n, params.alpha)
    be, ga, eta, ta = (None if c == 0.0 else np.full(n, c) for c in
                       (params.beta, params.gamma, params.eta, params.tau))
    half_point = be is not None or eta is not None
    if half_point and problem.domain_restricted and not restricted:
        raise ValueError("domain-restricted problems need the projected "
                         "half point")
    momentum = be is not None or ga is not None
    shared = be is not None and params.gamma == params.beta
    fset = problem.feasible_set
    identity = fset.unbounded_whole_space
    project_half = half_point and restricted and not identity
    operator, project = problem.operator, fset.project
    add, subtract, multiply = np.add, np.subtract, np.multiply
    s_dz, s_bdz, s_t, s_half, s_nxt = (np.empty(n) for _ in range(5))
    # The next point's last operation allocates unless a projection follows;
    # a set that hands back the point itself is caught after projecting it.
    nxt_out = None if identity else s_nxt
    alpha_out = s_nxt if ga is not None or ta is not None else nxt_out
    gamma_out = s_nxt if ta is not None else nxt_out

    def step(state: ViState) -> ViState:
        zc, fc = state.z_curr, state.f_curr
        if momentum:
            dz = subtract(zc, state.z_prev, s_dz)
            if be is not None:
                bdz = multiply(be, dz, s_bdz)
        if half_point:
            half = zc if be is None else add(zc, bdz, s_half)
            if eta is not None:
                half = subtract(half, multiply(eta, fc, s_t), s_half)
            f_half = operator(project(half) if project_half else half)
        else:
            f_half = fc
        nxt = subtract(zc, multiply(al, f_half, s_t), alpha_out)
        if ga is not None:
            nxt = add(nxt, bdz if shared else multiply(ga, dz, s_t),
                      gamma_out)
        if ta is not None:
            nxt = subtract(nxt, multiply(ta, subtract(fc, state.f_prev, s_t),
                                         s_t), nxt_out)
        if not identity:
            nxt = project(nxt)
            if nxt is s_nxt:
                nxt = nxt.copy()
        return _new_state(ViState, (nxt, zc, operator(nxt), fc))

    step.calls = {"operator": 1 + half_point,
                  "project": (not identity) + project_half}
    return step


def opt_stepper(objective: SmoothObjective, params: OptParams,
                y_rule: str = "p") -> Callable:
    """One step of the nine-coefficient two-sequence minimization scheme,
    bound to an objective and its coefficients: returns
    ``step(state) -> OptState``.

    p mixes the sequences with (t1, t2); y is either p itself or one
    gradient step from p (y_rule "p" or "grad-step", checked here once); z
    takes a t3-scaled gradient step from y; the new x combines gradients
    at z and y with the t4..t6 weights; the new v is the (t7, t8, t9)
    convex-plus-gradient update. One fused value_and_gradient call fills
    the new state's cache. The coefficients, L and t3/L, t4/L, t5/L are
    held as length-n vectors (see vi_stepper). p, y, z and the terms of
    the x and v updates live in scratch vectors allocated here, and only
    the operations that finish the new x and v allocate, so every array a
    step returns is fresh and no input array is written; a bound stepper
    is not reentrant: one run, one thread. The returned function's
    ``calls`` maps "gradient" and "value_and_gradient" to the calls one
    step makes.

    The two y-rules do not certify alike. With y = p, the rule run() uses,
    the paper-default certificate fails at step 0 on
    gen_quadratic(12, 2, 1e-2) from x0 = v0 = 1: the potential
    f(x) - f* + c ||v - x*||^2 shrinks by 0.972 against the certified rate
    0.9. "grad-step" keeps every ratio of the first 30 steps from that
    start at or below 0.819.
    """
    if y_rule not in Y_RULES:
        raise ValueError(f"y_rule must be one of {Y_RULES}")
    grad_step = y_rule == "grad-step"
    n, L = objective.dimension, objective.lip
    t1, t2, _, _, _, t6, t7, t8, t9 = (np.full(n, c) for c in params.t)
    t3_l, t4_l, t5_l = (np.full(n, c / L) for c in params.t[2:5])
    lip = np.full(n, L)
    gradient, fused = objective.gradient, objective.value_and_gradient
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, \
        np.divide
    s_a, s_b, s_p, s_y, s_z, s_x = (np.empty(n) for _ in range(6))

    def step(state: OptState) -> OptState:
        x, v = state.x_curr, state.v_curr
        p = add(multiply(t1, x, s_a), multiply(t2, v, s_b), s_p)
        y = subtract(p, divide(gradient(p), lip, s_a), s_y) if grad_step \
            else p
        gy = gradient(y)
        z = subtract(y, multiply(t3_l, gy, s_a), s_z)
        gz = gradient(z)
        # x_new = y - t4_l gz - t5_l (gz - gy) + t6 (z - y)
        x_new = subtract(y, multiply(t4_l, gz, s_a), s_x)
        x_new = subtract(x_new, multiply(t5_l, subtract(gz, gy, s_a), s_a),
                         s_x)
        x_new = add(x_new, multiply(t6, subtract(z, y, s_a), s_a))
        # v_new = t7 v + t8 y - t9 gy
        v_new = add(multiply(t7, v, s_a), multiply(t8, y, s_b), s_a)
        v_new = subtract(v_new, multiply(t9, gy, s_b))
        fx, gx = fused(x_new)
        return _new_state(OptState, (x_new, v_new, fx, gx))

    step.calls = {"gradient": 2 + grad_step, "value_and_gradient": 1}
    return step


@dataclass(frozen=True)
class StopRule:
    """Loop control: hard iteration cap plus optional residual tolerance.

    residual_tol > 0 stops once the natural residual (or gradient norm for
    objectives) falls to the tolerance; 0 runs to max_iter.
    """

    max_iter: int
    residual_tol: float = 0.0

    def __post_init__(self):
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if not (math.isfinite(self.residual_tol) and self.residual_tol >= 0.0):
            raise ValueError("residual_tol must be nonnegative and finite")


def _masked(method: str, params: ViParams) -> tuple:
    """A named VI method's setting: vi_stepper's (params, restricted)."""
    kept = {name: getattr(params, name) for name in VI_MASKS[method]}
    if method == "nesterov":  # gamma := beta; its half point is unprojected
        return ViParams(**kept, gamma=params.beta), False
    return ViParams(**kept), True


def check_run(target, method: str, params, start, stop: StopRule,
              potential: Optional[Callable] = None) -> Callable:
    """run's preconditions, checked before any step: a known method, a
    target and params of its classes, a StopRule, a callable or None
    potential, a feasible start, eta > 0 for extra-gradient, and a stepper
    that binds (binding calls no oracle). Returns run(*args) as a
    zero-argument callable, bound with that one stepper."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    opt = method in OPT_METHODS
    expected, kind = (SmoothObjective, OptParams) if opt else (MonotoneProblem, ViParams)
    if not isinstance(target, expected):
        raise ValueError(f"{method} expects a {expected.__name__}")
    if not isinstance(params, kind):
        raise ValueError(f"{method} takes {kind.__name__}, not {type(params).__name__}")
    if not isinstance(stop, StopRule):
        raise ValueError(f"stop must be a StopRule, not {type(stop).__name__}")
    if not (potential is None or callable(potential)):
        raise ValueError("potential must be callable or None")
    z0 = as_vector(start, target.dimension)
    if opt:
        step = opt_stepper(target, params, "p")
    elif not target.feasible_set.contains(z0, tol=1e-12 * (1.0 + norm2(z0))):
        raise ValueError("start point is not feasible")
    elif method == "extra-gradient" and params.eta <= 0.0:
        raise ValueError("extra-gradient needs a positive half-step eta")
    else:
        step = vi_stepper(target, *_masked(method, params))
    return partial(_run, target, method, z0, step, stop, potential)


def run(target, method: str, params, start, stop: StopRule,
        potential: Optional[Callable] = None) -> IterateTrace:
    """Drive one method and record a full per-iteration trace.

    target is a MonotoneProblem for the operator methods or a
    SmoothObjective for "opt-extra-point". Operator methods step with the
    vi_stepper their setting binds (_masked); every half point but
    nesterov's is projected on constrained or domain-restricted problems.
    Divergent iterates (norm non-finite or beyond DIVERGENCE_NORM) raise
    DivergenceError carrying the partial trace; check_run's preconditions
    raise ValueError before the first step.

    run(*args) is check_run(*args)(). Every iteration is recorded; thinning
    is an export concern. The stepper and the merits are bound once, before
    the first step, and trace.meta["oracle_calls"] counts the oracle calls
    the run made ("operator" and "project", or "gradient" and
    "value_and_gradient"), worked out from the bound stepper's per-step
    calls, a divergent partial trace included. The distance to the reference
    point is formed in a scratch vector of the run; like the stepper's and
    the merits' scratch, it never reaches a state the potential or the trace
    sees.
    """
    return check_run(target, method, params, start, stop, potential)()


def _run(target, method, z0, step, stop, potential) -> IterateTrace:
    opt = method in OPT_METHODS
    trace = IterateTrace(method=method, meta={
        "mu": target.mu, "lip": target.lip, "sigma": target.sigma,
        "seed": target.seed})
    if opt:
        trace.meta["f_star"] = target.optimal_value
        reference = target.minimizer
        merits = bind_objective_merits(target)
        start_calls = {"value_and_gradient": 1}  # opt_state's fused call
    else:
        reference = target.solution
        merits = bind_vi_merits(target)
        # vi_state's F(z0) and check_run's feasibility projection
        start_calls = {"operator": 1, "project": 1}
    add_k, add_primary, add_aux, add_dsq, add_pot, add_ns = (
        trace.column(name).append for name in TRACE_FIELDS)
    # a zero tolerance never stops a run, not even at a zero residual
    tol = stop.residual_tol if stop.residual_tol > 0.0 else -math.inf
    stop_merit = 0 if opt else 1  # the gradient norm or the natural residual

    def record_calls(steps: int) -> None:
        rows = len(trace.column("k"))
        trace.meta["oracle_calls"] = {
            name: start_calls.get(name, 0) + step.calls.get(name, 0) * steps
            + merits.calls.get(name, 0) * rows
            for name in (*start_calls, *step.calls, *merits.calls)}

    # Within DIVERGENCE_NORM / 2 - ||z*|| of z*, z is finite and, by the
    # triangle inequality, well inside the divergence guard, so the guard
    # skips its own norm; near = 0 keeps the guard whole.
    near, dsq = 0.0, None
    if reference is not None:
        d, subtract = np.empty(target.dimension), np.subtract
        ref_norm = norm2(reference)
        if ref_norm < DIVERGENCE_NORM / 4:
            near = (DIVERGENCE_NORM / 2 - ref_norm) ** 2
    # an overflow or nan in the arithmetic is no numpy warning: one in the
    # iterate fails the guard below (DivergenceError); one in a merit or
    # the potential of an iterate within the guard is recorded as it comes
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = perf_counter_ns()
        state = opt_state(target, z0) if opt else vi_state(target, z0)
        z = state[0]  # the iterate: z_curr or x_curr
        for k in range(stop.max_iter + 1):
            if k:
                state = step(state)
                z = state[0]
            if reference is not None:
                dsq = float(subtract(z, reference, d).dot(d))
            # a non-finite entry makes a norm nan or inf, which fails its
            # test; a finite v.v means a finite v
            if k and ((not (near and dsq <= near)
                       and not math.sqrt(z.dot(z)) <= DIVERGENCE_NORM)
                      or opt and not (
                          math.isfinite(state.v_curr.dot(state.v_curr))
                          or np.isfinite(state.v_curr).all())):
                trace.terminated_by = "divergence"
                trace.final_point = z
                record_calls(k)
                raise DivergenceError(trace)
            pair = merits(state.f_curr, state.g_curr) if opt \
                else merits(z, state.f_curr)
            add_k(k)
            add_primary(pair[0])
            add_aux(pair[1])
            add_dsq(dsq)
            add_pot(None if potential is None else float(potential(state)))
            add_ns(perf_counter_ns() - t0)
            if pair[stop_merit] <= tol:
                trace.terminated_by = "tolerance"
                break
    record_calls(trace.iterations)
    trace.final_point = z
    return trace

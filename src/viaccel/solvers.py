"""First-order steppers and the instrumented run loop.

Every variational-inequality method is one projected step of the
five-parameter extra-point rule

    half = z + beta (z - z_prev) - eta F(z)            [projected if restricted]
    next = P( z - alpha F(half) + gamma (z - z_prev) - tau (F(z) - F(z_prev)) )

and the classical methods are parameter masks of it, applied once by run():
vanilla projection keeps alpha only, extra-gradient (alpha, eta),
past-gradient/optimistic steps (alpha, tau), heavy-ball (alpha, gamma), and
the accelerated extrapolation method (alpha, beta) with gamma := beta and a
half point that is never projected. The stepper skips every term whose
coefficient is zero, so each mask performs exactly its method's arithmetic.

The optimization scheme keeps two sequences (x, v) and nine coefficients;
see step_opt_extra_point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (MonotoneProblem, SmoothObjective, as_vector, norm2,
                   objective_merits, vi_merits)
from .harness import (DIVERGENCE_NORM, TRACE_FIELDS, DivergenceError,
                      IterateTrace, now_ns)

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
    """Two-point history with cached operator values (never stale)."""

    z_curr: np.ndarray
    z_prev: np.ndarray
    f_curr: np.ndarray
    f_prev: np.ndarray
    z_half: Optional[np.ndarray] = None


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


def step_extra_point(problem: MonotoneProblem, state: ViState,
                     params: ViParams, restricted: bool = False) -> ViState:
    """One step of the general five-parameter rule.

    Terms whose coefficient is zero are skipped; with eta = beta = 0 the
    half point is the current iterate and its cached operator value is
    reused. That makes the named specializations reproduce bit for bit.
    Building an unprojected half point on a domain-restricted problem
    raises ValueError.

    No input array is written: every array the step computes is fresh,
    and the returned state carries the others over from ``state``.
    """
    al, be, ga, eta, ta = params.alpha, params.beta, params.gamma, params.eta, params.tau
    zc, zp, fc = state.z_curr, state.z_prev, state.f_curr
    operator, project = problem.operator, problem.feasible_set.project
    dz = zc - zp if be != 0.0 or ga != 0.0 else None
    if eta == 0.0 and be == 0.0:
        half, f_half = zc, fc
    else:
        if problem.domain_restricted and not restricted:
            raise ValueError("domain-restricted problems need the projected "
                             "half point")
        half = zc
        if be != 0.0:
            half = half + be * dz
        if eta != 0.0:
            half = half - eta * fc
        if restricted:
            half = project(half)
        f_half = operator(half)
    step = zc - al * f_half
    if ga != 0.0:
        step = step + ga * dz
    if ta != 0.0:
        step = step - ta * (fc - state.f_prev)
    z_new = project(step)
    return ViState(z_new, zc, operator(z_new), fc, half)


def step_opt_extra_point(objective: SmoothObjective, state: OptState,
                         params: OptParams, y_rule: str = "p") -> OptState:
    """One step of the nine-coefficient two-sequence minimization scheme.

    p mixes the sequences with (t1, t2); y is either p itself or one
    gradient step from p (y_rule "p" or "grad-step"); z takes a t3-scaled
    gradient step from y; the new x combines gradients at z and y with the
    t4..t6 weights; the new v is the (t7, t8, t9) convex-plus-gradient
    update. One fused value_and_gradient call fills the new state's cache.

    The two y-rules do not certify alike. With y = p, the rule run() uses,
    the paper-default certificate fails at step 0 on
    gen_quadratic(12, 2, 1e-2) from x0 = v0 = 1: the potential
    f(x) - f* + c ||v - x*||^2 shrinks by 0.972 against the certified rate
    0.9. "grad-step" keeps every ratio of the first 30 steps from that
    start at or below 0.819.
    """
    if y_rule not in Y_RULES:
        raise ValueError(f"y_rule must be one of {Y_RULES}")
    t1, t2, t3, t4, t5, t6, t7, t8, t9 = params.t
    L = objective.lip
    x, v = state.x_curr, state.v_curr

    p = t1 * x + t2 * v
    if y_rule == "p":
        y = p
    else:
        y = p - objective.gradient(p) / L
    gy = objective.gradient(y)
    z = y - (t3 / L) * gy
    gz = objective.gradient(z)
    x_new = y - (t4 / L) * gz - (t5 / L) * (gz - gy) + t6 * (z - y)
    v_new = t7 * v + t8 * y - t9 * gy
    return OptState(x_new, v_new, *objective.value_and_gradient(x_new))


@dataclass(frozen=True)
class StopRule:
    """Loop control: hard iteration cap plus optional residual tolerance.

    residual_tol > 0 stops once the natural residual (or gradient norm for
    objectives) falls to the tolerance; 0 runs to max_iter.
    """

    max_iter: int
    residual_tol: float = 0.0

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if not (math.isfinite(self.residual_tol) and self.residual_tol >= 0.0):
            raise ValueError("residual_tol must be nonnegative and finite")


def _masked(method: str, params: ViParams) -> ViParams:
    kept = {name: getattr(params, name) for name in VI_MASKS[method]}
    if method == "nesterov":
        kept["gamma"] = params.beta
    return ViParams(**kept)


def check_run(target, method: str, params, start) -> np.ndarray:
    """run's preconditions, checked before any step; returns the start as a
    vector. Beyond a known method, a target of its class and a feasible
    start: extra-gradient needs eta > 0, and nesterov, whose half point is
    never projected, beta = 0 on a domain-restricted problem."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    expected = SmoothObjective if method in OPT_METHODS else MonotoneProblem
    if not isinstance(target, expected):
        raise ValueError(f"{method} expects a {expected.__name__}")
    z0 = as_vector(start, target.dimension)
    if expected is MonotoneProblem:
        if not target.feasible_set.contains(z0, tol=1e-12 * (1.0 + norm2(z0))):
            raise ValueError("start point is not feasible")
        if method == "extra-gradient" and params.eta <= 0.0:
            raise ValueError("extra-gradient needs a positive half-step eta")
        if method == "nesterov" and params.beta != 0.0 and \
                target.domain_restricted:
            raise ValueError("domain-restricted problems need the projected "
                             "half point")
    return z0


def run(target, method: str, params, start, stop: StopRule,
        potential: Optional[Callable] = None) -> IterateTrace:
    """Drive one method and record a full per-iteration trace.

    target is a MonotoneProblem for the operator methods or a
    SmoothObjective for "opt-extra-point". Operator methods step with their
    parameter mask of step_extra_point; the half point is projected on
    constrained or domain-restricted problems, except for "nesterov", whose
    half point never is (so a nonzero beta refuses domain-restricted ones).
    Divergent iterates (norm non-finite or beyond DIVERGENCE_NORM) raise
    DivergenceError carrying the partial trace; check_run's preconditions
    raise ValueError before the first step.

    Every iteration is recorded; thinning is an export concern.
    """
    z0 = check_run(target, method, params, start)
    opt = method in OPT_METHODS
    trace = IterateTrace(kind=target.kind, method=method, params=params,
                         meta={"mu": target.mu, "lip": target.lip,
                               "sigma": target.sigma, "seed": target.seed})
    if opt:
        trace.meta["f_star"] = target.optimal_value
        reference, step, variant = target.minimizer, step_opt_extra_point, "p"
        stop_merit = 0  # the gradient norm
    else:
        restricted = trace.meta["restricted"] = target.domain_restricted \
            or not target.feasible_set.unbounded_whole_space
        reference, step, params = target.solution, step_extra_point, \
            _masked(method, params)
        variant = restricted and method != "nesterov"
        stop_merit = 1  # the natural residual
    add_k, add_primary, add_aux, add_dsq, add_pot, add_ns = (
        trace.column(name).append for name in TRACE_FIELDS)
    # a zero tolerance never stops a run, not even at a zero residual
    tol = stop.residual_tol if stop.residual_tol > 0.0 else -math.inf

    t0 = now_ns()
    state = opt_state(target, z0) if opt else vi_state(target, z0)
    z = state[0]  # the iterate: z_curr or x_curr
    for k in range(stop.max_iter + 1):
        if k:
            # variant: opt's y-rule, or whether the VI half point is projected
            state = step(target, state, params, variant)
            z = state[0]
            # a non-finite entry makes the norm nan or inf, which fails the test
            if not math.sqrt(z.dot(z)) <= DIVERGENCE_NORM or \
                    (opt and not np.isfinite(state.v_curr).all()):
                trace.terminated_by = "divergence"
                trace.final_point = z
                raise DivergenceError(trace)
        pair = objective_merits(target, state.f_curr, state.g_curr) if opt \
            else vi_merits(target, z, state.f_curr)
        add_k(k)
        add_primary(pair[0])
        add_aux(pair[1])
        if reference is None:
            add_dsq(None)
        else:
            d = z - reference
            add_dsq(float(d.dot(d)))
        add_pot(None if potential is None else float(potential(state)))
        add_ns(now_ns() - t0)
        res = pair[stop_merit]
        if res <= tol:
            trace.terminated_by = "tolerance"
            break
    trace.final_point = z
    return trace

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
from functools import partial
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .core import (MonotoneProblem, SmoothObjective, as_vector, norm2,
                   vi_merits)
from .harness import (DIVERGENCE_NORM, DivergenceError, IterateTrace,
                      TraceRecord, now_ns)

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
    potential contraction amount, c the distance weight in the potential,
    delta the inner gradient-step length. Construction checks only signs
    and finiteness; the consistency ties between the fields are the
    certifier's job.
    """

    t: tuple
    theta: float
    c: float
    delta: float

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
        d = float(self.delta)
        if not (math.isfinite(d) and 0.0 < d < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        object.__setattr__(self, "delta", d)


@dataclass(frozen=True)
class ViState:
    """Two-point history with cached operator values (never stale)."""

    z_curr: np.ndarray
    z_prev: np.ndarray
    f_curr: np.ndarray
    f_prev: np.ndarray
    z_half: Optional[np.ndarray] = None


@dataclass(frozen=True)
class OptState:
    """Primary sequence x and auxiliary sequence v of the opt scheme."""

    x_curr: np.ndarray
    v_curr: np.ndarray


def vi_state(problem: MonotoneProblem, z0) -> ViState:
    """Initial state with the standard two-history start z_prev = z_curr."""
    z0 = as_vector(z0, problem.dimension)
    f0 = problem.operator(z0)
    return ViState(z_curr=z0, z_prev=z0.copy(), f_curr=f0, f_prev=f0.copy())


def step_extra_point(problem: MonotoneProblem, state: ViState,
                     params: ViParams, restricted: bool = False) -> ViState:
    """One step of the general five-parameter rule.

    Terms whose coefficient is zero are skipped; with eta = beta = 0 the
    half point is the current iterate and its cached operator value is
    reused. That makes the named specializations reproduce bit for bit.
    Building an unprojected half point on a domain-restricted problem
    raises ValueError.
    """
    al, be, ga, eta, ta = params.alpha, params.beta, params.gamma, params.eta, params.tau
    zc, zp, fc = state.z_curr, state.z_prev, state.f_curr
    if eta == 0.0 and be == 0.0:
        half, f_half = zc, fc
    else:
        if problem.domain_restricted and not restricted:
            raise ValueError("domain-restricted problems need the projected "
                             "half point")
        half = zc
        if be != 0.0:
            half = half + be * (zc - zp)
        if eta != 0.0:
            half = half - eta * fc
        if restricted:
            half = problem.feasible_set.project(half)
        f_half = problem.operator(half)
    step = zc - al * f_half
    if ga != 0.0:
        step = step + ga * (zc - zp)
    if ta != 0.0:
        step = step - ta * (fc - state.f_prev)
    z_new = problem.feasible_set.project(step)
    return ViState(z_curr=z_new, z_prev=zc, f_curr=problem.operator(z_new),
                   f_prev=fc, z_half=half)


def step_opt_extra_point(objective: SmoothObjective, state: OptState,
                         params: OptParams, y_rule: str = "p") -> OptState:
    """One step of the nine-coefficient two-sequence minimization scheme.

    p mixes the sequences with (t1, t2); y is either p itself or one
    gradient step from p (y_rule "p" or "grad-step"; both keep the anchor
    alignment the analysis needs); z takes a t3-scaled gradient step from y;
    the new x combines gradients at z and y with the t4..t6 weights; the new
    v is the (t7, t8, t9) convex-plus-gradient update.
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
    return OptState(x_curr=x_new, v_curr=v_new)


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


def run(target, method: str, params, start, stop: StopRule,
        potential: Optional[Callable] = None) -> IterateTrace:
    """Drive one method and record a full per-iteration trace.

    target is a MonotoneProblem for the operator methods or a
    SmoothObjective for "opt-extra-point". Operator methods step with their
    parameter mask of step_extra_point; the half point is projected on
    constrained or domain-restricted problems, except for "nesterov", whose
    half point never is (it therefore refuses domain-restricted problems).
    Divergent iterates (norm non-finite or beyond DIVERGENCE_NORM) raise
    DivergenceError carrying the partial trace.

    Records are kept for every iteration; thinning is an export concern.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    opt = method in OPT_METHODS
    expected = SmoothObjective if opt else MonotoneProblem
    if not isinstance(target, expected):
        raise ValueError(f"{method} expects a {expected.__name__}")
    z0 = as_vector(start, target.dimension)
    trace = IterateTrace(kind=target.kind, method=method, params=params,
                         meta={"mu": target.mu, "lip": target.lip,
                               "sigma": target.sigma, "seed": target.seed})
    if opt:
        f_star = trace.meta["f_star"] = target.optimal_value
        reference, point = target.minimizer, attrgetter("x_curr")
        step = partial(step_opt_extra_point, target, params=params, y_rule="p")

        def merits(s: OptState) -> tuple:
            gn = norm2(target.gradient(s.x_curr))
            gap = None if f_star is None else float(target.value(s.x_curr) - f_star)
            return gn, gap, gn
    else:
        fset = target.feasible_set
        if not fset.contains(z0, tol=1e-12 * (1.0 + float(np.linalg.norm(z0)))):
            raise ValueError("start point is not feasible")
        if method == "extra-gradient" and params.eta <= 0.0:
            raise ValueError("extra-gradient needs a positive half-step eta")
        restricted = trace.meta["restricted"] = \
            target.domain_restricted or not fset.unbounded_whole_space
        reference, point = target.solution, attrgetter("z_curr")
        step = partial(step_extra_point, target, params=_masked(method, params),
                       restricted=restricted and method != "nesterov")

        def merits(s: ViState) -> tuple:
            prim, res = vi_merits(target, s.z_curr, s.f_curr)
            return prim, res, res

    t0 = now_ns()
    state = OptState(x_curr=z0, v_curr=z0.copy()) if opt else vi_state(target, z0)

    def record(k: int, state) -> float:
        prim, aux, res = merits(state)
        dsq = None
        if reference is not None:
            d = point(state) - reference
            dsq = float(d @ d)
        pot = float(potential(state)) if potential is not None else None
        trace.records.append(TraceRecord(k=k, merit_primary=prim,
                                         merit_aux=aux, dist_sq=dsq,
                                         potential=pot,
                                         elapsed_ns=now_ns() - t0))
        return res

    tol = stop.residual_tol
    res = record(0, state)
    for k in range(1, stop.max_iter + 1):
        if tol > 0.0 and res <= tol:
            break
        state = step(state)
        # a non-finite entry makes the norm nan or inf, which fails the test
        if not norm2(point(state)) <= DIVERGENCE_NORM or \
                (opt and not np.all(np.isfinite(state.v_curr))):
            trace.terminated_by = "divergence"
            trace.final_point = point(state)
            raise DivergenceError(trace)
        res = record(k, state)
    if tol > 0.0 and res <= tol:
        trace.terminated_by = "tolerance"
    trace.final_point = point(state)
    return trace

"""Run instrumentation and independent numerical oracles.

This module owns the trace data model (per-iteration merits, distances,
potentials, timings), the contraction checker that compares measured decay
against a certificate, the plain-text trace exports, and the oracles used to
cross-examine analytic constants: central finite differences and power
iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (MonotoneProblem, SmoothObjective, as_vector, format_float,
                   norm2, vi_merits)

# Iterates whose norm passes this guard terminate a run as divergent.
DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class TraceRecord:
    k: int
    merit_primary: float
    merit_aux: Optional[float]
    dist_sq: Optional[float]
    potential: Optional[float]
    elapsed_ns: int


@dataclass
class IterateTrace:
    """Per-iteration record of one solver run.

    records[i].k counts iterations (k = 0 is the start point). dist_sq and
    potential are present only when the problem carries a known solution.
    terminated_by is one of "tolerance", "max-iter", "divergence".
    meta carries the problem constants needed by downstream checks
    (mu, lip, sigma, and f_star when known). Iterates are deterministic for
    identical inputs; elapsed_ns is wall-clock and is not.
    """

    kind: str
    method: str
    params: object
    records: list = field(default_factory=list)
    terminated_by: str = "max-iter"
    final_point: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.records[-1].k if self.records else 0

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]


class DivergenceError(RuntimeError):
    """Raised when iterates blow up; carries the trace accumulated so far."""

    def __init__(self, trace: IterateTrace):
        super().__init__(
            f"{trace.method} diverged at iteration {trace.iterations}"
        )
        self.trace = trace


def merit(target, z) -> tuple:
    """Merit pair (primary, aux) for a point.

    Monotone problems on the whole space report (||F(z)||, natural residual);
    the two coincide there. Constrained problems report (|z . F(z)|, natural
    residual). Objectives report (||grad f(x)||, f(x) - f*) with the second
    entry None when no optimal value is known.
    """
    if isinstance(target, SmoothObjective):
        x = as_vector(z, target.dimension)
        gn = float(np.linalg.norm(target.gradient(x)))
        gap = None
        if target.optimal_value is not None:
            gap = float(target.value(x) - target.optimal_value)
        return gn, gap
    return vi_merits(target, as_vector(z, target.dimension))


# ---------------------------------------------------------------------------
# potential factories (callables on solver states)

def vi_distance_potential(problem: MonotoneProblem, theta: float) -> Callable:
    """Two-term distance potential ||z-z*||^2 + theta ||z_prev-z*||^2."""
    zs = problem.solution
    if zs is None:
        raise ValueError("potential needs a problem with a known solution")

    def phi(state) -> float:
        d1 = state.z_curr - zs
        d0 = state.z_prev - zs
        return float(d1 @ d1 + theta * (d0 @ d0))

    return phi


def ogda_potential(problem: MonotoneProblem) -> Callable:
    """Decreasing potential for the past-gradient method at its named step.

    With sigma = mu / L the potential

        V = ||z-z*||^2 + (z-z*) . (F(z_prev) - F(z)) / (L (1+sigma))
            + (1+2 sigma) / (2 (1+sigma)^2) ||z - z_prev||^2

    satisfies (1+sigma) V_{k+1} <= V_k and V >= ||z-z*||^2 / 2, which yields
    the distance bound ||z^k-z*||^2 <= 2 (1+sigma)^{-k} ||z^0-z*||^2.
    """
    zs = problem.solution
    if zs is None:
        raise ValueError("potential needs a problem with a known solution")
    L = problem.lip
    sg = problem.sigma
    c1 = 1.0 / (L * (1.0 + sg))
    c2 = (1.0 + 2.0 * sg) / (2.0 * (1.0 + sg) ** 2)

    def phi(state) -> float:
        d = state.z_curr - zs
        dz = state.z_curr - state.z_prev
        return float(d @ d + c1 * (d @ (state.f_prev - state.f_curr))
                     + c2 * (dz @ dz))

    return phi


def opt_potential(objective: SmoothObjective, c: float) -> Callable:
    """One-term potential f(x) - f* + c ||v - x*||^2 for the opt scheme."""
    if objective.minimizer is None or objective.optimal_value is None:
        raise ValueError("potential needs a known minimizer and optimal value")
    xs = objective.minimizer
    fs = objective.optimal_value

    def phi(state) -> float:
        dv = state.v_curr - xs
        return float(objective.value(state.x_curr) - fs + c * (dv @ dv))

    return phi


# ---------------------------------------------------------------------------
# contraction checking

@dataclass(frozen=True)
class ContractionReport:
    """Outcome of comparing a trace against a certified rate.

    max_violation is max over checked steps of V_{k+1}/V_k - rate (negative
    when the certificate holds with margin); violating_iters lists the
    iteration indices whose step exceeded rate + rtol after the atol floor.
    endpoint_excess reports the worst endpoint-bound violation for methods
    with a distance or objective-gap endpoint guarantee, or None when no
    endpoint check applies.
    """

    rate: float
    checked_steps: int
    max_violation: float
    violating_iters: tuple
    endpoint_excess: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.violating_iters and (
            self.endpoint_excess is None or self.endpoint_excess <= 0.0
        )


def check_contraction(trace: IterateTrace, cert, rtol: float = 1e-9,
                      atol: float = 0.0) -> ContractionReport:
    """Compare per-iteration potential decay against a certified rate.

    For each consecutive pair with V_k > atol the step passes when
    V_{k+1} <= (rate + rtol) V_k + atol; a pair at the potential's exact
    minimum (both below the floor) counts as ratio zero. The atol floor
    exists for potentials built from objective gaps, whose float evaluation
    is only accurate to machine precision times the objective scale near
    the solution; pass atol = 0 (default) for squared-distance potentials.
    Raises ValueError when the trace carries no potential data.

    Endpoint bounds are checked from trace metadata: the past-gradient
    method must satisfy dist_sq_k <= 2 (1+sigma)^{-k} dist_sq_0 and the
    optimization scheme merit_aux_k <= 2 (1-sqrt(sigma))^k merit_aux_0,
    each with the same atol floor.
    """
    rate = cert.rate
    pot = trace.column("potential")
    ks = trace.column("k")
    if all(p is None for p in pot):
        raise ValueError("trace carries no potential data to check")

    max_violation = -math.inf
    violating = []
    checked = 0
    for i in range(len(pot) - 1):
        vk, vn = pot[i], pot[i + 1]
        if vk is None or vn is None:
            continue
        if ks[i + 1] != ks[i] + 1:
            continue  # thinned trace; ratios are per-iteration only
        if not vk > atol:
            if vn <= vk + atol:  # settled at the minimum: ratio 0
                checked += 1
                max_violation = max(max_violation, 0.0 - rate)
            else:  # potential grew from (numerical) zero
                checked += 1
                max_violation = math.inf
                violating.append(ks[i])
            continue
        checked += 1
        max_violation = max(max_violation, vn / vk - rate)
        if vn > (rate + rtol) * vk + atol:
            violating.append(ks[i])

    endpoint = None
    sigma = trace.meta.get("sigma")
    if sigma is not None and trace.method == "ogda":
        d = trace.column("dist_sq")
        if d and d[0] is not None:
            endpoint = max(
                (d[i] - 2.0 * (1.0 + sigma) ** (-ks[i]) * d[0] - atol
                 for i in range(len(d)) if d[i] is not None),
                default=None,
            )
    if sigma is not None and trace.method == "opt-extra-point":
        g = trace.column("merit_aux")
        if g and g[0] is not None:
            rs = math.sqrt(sigma)
            endpoint = max(
                (g[i] - 2.0 * (1.0 - rs) ** ks[i] * g[0] - atol
                 for i in range(len(g)) if g[i] is not None),
                default=None,
            )

    return ContractionReport(
        rate=rate,
        checked_steps=checked,
        max_violation=max_violation,
        violating_iters=tuple(violating),
        endpoint_excess=endpoint,
    )


# ---------------------------------------------------------------------------
# recursion audits: printed one-step bounds evaluated on measured points

def unrestricted_recursion_terms(params, mu: float, lip: float,
                                 operator: Callable, z_prev, z_curr, z_half,
                                 z_next, z_star) -> dict:
    """Evaluate the one-step distance bound of the free-half-point scheme.

    Given the points produced by one step (z_half, z_next) from history
    (z_prev, z_curr), returns the measured left side ||z_next - z*||^2 and
    the printed right side, whose coefficients multiply ||z_curr - z*||^2,
    ||z_prev - z*||^2 and ||z_curr - z_half||^2 plus three operator cross
    terms. The inequality holds for any nonnegative parameters with
    eta > 0 on whole-space problems.
    """
    al, be, ga, eta, ta = params.alpha, params.beta, params.gamma, params.eta, params.tau
    L = lip
    r = al / eta
    e = ga - al * be / eta
    abs1 = abs(-al * be / eta - r * e)
    abs2 = abs(-2.0 * al * be / eta - 2.0 * r * e)

    c_curr = 1.0 - al * mu + 3.0 * ga + ta * L * (3.0 + 2.0 * ta * L + 2.0 * r + 2.0 * al * L) \
        + 2.0 * e * e + abs2
    c_prev = 2.0 * e * e + ga + 2.0 * ta * L * (1.0 + ta * L + r + al * L) + abs2
    c_half = al * al * L * L + al * al / (eta * eta) + al * ta * L / eta - 2.0 * r \
        + 2.0 * al * mu + al * ta * L * L + abs1

    f_curr = operator(z_curr)
    f_prev = operator(z_prev)
    f_half = operator(z_half)

    dc = z_curr - z_star
    dp = z_prev - z_star
    dh = z_curr - z_half
    dn = z_next - z_star
    dcp = z_curr - z_prev

    cross1 = (-2.0 * al + 2.0 * al * al / eta) * float((f_half - f_curr) @ dh)
    cross2 = -2.0 * al * e * float((f_half - f_curr) @ dcp)
    cross3 = -2.0 * ta * e * float((f_curr - f_prev) @ dcp)

    rhs = c_curr * float(dc @ dc) + c_prev * float(dp @ dp) \
        + c_half * float(dh @ dh) + cross1 + cross2 + cross3
    lhs = float(dn @ dn)
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def restricted_recursion_terms(params, mu: float, lip: float,
                               operator: Callable, z_prev, z_curr, z_half,
                               z_next, z_star) -> dict:
    """Evaluate the one-step distance bound of the projected-half-point scheme.

    The printed inequality bounds (1 - tau L) ||z_next - z*||^2 by distance
    terms plus two nonpositive-coefficient proximity terms and the step-size
    mismatch term 2 (eta - alpha) F(z_curr) . (z_next - z_half). Holds for
    any nonnegative parameters when both half and full points are projected
    onto the feasible set.
    """
    al, be, ga, eta, ta = params.alpha, params.beta, params.gamma, params.eta, params.tau
    L = lip
    g_b = abs(ga - be)

    f_curr = operator(z_curr)

    dc = z_curr - z_star
    dp = z_prev - z_star
    dn = z_next - z_star
    dnh = z_next - z_half
    dhc = z_half - z_curr

    lhs = (1.0 - ta * L) * float(dn @ dn)
    rhs = (1.0 - al * mu + 4.0 * ga + 2.0 * g_b + 2.0 * ta * L) * float(dc @ dc) \
        + (2.0 * ga + 2.0 * g_b + 2.0 * ta * L) * float(dp @ dp) \
        + (al * L + g_b - 1.0) * float(dnh @ dnh) \
        + (al * L + 2.0 * al * mu + 2.0 * ga - 1.0) * float(dhc @ dhc) \
        + 2.0 * (eta - al) * float(f_curr @ dnh)
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


# ---------------------------------------------------------------------------
# oracles

def finite_diff_grad(fn, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with O(step^2) truncation error.

    ``fn`` is a scalar function of a vector, or an objective whose ``value``
    is differentiated. Entry i is (fn(x + step e_i) - fn(x - step e_i)) /
    (2 step). The usual accuracy sweet spot trades the O(step^2) truncation
    term against the eps/step rounding term, so step near 1e-6 suits
    unit-scale functions.
    """
    if isinstance(fn, SmoothObjective):
        fn = fn.value
    x = as_vector(point)
    if not (step > 0):
        raise ValueError("step must be positive")
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def finite_diff_jacobian(op: Callable, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector map, column by column."""
    x = as_vector(point)
    if not (step > 0):
        raise ValueError("step must be positive")
    cols = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((as_vector(op(x + e)) - as_vector(op(x - e))) / (2.0 * step))
    return np.stack(cols, axis=1)


def power_iteration_norm(op, dimension: Optional[int] = None, iters: int = 500,
                         seed: int = 0, adjoint: Optional[Callable] = None) -> float:
    """Spectral-norm estimate via power iteration on M^T M.

    ``op`` is either a square matrix or a callable v -> M v, in which case
    ``adjoint`` (v -> M^T v) and ``dimension`` are required. The estimate
    approaches ||M||_2 from below with relative error on the order of
    (s2/s1)^(2 iters) for leading singular values s1 > s2, so it is a
    one-sided (never overshooting) bound up to roundoff. The start vector
    is seeded, so an operand always gives the same bits: gen_linear_vi
    relies on that to end its scale bisection at a fixed point and to
    reuse the last step's norm as lip.
    """
    if isinstance(op, np.ndarray):
        M = np.asarray(op, dtype=np.float64)
        if M.ndim != 2:
            raise ValueError("matrix operand must be 2-D")
        apply_m, apply_t = M.dot, M.T.dot
        dimension = M.shape[1]
    else:
        if adjoint is None or dimension is None:
            raise ValueError("callable operand needs adjoint and dimension")
        apply_m, apply_t = op, adjoint
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dimension)
    nv = norm2(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    for _ in range(iters):
        w = apply_t(apply_m(v))
        nw = norm2(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return norm2(apply_m(v))


def reference_minimum(objective: SmoothObjective, tol: float = 1e-12,
                      max_iter: int = 500000) -> tuple:
    """Minimize an objective to gradient norm <= tol with the certified scheme.

    Runs the default-parameter nine-coefficient method from the origin and
    returns (x, f(x), iterations). Used to manufacture reference optimal
    values for objectives without a closed-form minimizer. Raises
    RuntimeError when the tolerance is not reached.
    """
    from .certify import REGIME_OPT, default_params
    from .solvers import OptState, step_opt_extra_point

    params = default_params(REGIME_OPT, objective.mu, objective.lip)
    x = np.zeros(objective.dimension)
    state = OptState(x_curr=x, v_curr=x.copy())
    for k in range(max_iter):
        if norm2(objective.gradient(state.x_curr)) <= tol:
            return state.x_curr, float(objective.value(state.x_curr)), k
        state = step_opt_extra_point(objective, state, params,
                                     y_rule="grad-step")
    raise RuntimeError(
        f"reference minimization did not reach gradient norm {tol:g} "
        f"in {max_iter} iterations"
    )


# ---------------------------------------------------------------------------
# trace export

CSV_HEADER = "k,merit_primary,merit_aux,dist_sq,potential,elapsed_ns"


def _thin(records: Sequence[TraceRecord], thinning: int) -> list:
    if thinning < 1:
        raise ValueError("thinning must be a positive integer")
    if thinning == 1 or len(records) <= 1:
        return list(records)
    kept = [r for i, r in enumerate(records) if i % thinning == 0]
    if records[-1] is not kept[-1]:
        kept.append(records[-1])
    return kept


def _fields(r: TraceRecord, missing: str) -> list:
    """The CSV_HEADER fields of a record as text, absent values as missing."""
    return [str(r.k), *(format_float(v, missing) for v in (
        r.merit_primary, r.merit_aux, r.dist_sq, r.potential)),
        str(r.elapsed_ns)]


def write_trace_csv(trace: IterateTrace, path, thinning: int = 1) -> None:
    """Write records as CSV: fixed header, one row per kept record.

    Floats carry 17 significant digits ('.' decimal separator), empty
    fields stand for absent optionals, rows end with a single newline.
    """
    rows = [CSV_HEADER]
    for r in _thin(trace.records, thinning):
        rows.append(",".join(_fields(r, "")))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def write_trace_jsonl(trace: IterateTrace, path, thinning: int = 1) -> None:
    """Write records as JSON Lines with the same fields and formatting."""
    names = CSV_HEADER.split(",")
    lines = []
    for r in _thin(trace.records, thinning):
        lines.append("{" + ", ".join(f"\"{k}\": {v}" for k, v in
                                     zip(names, _fields(r, "null"))) + "}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def now_ns() -> int:
    return time.perf_counter_ns()

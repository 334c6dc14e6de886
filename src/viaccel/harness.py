"""Run instrumentation, power iteration and a finite-difference Jacobian.

This module owns the trace data model (per-iteration merits, distances,
potentials, timings), the contraction checker that compares measured decay
against a certificate, and the plain-text trace exports. Power iteration,
one function with an early stop above a threshold, sets the recorded lip
of the linear-VI, logistic and saddle generators and runs every step of
the linear-VI scale search; with the central-difference Jacobian it also
cross-examines recorded constants (problems.estimate_constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterator, Optional

import numpy as np

from .core import (FLOAT_FORMAT, MonotoneProblem, SmoothObjective,
                   as_vector, bind_objective_merits, bind_vi_merits,
                   format_float, norm2)

# Iterates whose norm passes this guard terminate a run as divergent.
DIVERGENCE_NORM = 1e12


# The per-iteration fields of a trace, in column and export order.
TRACE_FIELDS = ("k", "merit_primary", "merit_aux", "dist_sq", "potential",
                "elapsed_ns")
# The columns that hold ints; the others hold floats or None.
INT_FIELDS = ("k", "elapsed_ns")


@dataclass
class IterateTrace:
    """Per-iteration record of one solver run, one list per TRACE_FIELDS entry.

    run keeps this contract, divergent partial traces included, and the
    checker and writers rely on it: row i is iteration i (k = 0 is the start
    point); k and elapsed_ns hold ints; every other column holds floats, or
    None in every row when the run did not record it; meta carries sigma
    (with mu, lip, seed, and f_star for objectives). terminated_by is one of
    "tolerance", "max-iter", "divergence". Iterates are deterministic for
    identical inputs; elapsed_ns is wall-clock and is not.
    """

    method: str
    columns: dict = field(init=False)
    terminated_by: str = "max-iter"
    final_point: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = {name: [] for name in TRACE_FIELDS}

    @property
    def iterations(self) -> int:
        k = self.column("k")
        return k[-1] if k else 0

    def column(self, name: str) -> list:
        return self.columns[name]


class DivergenceError(RuntimeError):
    """Raised when iterates blow up; carries the trace accumulated so far."""

    def __init__(self, trace: IterateTrace):
        super().__init__(
            f"{trace.method} diverged at iteration {trace.iterations}"
        )
        self.trace = trace


def merit(target, z) -> tuple:
    """Merit pair (primary, aux) for a point: the pair run records, built
    by the same binders, with z checked as a finite vector of the target's
    dimension.

    Monotone problems on the whole space report (||F(z)||, natural residual);
    the two agree there up to one rounding. Constrained problems report
    (|z . F(z)|, natural residual). The natural residual
    ||z - P(z - F(z))|| is zero exactly at solutions, for every feasible
    set; on a domain-restricted problem z must be feasible. Objectives
    report (||grad f(x)||, f(x) - f*) with the second entry None when no
    optimal value is known.
    """
    z = as_vector(z, target.dimension)
    if isinstance(target, SmoothObjective):
        return bind_objective_merits(target)(*target.value_and_gradient(z))
    return bind_vi_merits(target)(z, target.operator(z))


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
        return float(d1.dot(d1) + theta * d0.dot(d0))

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
        return float(d.dot(d) + c1 * d.dot(state.f_prev - state.f_curr)
                     + c2 * dz.dot(dz))

    return phi


def opt_potential(objective: SmoothObjective, c: float) -> Callable:
    """One-term potential f(x) - f* + c ||v - x*||^2 for the opt scheme,
    with f(x) read from the state's cache."""
    if objective.minimizer is None or objective.optimal_value is None:
        raise ValueError("potential needs a known minimizer and optimal value")
    xs = objective.minimizer
    fs = objective.optimal_value

    def phi(state) -> float:
        dv = state.v_curr - xs
        return float(state.f_curr - fs + c * dv.dot(dv))

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


# Endpoint bounds by method (see check_contraction): the column whose k-th
# entry must stay below 2 factor(sigma, k) times its first.
_ENDPOINT_BOUNDS = {
    "ogda": ("dist_sq", lambda sigma, k: (1.0 + sigma) ** (-k)),
    "opt-extra-point": ("merit_aux", lambda sigma, k: (1.0 - math.sqrt(sigma)) ** k),
}


def check_contraction(trace: IterateTrace, cert, rtol: float = 1e-9,
                      atol: float = 0.0) -> ContractionReport:
    """Compare per-iteration potential decay against a certified rate, on a
    trace as run records it (see IterateTrace).

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
    if not pot or pot[0] is None:
        raise ValueError("trace carries no potential data to check")

    max_violation = -math.inf
    violating = []
    for k in range(len(pot) - 1):
        vk, vn = pot[k], pot[k + 1]
        if not vk > atol:
            if vn <= vk + atol:  # settled at the minimum: ratio 0
                max_violation = max(max_violation, 0.0 - rate)
            else:  # potential grew from (numerical) zero
                max_violation = math.inf
                violating.append(k)
            continue
        max_violation = max(max_violation, vn / vk - rate)
        if vn > (rate + rtol) * vk + atol:
            violating.append(k)

    endpoint = None
    column, factor = _ENDPOINT_BOUNDS.get(trace.method, (None, None))
    if column is not None and trace.column(column)[0] is not None:
        v, sigma = trace.column(column), trace.meta["sigma"]
        endpoint = max(v[k] - 2.0 * factor(sigma, k) * v[0] - atol
                       for k in range(len(v)))

    return ContractionReport(
        rate=rate,
        checked_steps=len(pot) - 1,
        max_violation=max_violation,
        violating_iters=tuple(violating),
        endpoint_excess=endpoint,
    )


# ---------------------------------------------------------------------------
# oracles

def finite_diff_jacobian(op: Callable, point) -> np.ndarray:
    """Central-difference Jacobian of a vector map, column by column, with
    step 1e-6."""
    x = as_vector(point)
    step = 1e-6
    cols = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((as_vector(op(x + e)) - as_vector(op(x - e))) / (2.0 * step))
    return np.stack(cols, axis=1)


def power_iteration_norm(M, iters: int = 500,
                         above: float = math.inf) -> Optional[float]:
    """Spectral-norm estimate ||M v|| of a matrix, for the last unit
    iterate v of power iteration on M^T M; None once a step's
    nw = ||M^T M v|| passes above.

    The estimate approaches ||M||_2 from below with relative error on the
    order of (s2/s1)^(2 iters) for leading singular values s1 > s2, so it
    is a one-sided (never overshooting) bound up to roundoff. Each nw
    bounds its square from below: with A = M^T M and m_j = v^T A^j v,
    log-convexity of j -> m_j (Cauchy-Schwarz) and m_0 = 1 give
    sqrt(m_2) <= m_2 / m_1 <= m_3 / m_2, which is ||M v'||^2 for the next
    unit iterate v', and ||M v||^2 never decreases from one iterate to the
    next. So None means the estimate lies past sqrt(above).

    The start vector is drawn from seed 0, and the step
    v -> M^T M v / ||M^T M v|| is deterministic, so a matrix always gives
    the same bits (gen_linear_vi decides its scale bisection steps on
    them), and once a step returns its own input bit for bit, or the
    previous step's input, every later step would repeat that fixed point
    or 2-cycle: the loop stops there and returns what all iters steps
    would. iters is a cap. The arrays are compared only when the step's
    norm equals that of the step one (or two) back, which on a fixed point
    (or a 2-cycle) delays the exit by one step at most. A zero step returns
    0.0; the seed-0 start is a unit vector unless M has no column.

    A matrix whose largest |entry| lies outside [2^-400, 2^400] runs
    scaled by a power of two, which is exact, so M^T M neither overflows
    nor underflows; above and the estimate are scaled to match. As in
    run, an overflow or nan that remains is no numpy warning: it gives an
    inf or nan estimate.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("matrix operand must be 2-D")
    big = max(M.max(initial=0.0), -M.min(initial=0.0))
    e = 0
    if math.isfinite(big) and big and not 2.0 ** -400 <= big <= 2.0 ** 400:
        e = math.frexp(big)[1]
        M = np.ldexp(M, -e)
    apply_m, apply_t = M.dot, M.T.dot
    v = np.random.default_rng(0).standard_normal(M.shape[1])
    v /= norm2(v)
    last = last2 = before = None  # the last two steps' norms, the last input
    den = np.empty(())  # the step's norm, divided by as an array operand
    with np.errstate(over="ignore", invalid="ignore"):
        bar = float(np.ldexp(above, -2 * e))  # inf or 0 past the range
        for k in range(iters):
            w = apply_t(apply_m(v))
            nw = math.sqrt(w.dot(w))
            if nw == 0.0:
                return 0.0
            if nw > bar:
                return None
            den[()] = nw
            step = np.divide(w, den, w)
            if nw == last and step.tobytes() == v.tobytes():
                break
            if nw == last2 and step.tobytes() == before.tobytes():
                # iterates alternate before, v, before, ...: the iters-th
                # is before when iters - k is odd
                if (iters - k) % 2:
                    v = before
                break
            before, v, last2, last = v, step, last, nw
        return float(np.ldexp(norm2(apply_m(v)), e))


# ---------------------------------------------------------------------------
# trace export

CSV_HEADER = ",".join(TRACE_FIELDS)


def _lines(trace: IterateTrace, thinning: int, missing: str,
           layout: Callable) -> Iterator:
    """Every thinning-th row of a trace plus its last, as text lines.

    Each column's spec is picked once, from the trace contract (see
    IterateTrace): the missing text itself for a column of None, "%d" for
    the int columns, FLOAT_FORMAT for all-finite floats, and otherwise "%s"
    over format_float(v, missing), so a non-finite float renders as
    missing. layout joins the specs, in TRACE_FIELDS order, into one line
    format. Lines are made one at a time and no column is copied, so a
    long trace is never held twice. A thinning beyond the row count keeps
    the first and last rows.
    """
    if thinning < 1:
        raise ValueError("thinning must be a positive integer")

    specs, live = [], []  # live: (column, per-value text rule or None)
    for name in TRACE_FIELDS:
        col = trace.column(name)
        if col and col[0] is None:
            specs.append(missing)
        elif name in INT_FIELDS or all(map(math.isfinite, col)):
            specs.append("%d" if name in INT_FIELDS else FLOAT_FORMAT)
            live.append((col, None))
        else:
            specs.append("%s")
            live.append((col, lambda v: format_float(v, missing)))
    fmt = layout(specs)

    n = len(trace.column("k"))
    step = max(1, min(thinning, n))  # islice takes steps up to sys.maxsize

    lines = (fmt % row for row in zip(*(
        islice(col, 0, None, step) if rule is None
        else map(rule, islice(col, 0, None, step)) for col, rule in live)))
    if n and (n - 1) % step:
        lines = chain(lines, [fmt % tuple(
            col[-1] if rule is None else rule(col[-1]) for col, rule in live)])
    return lines


def write_trace_csv(trace: IterateTrace, path, thinning: int = 1) -> None:
    """Write a trace as CSV: the CSV_HEADER line, then one row per kept
    iteration.

    Floats carry 17 significant digits ('.' decimal separator), empty
    fields stand for absent optionals and non-finite floats, rows end
    with a single newline.
    """
    lines = _lines(trace, thinning, "", lambda specs: ",".join(specs) + "\n")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(lines)


def write_trace_jsonl(trace: IterateTrace, path, thinning: int = 1) -> None:
    """Write a trace as JSON Lines with the same fields and formatting;
    null stands for absent optionals and non-finite floats."""
    lines = _lines(trace, thinning, "null", lambda specs: "{" + ", ".join(
        f"\"{k}\": {spec}" for k, spec in zip(TRACE_FIELDS, specs)) + "}\n")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(lines)

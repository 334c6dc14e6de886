"""Reference implementations that spell out the plain arithmetic.

The library runs every variational-inequality method as a parameter mask
of one stepper bound per run (solvers.vi_stepper), whose coefficients are
vectors, and the minimization scheme through the generic nine-coefficient
step (solvers.opt_stepper). These hand-written updates, with float
coefficients and the five-parameter rule among them, exist only to
cross-check that: the tests compare the library against them bit for bit
(or to roundoff, for the reduced minimization form). The VI oracle steps
return a HalfState, the library's four state fields and the half point
the step built; the library keeps that point in its stepper's scratch,
and recording lets a test read it as the input the stepper hands F.

The generator oracles keep the full 120-step scale search of the linear-VI
generator, a power iteration through np.linalg.norm and the matmul
operator, and the quadratic generator's Gram-Schmidt with a fresh vector
per projection. The library stops the search at its fixed point, uses
ndarray.dot and core.norm2, and orthogonalises in place; the tests
require identical instance text. The orthant reference solve is a
hand-written loop of projected half steps with its own natural residual,
where the library steps solvers.vi_stepper's extra-gradient and stops on
core.bind_vi_merits; the tests require identical solutions.

The reference minimizer supplies f* for an objective with no closed-form
minimizer (the logit loss): it runs the paper-default nine-coefficient
scheme from the origin down to gradient norm 1e-12, stepping with
y = the gradient step (solvers.opt_stepper's "grad-step" rule). No CLI
path or generator needs an f* it does not already have, so the library
carries none.

Box and EuclideanBall are feasible sets that no generator, problem file
or CLI path reaches; they keep the projection checks general. project
and append_row are the checked one-shot projection and a trace's
row-at-a-time append that only tests use.

The serialization oracles build the bilinear operator matrix from an
identity and a negated transpose, and render problem text one value at a
time with format(x, ".17g"), the whole text joined and then given its
last newline. The library assembles the matrix in place and renders each
block row with one format string; the tests require identical bytes.

The config writer renders an experiment config as key = value lines,
which cli.parse_config must read back to the same config; the library
reads configs and never writes one.

The trace-text oracles render a trace one value at a time: an int as
str, a float by format_float, None and nan as the missing text, each row
joined and the whole text built before it is returned. The library picks
one format per column and streams its rows; the tests require identical
bytes.

The recursion audits evaluate the printed one-step distance bounds of the
two VI regimes on measured points, and the central-difference gradient
checks the objectives' analytic gradients.
"""

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

from viaccel import problems as P
from viaccel.certify import REGIME_OPT, default_params
from viaccel.core import (FeasibleSet, MonotoneProblem, NonnegativeOrthant,
                          SmoothObjective, WholeSpace, as_vector,
                          format_float, norm2)
from viaccel.harness import CSV_HEADER, TRACE_FIELDS
from viaccel.solvers import OptState, opt_state, opt_stepper


# ---------------------------------------------------------------------------
# feasible sets no generator or problem file uses, and the checked projection

class Box(FeasibleSet):
    """{z : lower <= z <= upper} with entrywise clamping."""

    def __init__(self, lower, upper):
        self.lower = as_vector(lower)
        self.upper = as_vector(upper, self.lower.shape[0])
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper entrywise")
        self.dimension = self.lower.shape[0]

    def project(self, z):
        return np.clip(z, self.lower, self.upper)


class EuclideanBall(FeasibleSet):
    """{z : ||z - center|| <= radius}; projection scales radially."""

    def __init__(self, center, radius):
        self.center = as_vector(center)
        self.radius = float(radius)
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError("ball radius must be positive and finite")
        self.dimension = self.center.shape[0]

    def project(self, z):
        d = z - self.center
        nd = norm2(d)
        if nd <= self.radius:
            return z
        return self.center + (self.radius / nd) * d


def project(feasible_set, z):
    """Euclidean projection of z onto feasible_set, z checked as a finite
    vector of the set's dimension (ValueError otherwise)."""
    return feasible_set.project(as_vector(z, feasible_set.dimension))


class HalfState(NamedTuple):
    """A state as the oracle steps return it: ViState's four fields, then
    the half point the step built, which the library's stepper keeps in
    its scratch."""

    z_curr: np.ndarray
    z_prev: np.ndarray
    f_curr: np.ndarray
    f_prev: np.ndarray
    z_half: np.ndarray


def _advance(problem, state, z_new, z_half):
    return HalfState(z_curr=z_new, z_prev=state.z_curr,
                     f_curr=problem.operator(z_new), f_prev=state.f_curr,
                     z_half=z_half)


def recording(problem):
    """A copy of problem whose operator records a copy of every input it
    is handed, and that list: a step of vi_stepper hands F its half point
    (when it builds one) and then the next point."""
    inputs, operator = [], problem.operator
    recorded = dataclasses.replace(problem)

    def record(z):
        inputs.append(z.copy())
        return operator(z)

    recorded.operator = record
    return recorded, inputs


def step_vanilla(problem, state, alpha):
    """Projected operator step z <- P(z - alpha F(z))."""
    z_new = problem.feasible_set.project(state.z_curr - alpha * state.f_curr)
    return _advance(problem, state, z_new, state.z_curr)


def step_extragradient(problem, state, alpha, eta, restricted=False):
    """Half step with eta, full projected step with alpha at the half point.

    The restricted variant projects the half point as well; it is mandatory
    when the operator is only defined on the feasible set.
    """
    if problem.domain_restricted and not restricted:
        raise ValueError("domain-restricted problems need the projected half point")
    half = state.z_curr - eta * state.f_curr
    if restricted:
        half = problem.feasible_set.project(half)
    z_new = problem.feasible_set.project(state.z_curr - alpha * problem.operator(half))
    return _advance(problem, state, z_new, half)


def step_ogda(problem, state, alpha, tau):
    """Operator step corrected by the most recent operator difference."""
    z_new = problem.feasible_set.project(
        state.z_curr - alpha * state.f_curr - tau * (state.f_curr - state.f_prev)
    )
    return _advance(problem, state, z_new, state.z_curr)


def step_heavy_ball(problem, state, alpha, gamma):
    """Operator step plus momentum gamma (z - z_prev)."""
    z_new = problem.feasible_set.project(
        state.z_curr - alpha * state.f_curr + gamma * (state.z_curr - state.z_prev)
    )
    return _advance(problem, state, z_new, state.z_curr)


def step_nesterov(problem, state, alpha, beta):
    """Extrapolate by beta, evaluate the operator there, keep the momentum.

    The operator is evaluated at the unprojected extrapolated point, so this
    stepper is unavailable on domain-restricted problems.
    """
    if problem.domain_restricted:
        raise ValueError("extrapolation evaluates the operator off the set; "
                         "unavailable on domain-restricted problems")
    mom = beta * (state.z_curr - state.z_prev)
    half = state.z_curr + mom
    z_new = problem.feasible_set.project(
        state.z_curr - alpha * problem.operator(half) + mom
    )
    return _advance(problem, state, z_new, half)


def step_extra_point(problem, state, params, restricted=False):
    """The five-parameter rule as its two textbook expressions,

        half = z + beta (z - z_prev) - eta F(z)      [projected if restricted]
        next = P(z - alpha F(half) + gamma (z - z_prev) - tau (F(z) - F(z_prev)))

    skipping each zero-coefficient term, with a fresh array per operation.
    """
    al, be, ga, eta, ta = params.alpha, params.beta, params.gamma, params.eta, params.tau
    zc, zp, fc = state.z_curr, state.z_prev, state.f_curr
    if eta == 0.0 and be == 0.0:
        half, f_half = zc, fc
    else:
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
    return _advance(problem, state, problem.feasible_set.project(step), half)


def step_opt_extra_point_simplified(objective, state, theta, delta):
    """The reduced form of the default-parameter scheme with y = p.

    Algebraically identical to opt_stepper's step at the default
    coefficient choice, using grad f(y) = (L / delta) (y - z) to eliminate
    the gradient from the v update:

        y  = (x + theta v) / (1 + theta)
        z  = y - (delta / L) grad f(y)
        x+ = y - (t4/L) grad f(z) - (t5/L)(grad f(z) - grad f(y)) + t6 (z - y)
        v+ = (1 - theta) v + theta (mu delta - L) / (mu delta) y
             + theta L / (mu delta) z
    """
    L, mu = objective.lip, objective.mu
    den = (1.0 + delta) ** 2
    t4, t5, t6 = (1.0 - delta) / den, 1.0 / den, 3.0 / den
    x, v = state.x_curr, state.v_curr

    y = (x + theta * v) / (1.0 + theta)
    gy = objective.gradient(y)
    z = y - (delta / L) * gy
    gz = objective.gradient(z)
    x_new = y - (t4 / L) * gz - (t5 / L) * (gz - gy) + t6 * (z - y)
    v_new = (1.0 - theta) * v + (theta * (mu * delta - L) / (mu * delta)) * y \
        + (theta * L / (mu * delta)) * z
    return OptState(x_new, v_new, objective.value(x_new),
                    objective.gradient(x_new))


def oracle_step(method, problem, params, restricted):
    """The reference stepper for one VI method, as a state -> state map.

    ``restricted`` is the projected-half-point choice run() derives from the
    problem; extra-gradient and extra-point use it, as nesterov never
    projects. Each named method reads its own coefficients from
    ``params``; extra-point steps with all five.
    """
    p = params
    return {
        "vanilla": lambda s: step_vanilla(problem, s, p.alpha),
        "extra-gradient": lambda s: step_extragradient(problem, s, p.alpha, p.eta,
                                                       restricted=restricted),
        "ogda": lambda s: step_ogda(problem, s, p.alpha, p.tau),
        "heavy-ball": lambda s: step_heavy_ball(problem, s, p.alpha, p.gamma),
        "nesterov": lambda s: step_nesterov(problem, s, p.alpha, p.beta),
        "extra-point": lambda s: step_extra_point(problem, s, p, restricted),
    }[method]


def power_iterates(M, iters=500):
    """The unit iterates v_0 .. v_iters of power iteration on M^T M from the
    seed-0 start, as plain numpy; None on a zero start or step."""
    M = np.asarray(M, dtype=np.float64)
    v = np.random.default_rng(0).standard_normal(M.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return None
    vs = [v / nv]
    for _ in range(iters):
        w = M.T @ (M @ vs[-1])
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return None
        vs.append(w / nw)
    return vs


def power_iteration_norm(M, iters=500):
    """Spectral-norm estimate via power iteration on M^T M, as plain numpy:
    ||M v|| for the last of iters steps."""
    M = np.asarray(M, dtype=np.float64)
    vs = power_iterates(M, iters)
    return 0.0 if vs is None else float(np.linalg.norm(M @ vs[-1]))


def gram_schmidt(G):
    """The quadratic generator's orthonormal rows, one fresh vector per row
    and per projection; None on breakdown."""
    n = G.shape[0]
    Q = np.empty_like(G)
    for i in range(n):
        v = G[i].copy()
        for j in range(i):
            v -= (Q[j] @ v) * Q[j]
        nv = norm2(v)
        if nv < 1e-8:
            return None
        Q[i] = v / nv
    return Q


def solve_linear_reference(M, q, fset, lip):
    """Whole-space solve, or hand-written projected half steps on the
    orthant to natural residual 1e-12 in at most 10^6 steps, with the
    complementarity check on the result."""
    if isinstance(fset, WholeSpace):
        return np.linalg.solve(M, -q)
    alpha = 1.0 / (4.0 * lip)
    z = np.zeros(len(q))
    for _ in range(1_000_000):
        w = M.dot(z) + q
        if norm2(z - np.maximum(z - w, 0.0)) <= 1e-12:
            tol = 1e-9 * (1.0 + norm2(z) + norm2(w))
            if z.min(initial=0.0) < -tol or w.min(initial=0.0) < -tol \
                    or abs(float(z @ w)) > tol:
                raise RuntimeError("reference point failed the "
                                   "complementarity check")
            return z
        half = np.maximum(z - alpha * w, 0.0)
        z = np.maximum(z - alpha * (M.dot(half) + q), 0.0)
    raise RuntimeError("complementarity reference solve did not converge")


def reference_minimum(objective):
    """Minimize an objective to gradient norm <= 1e-12 with the certified
    scheme.

    Runs the default-parameter nine-coefficient method, stepping with
    y = the gradient step, from the origin for at most 500,000 steps and
    returns (x, f(x), iterations). Raises RuntimeError when the tolerance
    is not reached.
    """
    step = opt_stepper(objective, default_params(REGIME_OPT, objective.mu,
                                                 objective.lip), "grad-step")
    state = opt_state(objective, np.zeros(objective.dimension))
    for k in range(500000):
        if norm2(state.g_curr) <= 1e-12:
            return state.x_curr, float(state.f_curr), k
        state = step(state)
    raise RuntimeError("reference minimization did not reach gradient norm "
                       "1e-12 in 500000 iterations")


def gen_linear_vi(n, seed, target_sigma, constrained=False):
    """The linear-VI generator with every one of its 120 bisection steps."""
    rng = np.random.default_rng(seed)
    span = min(2.0, math.log10(1.0 / target_sigma)) if target_sigma < 1.0 else 0.0
    u = rng.uniform(0.0, 1.0, n)
    lo, hi = u.min(), u.max()
    expo = (u - lo) / (hi - lo) * span if hi > lo else np.zeros(n)
    diag0 = 10.0 ** expo
    T = rng.uniform(-1.0, 1.0, (n, n))
    skew = np.triu(T, 1)
    skew = skew - skew.T
    offset = rng.uniform(-1.0, 1.0, n)

    def sigma_of(c):
        return c / power_iteration_norm(np.diag(c * diag0) + skew)

    goal = min(target_sigma, 0.98 * sigma_of(1e6))
    lo_c, hi_c = math.log(1e-12), math.log(1e6)
    for _ in range(120):
        mid = 0.5 * (lo_c + hi_c)
        if sigma_of(math.exp(mid)) < goal:
            lo_c = mid
        else:
            hi_c = mid
    c = math.exp(0.5 * (lo_c + hi_c))

    diag = c * diag0
    M = np.diag(diag) + skew
    lip = power_iteration_norm(M)
    fset = NonnegativeOrthant(n) if constrained else WholeSpace(n)
    return MonotoneProblem(
        dimension=n, operator=lambda z: M @ z + offset, feasible_set=fset,
        mu=float(diag.min()), lip=lip,
        solution=solve_linear_reference(M, offset, fset, lip),
        kind="linear-vi", seed=seed,
        meta={"diag": diag, "skew": skew, "offset": offset,
              "target_sigma": float(target_sigma),
              "constrained": bool(constrained)})


def bilinear_matrix(B, mu_x, mu_y):
    """[[mu_x I, B], [-B', mu_y I]] from scaled identities and -B.T."""
    nx, ny = B.shape
    M = np.zeros((nx + ny, nx + ny))
    M[:nx, :nx] = mu_x * np.eye(nx)
    M[nx:, nx:] = mu_y * np.eye(ny)
    M[:nx, nx:] = B
    M[nx:, :nx] = -B.T
    return M


def serialize_problem(obj):
    """An instance's v1 text, every value formatted on its own."""
    def text_of(x):
        return format(float(x), ".17g")

    set_names = {cls: name for name, cls in P.FEASIBLE_SETS.items()}
    lines, blocks = [P.FORMAT_HEADER], []
    for name, form in P.schema(obj.kind).items():
        if name == "class":
            value = P.CLASSES[type(obj)][0]
        elif name == "n":
            value = obj.dimension
        elif name == "feasible_set":
            value = set_names[type(obj.feasible_set)]
        elif name.startswith("meta."):
            value = obj.meta.get(name[len("meta."):])
        else:
            value = getattr(obj, name, None)
        if value is None:
            continue
        if isinstance(form, tuple):
            rows = np.atleast_2d(np.asarray(value, dtype=float))
            blocks += [f"begin {name}",
                       *(" ".join(map(text_of, row)) for row in rows),
                       f"end {name}"]
        else:
            text = text_of(value) if form is float else \
                str(value).lower() if form is bool else str(value)
            lines.append(f"{name} = {text}")
    return "\n".join(lines + blocks) + "\n"


# ---------------------------------------------------------------------------
# config text

def value_text(value):
    """A config or problem-file value as text: true/false, a float by
    format_float, anything else by str."""
    return "true" if value is True else "false" if value is False else \
        format_float(value) if isinstance(value, float) else str(value)


def config_text(cfg):
    """An experiment config's ``key = value`` lines: problem keys sorted,
    each method's name, preset, sorted coefficients, max_iter and tol,
    then the sorted stop and output keys; None entries are left out."""
    entries = [(f"problem.{k}", v) for k, v in sorted(cfg.problem.items())]
    for i, spec in enumerate(cfg.methods, start=1):
        entries += [(f"method.{i}.{k}", v) for k, v in (
            ("name", spec.name), ("preset", spec.preset),
            *sorted(spec.params.items()), ("max_iter", spec.max_iter),
            ("tol", spec.tol))]
    for section in ("stop", "output"):
        entries += [(f"{section}.{k}", v)
                    for k, v in sorted(getattr(cfg, section).items())]
    return "".join(f"{key} = {value_text(value)}\n"
                   for key, value in entries if value is not None)


# ---------------------------------------------------------------------------
# trace text

def append_row(trace, *row):
    """Add one iteration's values to a trace, in TRACE_FIELDS order."""
    for name, value in zip(TRACE_FIELDS, row):
        trace.column(name).append(value)


def trace_rows(trace, thinning, missing):
    """Every thinning-th row of a trace plus its last, as TRACE_FIELDS text,
    each value rendered on its own."""
    cols = [trace.column(name) for name in TRACE_FIELDS]
    last = len(cols[0]) - 1
    kept = list(range(0, last + 1, thinning))
    if kept and kept[-1] != last:
        kept.append(last)
    for i in kept:
        yield [str(col[i]) if isinstance(col[i], int) else
               format_float(col[i], missing) for col in cols]


def trace_csv(trace, thinning=1):
    """A trace's CSV text: the header, then one line per kept row."""
    rows = [CSV_HEADER] + [",".join(r) for r in trace_rows(trace, thinning, "")]
    return "\n".join(rows) + "\n"


def trace_jsonl(trace, thinning=1):
    """A trace's JSON Lines text, one object per kept row."""
    lines = ["{" + ", ".join(f"\"{k}\": {v}" for k, v in zip(TRACE_FIELDS, r))
             + "}" for r in trace_rows(trace, thinning, "null")]
    return "\n".join(lines) + ("\n" if lines else "")


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
# gradient oracle

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

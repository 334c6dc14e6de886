"""Seeded problem generators, constant estimation, and text serialization.

Every generator returns a container whose recorded mu and lip are honest:
diagonal dominance or pinned spectra make them exact where possible, and
operator norms come from power iteration on the assembled matrix. Instances
are deterministic in (shape, target, seed).

The text format ("vi-accel-problem v1") stores the defining arrays at full
double precision (17 significant digits), so parse(serialize(p)) rebuilds an
instance whose operator output is bit-identical. One schema per kind
(schema) lists the entries a file stores; the writer and reader follow it.
"""

from __future__ import annotations

import inspect
import itertools
import math
from typing import Optional, Union

import numpy as np

from .core import (FLOAT_FORMAT, FeasibleSet, MonotoneProblem,
                   NonnegativeOrthant, SmoothObjective, WholeSpace,
                   bind_vi_merits, format_float, norm2, typed)
from .harness import finite_diff_jacobian, power_iteration_norm
from .solvers import ViParams, vi_state, vi_stepper

FORMAT_HEADER = "vi-accel-problem v1"


# ---------------------------------------------------------------------------
# operator builders shared by generators and the parser (bit-exact round trip);
# each returns its class's callables as constructor keyword arguments

def _linear_vi_operator(M: np.ndarray, offset: np.ndarray) -> dict:
    lin = M.dot
    return dict(operator=lambda z: lin(z) + offset)


def _bilinear_matrix(B: np.ndarray, mu_x: float, mu_y: float) -> np.ndarray:
    """[[mu_x I, B], [-B', mu_y I]], assembled in place: no square
    temporary is made beside M."""
    nx, ny = B.shape
    M = np.empty((nx + ny, nx + ny))
    for block, mu in ((M[:nx, :nx], mu_x), (M[nx:, nx:], mu_y)):
        block[...] = 0.0 * mu  # the zeros of mu * I, which take mu's sign
        np.fill_diagonal(block, mu)
    M[:nx, nx:] = B
    np.negative(B.T, out=M[nx:, :nx])
    return M


# The fused value_and_gradient shares one dense product between the two and
# is bit-identical to the separate calls.

def _quadratic_functions(hessian: np.ndarray, linear: np.ndarray) -> dict:
    M, q = hessian, linear

    def value_at(x, mx):  # mx = M x
        return float(0.5 * x.dot(mx) + q.dot(x))

    def value(x):
        return value_at(x, M @ x)

    def gradient(x):
        return M.dot(x) + q

    def value_and_gradient(x):
        mx = M.dot(x)
        return value_at(x, mx), mx + q

    return dict(value=value, gradient=gradient,
                value_and_gradient=value_and_gradient)


def _logistic_functions(data: np.ndarray, lam: float) -> dict:
    N = data.shape[0]

    def value_at(x, t):  # t = data x
        return float(np.logaddexp(0.0, -t).sum() / N + 0.5 * lam * (x @ x))

    def gradient_at(x, t):
        s = 0.5 * (1.0 - np.tanh(0.5 * t))  # stable 1 / (1 + exp(t))
        return -(data.T @ s) / N + lam * x

    def value(x):
        return value_at(x, data @ x)

    def gradient(x):
        return gradient_at(x, data @ x)

    def value_and_gradient(x):
        t = data @ x
        return value_at(x, t), gradient_at(x, t)

    return dict(value=value, gradient=gradient,
                value_and_gradient=value_and_gradient)


# ---------------------------------------------------------------------------
# generators

def gen_linear_vi(n: int, seed: int, target_sigma: float,
                  constrained: bool = False):
    """Diagonal-plus-skew linear operator with a tuned modulus ratio.

    The symmetric part is a positive diagonal spanning up to two decades
    (scaled mu is its exact minimum); the skew part has uniform [-1, 1]
    entries above the diagonal. A log-scale bisection over
    [1e-12, 1e6] picks the diagonal scale c so that mu / lip hits
    target_sigma, capped at 98% of the largest ratio the shape admits;
    c never falls below 1e-12, so a target beneath what that scale gives
    is not met (gen_linear_vi(3, 0, t) returns sigma ~ 9.6e-13 for every
    t in (0, 1e-16]) while meta records t. Each of its at most 120 steps
    settles a new midpoint; the first midpoint met twice is an end of the
    bracket no later step could move, so the search stops there. A step
    stops its power iteration once the running lower bound decides it,
    and lip reuses the final scale's norm when its loop ran to the end:
    the shortcuts keep every bit of the full search. Constrained instances
    live on the nonnegative orthant with a complementarity reference solution.

    Returns (problem, M): the operator is F(z) = M z + meta["offset"],
    with M = diag(meta["diag"]) + meta["skew"] the matrix it closes over.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0.0 < target_sigma <= 1.0):
        raise ValueError("target_sigma must lie in (0, 1]")
    rng = np.random.default_rng(seed)

    span = min(2.0, math.log10(1.0 / target_sigma))
    u = rng.uniform(0.0, 1.0, n)
    lo, hi = u.min(), u.max()
    expo = (u - lo) / (hi - lo) * span if hi > lo else np.zeros(n)
    diag0 = 10.0 ** expo

    T = rng.uniform(-1.0, 1.0, (n, n))
    skew = np.triu(T, 1)
    skew = skew - skew.T
    offset = rng.uniform(-1.0, 1.0, n)

    def settle(c: float) -> tuple:
        # (c / p < goal, p) for the power-iteration norm p at scale c, with
        # p None when the loop stopped early: every step's nw is at most
        # p^2 (see power_iteration_norm), so once sqrt(nw) (1 - 1e-9) passes
        # (c / goal) (1 + 1e-9), the answer is "below" whatever the rest of
        # the loop does: the bound overshoots p by roundoff only, some 1e-15
        # relative. A float product overflows to inf, which never stops early.
        q = c * (1.0 + 1e-9) / (goal * (1.0 - 1e-9))
        bar = q * q
        p = power_iteration_norm(np.diag(c * diag0) + skew, above=bar)
        return (True, None) if p is None else (c / p < goal, p)

    top = power_iteration_norm(np.diag(1e6 * diag0) + skew)
    goal = min(target_sigma, 0.98 * (1e6 / top))
    lo_c, hi_c = math.log(1e-12), math.log(1e6)
    settled = {}  # midpoint -> settle's answer there
    for _ in range(120):
        mid = 0.5 * (lo_c + hi_c)
        if mid in settled:  # a fixed point: no later step moves the bracket
            break
        settled[mid] = settle(math.exp(mid))
        if settled[mid][0]:
            lo_c = mid
        else:
            hi_c = mid
    mid = 0.5 * (lo_c + hi_c)
    c = math.exp(mid)

    diag = c * diag0
    M = np.diag(diag) + skew

    mu = float(diag.min())
    lip = settled.get(mid, (None, None))[1] or power_iteration_norm(M)
    meta = {"diag": diag, "skew": skew, "offset": offset,
            "target_sigma": float(target_sigma), "constrained": bool(constrained)}

    fset = NonnegativeOrthant(n) if constrained else WholeSpace(n)
    solution = solve_linear_reference(M, offset, fset, lip)
    problem = MonotoneProblem(dimension=n, **_linear_vi_operator(M, offset),
                              feasible_set=fset, mu=mu, lip=lip,
                              solution=solution,
                              kind="linear-vi", seed=seed, meta=meta)
    return problem, M


# Extra-gradient steps the orthant reference solve takes before it
# finishes exactly on its last iterate's support.
REFERENCE_MAX_STEPS = 1_000_000


def solve_linear_reference(M: np.ndarray, q: np.ndarray,
                           feasible_set: FeasibleSet,
                           lip: float) -> np.ndarray:
    """Reference solution for F(z) = M z + q, lip >= ||M||, on the whole
    space or the orthant.

    Whole space: Gaussian elimination on M z = -q. Orthant: extra-gradient
    steps of vi_stepper (alpha = eta = 1/(4 lip), projected half point)
    from the origin down to natural residual 1e-12. When
    REFERENCE_MAX_STEPS steps end above that, the last iterate's support S
    is taken as the solution's: z solves M_SS z_S = -q_S with zeros
    elsewhere. The point returned passes the complementarity conditions
    (z >= 0, M z + q >= 0, z'(M z + q) = 0, each to
    1e-9 (1 + ||z|| + ||M z + q||)); RuntimeError otherwise.
    """
    if isinstance(feasible_set, WholeSpace):
        return np.linalg.solve(M, -q)
    if not isinstance(feasible_set, NonnegativeOrthant):
        raise ValueError("reference solve supports whole space and orthant only")
    n = len(q)
    # the stepper and merits read no mu; mu = lip passes the class's check
    problem = MonotoneProblem(dimension=n, **_linear_vi_operator(M, q),
                              feasible_set=feasible_set, mu=lip, lip=lip)
    alpha = 1.0 / (4.0 * lip)
    step = vi_stepper(problem, ViParams(alpha=alpha, eta=alpha),
                      restricted=True)
    merits = bind_vi_merits(problem)
    state = vi_state(problem, np.zeros(n))
    for _ in range(REFERENCE_MAX_STEPS):
        z, w = state.z_curr, state.f_curr
        if merits(z, w)[1] <= 1e-12:
            break
        state = step(state)
    else:  # finish on the last iterate's support
        support = state.z_curr > 0.0
        z = np.zeros(n)
        z[support] = np.linalg.solve(M[np.ix_(support, support)], -q[support])
        w = problem.operator(z)
    tol = 1e-9 * (1.0 + norm2(z) + norm2(w))
    if z.min(initial=0.0) < -tol or w.min(initial=0.0) < -tol \
            or abs(float(z @ w)) > tol:
        raise RuntimeError("orthant reference point failed the "
                           "complementarity check")
    return z


# rows per panel of _orthonormal_rows: the fastest of 16 to 128 at n = 200,
# 500 and 1000 (a 64 x 1000 panel is 512 KB, inside a 2 MiB L2)
GS_PANEL = 64


def _orthonormal_rows(G: np.ndarray) -> Optional[np.ndarray]:
    """Modified Gram-Schmidt on the rows of G, which it overwrites; None
    when a row's remainder has norm below 1e-8.

    Row k subtracts (q_j . row) q_j for j = 0 .. k-1 in order, each
    coefficient taken from the row as updated so far. The rows are worked
    through in panels of GS_PANEL: every finished q_j is projected out of a
    whole panel at once, its coefficients by stacked 1x1 matmuls (one dot
    per row, the bits of q_j.dot(row), where a matrix-vector product would
    not be) and the update as a multiply then a subtract. Each row thus
    meets the same operations in the same order as one row at a time.
    """
    n = G.shape[1]
    Q = np.empty_like(G)
    coef = np.empty((GS_PANEL, 1))
    prod = np.empty((GS_PANEL, n))

    def project_out(q, rows):
        c, t = coef[:len(rows)], prod[:len(rows)]
        np.matmul(rows[:, None, :], q, out=c)
        np.multiply(c, q, out=t)
        rows -= t

    for s in range(0, G.shape[0], GS_PANEL):
        panel = G[s:s + GS_PANEL]
        for q in Q[:s]:
            project_out(q, panel)
        for i, v in enumerate(panel):
            nv = norm2(v)
            if nv < 1e-8:
                return None
            q = np.divide(v, nv, out=Q[s + i])
            if i + 1 < len(panel):
                project_out(q, panel[i + 1:])
    return Q


def gen_quadratic(n: int, seed: int, target_sigma: float) -> SmoothObjective:
    """Dense strongly convex quadratic with an exactly pinned spectrum.

    Eigenvalues run log-uniformly from lip * target_sigma to lip = 46 with
    both endpoints pinned, in a seeded random orthonormal basis. A
    Gram-Schmidt breakdown retries with a perturbed seed, at most 8 times.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0.0 < target_sigma <= 1.0):
        raise ValueError("target_sigma must lie in (0, 1]")
    lip = 46.0
    mu = lip * target_sigma

    U = rng = None
    for attempt in range(9):
        rng = np.random.default_rng(seed + attempt)
        U = _orthonormal_rows(rng.standard_normal((n, n)))
        if U is not None:
            break
    if U is None:
        raise RuntimeError("orthonormal basis construction failed")

    d = np.empty(n)
    d[0], d[-1] = mu, lip
    d[1:-1] = np.exp(rng.uniform(math.log(mu), math.log(lip), n - 2))
    M = (U.T * d) @ U
    del U  # the basis is as large as M and not needed past here
    M += M.T  # numpy buffers the overlapping transpose: M + M.T bit for bit
    M *= 0.5
    q = rng.uniform(-1.0, 1.0, n)
    xs = np.linalg.solve(M, -q)

    functions = _quadratic_functions(M, q)
    return SmoothObjective(dimension=n, **functions, mu=mu, lip=lip,
                           minimizer=xs, optimal_value=functions["value"](xs),
                           kind="quadratic", seed=seed,
                           meta={"hessian": M, "linear": q,
                                 "target_sigma": float(target_sigma)})


def gen_logistic(n: int, num_samples: int, lam: float, seed: int) -> SmoothObjective:
    """Ridge-regularized logit loss over seeded Gaussian features.

    mu = lam exactly; lip = lam + ||data||^2 / (4 N) with the data norm from
    power iteration (the standard quarter bound on the logit curvature).
    No minimizer is attached; the tests' oracles.reference_minimum finds one.
    """
    if n < 1 or num_samples < 1:
        raise ValueError("n and num_samples must be positive")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    rng = np.random.default_rng(seed)
    data = 0.107 * rng.standard_normal((num_samples, n))
    lam = float(lam)

    lip = lam + power_iteration_norm(data) ** 2 / (4.0 * num_samples)
    return SmoothObjective(dimension=n, **_logistic_functions(data, lam),
                           mu=lam, lip=lip,
                           kind="logistic", seed=seed,
                           meta={"data": data, "lam": lam})


def gen_bilinear_saddle(nx: int, ny: int, seed: int, mu_x: float = 1.0,
                        mu_y: float = 1.0) -> MonotoneProblem:
    """Regularized bilinear saddle operator on the whole space.

    The stacked first-order field of (mu_x/2)|x|^2 + x'By - (mu_y/2)|y|^2
    with seeded uniform [-1, 1] coupling entries; with no linear term the
    saddle point is the origin. mu = min(mu_x, mu_y) exactly; lip is the
    norm of the assembled block matrix. meta["bilinear"] is a view of that
    matrix, so B is held once and writing to it changes the operator.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be positive")
    for name, v in (("mu_x", mu_x), ("mu_y", mu_y)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be positive and finite")
    rng = np.random.default_rng(seed)
    B = rng.uniform(-1.0, 1.0, (nx, ny))
    M = _bilinear_matrix(B, float(mu_x), float(mu_y))
    dim = nx + ny
    return MonotoneProblem(dimension=dim, operator=M.dot,
                           feasible_set=WholeSpace(dim),
                           mu=float(min(mu_x, mu_y)),
                           lip=power_iteration_norm(M),
                           solution=np.zeros(dim), kind="bilinear-saddle",
                           seed=seed,
                           meta={"bilinear": M[:nx, nx:], "mu_x": float(mu_x),
                                 "mu_y": float(mu_y), "nx": nx, "ny": ny})


# ---------------------------------------------------------------------------
# constant estimation

def estimate_constants(problem: MonotoneProblem):
    """Empirical (mu_hat, lip_hat) for a problem's operator, independent of
    its claims.

    mu_hat is the minimum of (F(u)-F(v))'(u-v)/|u-v|^2 over 200 pairs of
    seed-0 standard normal samples projected onto the feasible set, so
    mu_hat >= mu up to sampling error. lip_hat is the maximum of
    |F(u)-F(v)|/|u-v| over the same pairs (a finite difference whose square
    overflows is rescaled by a power of two, as in power_iteration_norm),
    sharpened by power iteration on a finite-difference Jacobian at the
    projected origin (exact for linear operators). As in run, an overflow
    or nan left is no numpy warning: it gives an inf or nan estimate.
    """
    op, dimension = problem.operator, problem.dimension
    proj = problem.feasible_set.project
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore", invalid="ignore"):
        mu_hat = math.inf
        lip_hat = 0.0
        for _ in range(200):
            u = proj(rng.standard_normal(dimension))
            v = proj(rng.standard_normal(dimension))
            du = u - v
            nd = float(du @ du)
            if nd == 0.0:
                continue
            df = op(u) - op(v)
            mu_hat = min(mu_hat, float(df @ du) / nd)
            ndf = norm2(df)
            if ndf == math.inf and np.isfinite(df).all():  # df.df overflowed
                e = math.frexp(np.abs(df).max())[1]
                ndf = math.ldexp(norm2(np.ldexp(df, -e)), e)
            lip_hat = max(lip_hat, ndf / math.sqrt(nd))

        J = finite_diff_jacobian(op, proj(np.zeros(dimension)))
        lip_hat = max(lip_hat, power_iteration_norm(J, iters=1000))
        return mu_hat, lip_hat


# ---------------------------------------------------------------------------
# the stored form of each kind

# Each problem kind's generator and its keys with their types: each key is
# the name of a generator parameter, and one whose parameter has a default
# is optional and, when not given, takes that default.
KINDS = {
    "linear-vi": (gen_linear_vi, dict(n=int, seed=int, target_sigma=float,
                                      constrained=bool)),
    "quadratic": (gen_quadratic, dict(n=int, seed=int, target_sigma=float)),
    "logistic": (gen_logistic, dict(n=int, num_samples=int, lam=float,
                                    seed=int)),
    "bilinear-saddle": (gen_bilinear_saddle, dict(nx=int, ny=int, seed=int,
                                                  mu_x=float, mu_y=float)),
}


def _build_linear_vi(diag, skew, offset) -> dict:
    return _linear_vi_operator(np.diag(diag) + skew, offset)


def _build_bilinear_saddle(n, bilinear, mu_x, mu_y) -> dict:
    if sum(bilinear.shape) != n:
        raise ValueError(f"block meta.bilinear has shape {bilinear.shape}, "
                         f"whose sides must sum to n = {n}")
    nx = bilinear.shape[0]
    M = _bilinear_matrix(bilinear, mu_x, mu_y)
    return dict(operator=M.dot, meta={"bilinear": M[:nx, nx:]})


# Beside each kind: its class, the shape of each meta.* block it stores (each
# side n or a meta.* scalar; one the file does not store matches any length),
# and the builder of the class's callables from the file's n and the blocks
# and meta.* scalars its parameters name, with under "meta" any block it
# holds in place of the parsed one (the saddle's coupling block, a view of
# its operator matrix). A kind's meta.* scalars are its generator keys but
# n, seed and num_samples; a file may omit those its builder does not name.
LAYOUTS = {
    "linear-vi": (MonotoneProblem, dict(diag=("n",), offset=("n",),
                                        skew=("n", "n")), _build_linear_vi),
    "quadratic": (SmoothObjective, dict(hessian=("n", "n"), linear=("n",)),
                  _quadratic_functions),
    "logistic": (SmoothObjective, dict(data=("num_samples", "n")),
                 _logistic_functions),
    "bilinear-saddle": (MonotoneProblem, dict(bilinear=("nx", "ny")),
                        _build_bilinear_saddle),
}
# Each class's name in files and its attributes that a file stores after
# class, kind and n, in the order written: the type of a scalar or the shape
# of a block. A file may omit one whose constructor parameter has a default.
CLASSES = {
    MonotoneProblem: ("monotone-vi", dict(
        mu=float, lip=float, seed=int, domain_restricted=bool,
        feasible_set=str, solution=("n",))),
    SmoothObjective: ("smooth-objective", dict(
        mu=float, lip=float, seed=int, optimal_value=float,
        minimizer=("n",))),
}
FEASIBLE_SETS = {"whole-space": WholeSpace,
                 "nonnegative-orthant": NonnegativeOrthant}


def schema(kind: str) -> dict:
    """Every entry a kind's problem file can store, in the order written
    (its `name = value` lines, then its blocks): name -> the type of a
    line's value, or the shape of a block as a tuple of side names."""
    cls, blocks, _ = LAYOUTS[kind]
    meta = {key: typ for key, typ in KINDS[kind][1].items()
            if key not in ("n", "seed", "num_samples")}
    meta.update(blocks)
    return {"class": str, "kind": str, "n": int, **CLASSES[cls][1],
            **{f"meta.{name}": meta[name] for name in sorted(meta)}}


def _check(kind: str, values: dict) -> None:
    """Refuse entries (name -> value, None when not given) that lack one
    the kind needs, or whose n, numbers or meta.* block shapes do not fit;
    _parse_lines checks the class's blocks after the kind's builder."""
    cls, blocks, build = LAYOUTS[kind]
    params = inspect.signature(cls).parameters
    needed = ["class", "kind", "n"]
    needed += [name for name in CLASSES[cls][1]
               if params[name].default is params[name].empty]
    needed += [f"meta.{name}" for name in inspect.signature(build).parameters
               if name != "n"]
    missing = [name for name in needed if values.get(name) is None]
    if missing:
        raise ValueError(f"{missing[0]} must be given in a {kind} problem file")
    if values["n"] < 1:
        raise ValueError(f"n must be a positive integer, got {values['n']}")
    for name, form in schema(kind).items():
        value = values.get(name)
        if (form is float or isinstance(form, tuple)) and value is not None:
            # np.extract copies a strided view (a generated meta.bilinear)
            # whole, so it only runs on a block known to hold a bad value
            finite = np.isfinite(value)
            if not finite.all():
                bad = np.extract(~finite, value)[0]
                raise ValueError(f"{name} must be finite, got {bad}")
    for name, shape in blocks.items():
        _check_shape(kind, f"meta.{name}", shape, values)


def _check_shape(kind: str, name: str, shape: tuple, values: dict) -> None:
    """Refuse block values[name] unless its sides are its shape's sizes."""
    want = [values.get(side if side == "n" else f"meta.{side}")
            for side in shape]
    got = np.shape(values[name])
    if len(got) != len(want) or \
            any(w not in (None, g) for w, g in zip(want, got)):
        sizes = ", ".join("any" if w is None else str(w) for w in want)
        raise ValueError(f"{kind} problem needs block {name} of shape "
                         f"({', '.join(shape)}) = ({sizes}), got {got}")


def _problem_lines(obj: Union[MonotoneProblem, SmoothObjective]):
    """serialize_problem's lines, without newlines. Every entry is checked
    before this returns; the blocks are rendered as the lines are drawn,
    each row by one format string."""
    if type(obj) is not LAYOUTS.get(obj.kind, (None,))[0]:
        raise ValueError(f"cannot serialize {type(obj).__name__} kind "
                         f"{obj.kind!r}")
    entries = schema(obj.kind)
    values = {name: obj.meta.get(name[len("meta."):])
              if name.startswith("meta.") else getattr(obj, name, None)
              for name in entries}
    values.update({"class": CLASSES[type(obj)][0], "n": obj.dimension})
    if "feasible_set" in values:
        names = {fset: name for name, fset in FEASIBLE_SETS.items()}
        if type(obj.feasible_set) not in names:
            raise ValueError("only whole-space and orthant sets serialize")
        values["feasible_set"] = names[type(obj.feasible_set)]
    _check(obj.kind, values)

    lines, blocks = [FORMAT_HEADER], []
    for name, form in entries.items():
        value = values[name]
        if value is None:
            continue
        if isinstance(form, tuple):
            blocks.append((name, np.atleast_2d(np.asarray(value, dtype=float))))
        else:
            text = format_float(value) if form is float else \
                str(value).lower() if form is bool else str(value)
            typed(name, text, form)  # raises for a value the reader refuses
            lines.append(f"{name} = {text}")
    return itertools.chain(lines, _block_lines(blocks))


def _block_lines(blocks):
    for name, rows in blocks:
        yield f"begin {name}"
        row_format = " ".join([FLOAT_FORMAT] * rows.shape[1])
        for row in rows:
            yield row_format % tuple(row.tolist())
        yield f"end {name}"


def serialize_problem(obj: Union[MonotoneProblem, SmoothObjective]) -> str:
    """Render an instance of a stored kind (see LAYOUTS) to the v1 text
    format: its schema's entries, leaving out None attributes.

    Raises ValueError, naming the entry, for an instance whose text
    parse_problem would refuse.
    """
    return "\n".join([*_problem_lines(obj), ""])


def parse_problem(text: str) -> Union[MonotoneProblem, SmoothObjective]:
    """Rebuild an instance from its v1 text form (inverse of serialize).

    The file gives its kind's schema entries, each at most once: every one
    the kind needs, and no other. Values are typed by key as in configs,
    and meta.* block shapes checked, before any operator is built, and the
    solution or minimizer block's after; a malformed file raises ValueError
    naming the entry.
    """
    return _parse_lines(text.splitlines())


def _parse_lines(lines) -> Union[MonotoneProblem, SmoothObjective]:
    """parse_problem over an iterable of lines, each drawn once: an open
    file is read line by line and never held whole."""
    lines = filter(None, (ln.strip() for ln in lines))  # drop blank lines
    if next(lines, None) != FORMAT_HEADER:
        raise ValueError(f"missing header line {FORMAT_HEADER!r}")

    given = {}  # name -> the text of a `name = value` line, or a block
    for ln in lines:
        if ln.startswith("begin "):
            name, rows = ln[len("begin "):].strip(), []
            for i, row in enumerate(lines, start=1):
                if row == f"end {name}":
                    break
                try:
                    rows.append([float(v) for v in row.split()])
                except ValueError:
                    raise ValueError(f"block {name} row {i} is not a row of "
                                     f"numbers: {row!r}") from None
                if len(rows[-1]) != len(rows[0]):
                    raise ValueError(f"block {name} row {i} has {len(rows[-1])}"
                                     f" numbers, row 1 has {len(rows[0])}")
            else:
                raise ValueError(f"unterminated block {name!r}")
            value = np.array(rows, dtype=float)
            del rows  # its float lists take 4x the block: free them now
        elif " = " in ln:
            name, value = (part.strip() for part in ln.split(" = ", 1))
        else:
            raise ValueError(f"unparseable line {ln!r}")
        if name in given:
            raise ValueError(f"problem file entry {name} is given twice")
        given[name] = value

    kind = given.get("kind")
    if not isinstance(kind, str) or kind not in LAYOUTS:
        raise ValueError(f"unknown problem kind {kind!r}")
    entries = schema(kind)
    values = {}
    for name, value in given.items():
        form = entries.get(name)
        if isinstance(value, str) and isinstance(form, type):
            values[name] = typed(name, value, form)
        elif isinstance(value, np.ndarray) and isinstance(form, tuple):
            # a vector is written as one row
            values[name] = value[0] if len(form) == len(value) == 1 else value
    _check(kind, values)
    unknown = [name for name in given if name not in values]
    if unknown:
        raise ValueError(f"unknown entry {unknown[0]} in a {kind} problem file")

    cls, _, build = LAYOUTS[kind]
    if values["class"] != CLASSES[cls][0]:
        raise ValueError(f"{kind} problems have class {CLASSES[cls][0]}, "
                         f"got {values['class']}")
    attrs = {name: values[name] for name in CLASSES[cls][1] if name in values}
    if "feasible_set" in attrs:
        fset = FEASIBLE_SETS.get(attrs["feasible_set"])
        if fset is None:
            raise ValueError(f"unknown feasible set {attrs['feasible_set']!r}")
        attrs["feasible_set"] = fset(values["n"])
    meta = {name[len("meta."):]: v for name, v in values.items()
            if name.startswith("meta.")}
    made = build(**{name: values["n"] if name == "n" else meta[name]
                    for name in inspect.signature(build).parameters})
    meta.update(made.pop("meta", {}))
    for name, shape in CLASSES[cls][1].items():
        if isinstance(shape, tuple) and name in attrs:
            _check_shape(kind, name, shape, values)
    return cls(dimension=values["n"], **made, **attrs, kind=kind, meta=meta)


def write_problem(path, obj) -> None:
    """Write serialize_problem's text line by line, never held whole; a
    refused instance is refused before the file is opened."""
    lines = _problem_lines(obj)
    with open(path, "w") as fh:
        for line in lines:
            print(line, file=fh)


def read_problem(path) -> Union[MonotoneProblem, SmoothObjective]:
    """Read a problem file (see parse_problem) line by line."""
    with open(path) as fh:
        return _parse_lines(fh)

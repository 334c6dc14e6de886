"""Seeded problem generators, constant estimation, and text serialization.

Every generator returns a container whose recorded mu and lip are honest:
diagonal dominance or pinned spectra make them exact where possible, and
operator norms come from power iteration on the assembled matrix. Instances
are deterministic in (shape, target, seed).

The text format ("vi-accel-problem v1") stores the defining arrays at full
double precision (17 significant digits), so parse(serialize(p)) rebuilds an
instance whose operator output is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (FeasibleSet, MonotoneProblem, NonnegativeOrthant,
                   SmoothObjective, WholeSpace, format_float, norm2)
from .harness import finite_diff_jacobian, power_iteration_norm

FORMAT_HEADER = "vi-accel-problem v1"

# block names parsed as vectors; everything else is a matrix
_VECTOR_BLOCKS = {"solution", "minimizer", "offset", "linear", "diag",
                  "lower", "upper", "center"}


@dataclass(frozen=True)
class LinearOperatorSpec:
    """Raw description of a diagonal-plus-skew linear operator F(z) = m z + q."""

    m: np.ndarray
    q: np.ndarray
    q_diag: np.ndarray
    a_skew: np.ndarray

    def __post_init__(self):
        if not np.array_equal(self.m, np.diag(self.q_diag) + self.a_skew):
            raise ValueError("m must equal diag(q_diag) + a_skew exactly")
        if not np.array_equal(self.a_skew, -self.a_skew.T):
            raise ValueError("a_skew must be exactly skew-symmetric")
        if self.q_diag.min() <= 0.0:
            raise ValueError("q_diag entries must be strictly positive")


# ---------------------------------------------------------------------------
# operator builders shared by generators and the parser (bit-exact round trip)

def _linear_vi_operator(diag: np.ndarray, skew: np.ndarray):
    M = np.diag(diag) + skew
    return M, M.dot


def _bilinear_matrix(B: np.ndarray, mu_x: float, mu_y: float) -> np.ndarray:
    nx, ny = B.shape
    M = np.zeros((nx + ny, nx + ny))
    M[:nx, :nx] = mu_x * np.eye(nx)
    M[nx:, nx:] = mu_y * np.eye(ny)
    M[:nx, nx:] = B
    M[nx:, :nx] = -B.T
    return M


# Each builder returns (value, gradient, value_and_gradient); the fused
# callable shares one dense product between the two and is bit-identical to
# the separate calls.

def _quadratic_functions(M: np.ndarray, q: np.ndarray):
    def value_at(x, mx):  # mx = M x
        return float(0.5 * (x @ mx) + q @ x)

    def value(x):
        return value_at(x, M @ x)

    def gradient(x):
        return M.dot(x) + q

    def value_and_gradient(x):
        mx = M.dot(x)
        return value_at(x, mx), mx + q

    return value, gradient, value_and_gradient


def _logistic_functions(data: np.ndarray, lam: float):
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

    return value, gradient, value_and_gradient


# ---------------------------------------------------------------------------
# generators

def gen_linear_vi(n: int, seed: int, target_sigma: float,
                  constrained: bool = False):
    """Diagonal-plus-skew linear operator with a tuned modulus ratio.

    The symmetric part is a positive diagonal spanning up to two decades
    (scaled mu is its exact minimum); the skew part has uniform [-1, 1]
    entries above the diagonal. A log-scale bisection picks the diagonal
    scale c so that mu / lip hits target_sigma, capped at 98% of the
    largest ratio the shape admits. Its 120 steps stop early once one
    leaves the bracket unchanged: the update is deterministic, so the rest
    could not move it. lip reuses the last step's norm when c is that
    step's scale, so both shortcuts leave every bit as the full search
    would. Constrained instances live on the nonnegative orthant with a
    complementarity reference solution.

    Returns (MonotoneProblem, LinearOperatorSpec).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0.0 < target_sigma <= 1.0):
        raise ValueError("target_sigma must lie in (0, 1]")
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

    last = {}  # the last evaluated scale and its operator norm

    def sigma_of(c: float) -> float:
        last.update(c=c, norm=power_iteration_norm(np.diag(c * diag0) + skew))
        return c / last["norm"]

    goal = min(target_sigma, 0.98 * sigma_of(1e6))
    lo_c, hi_c = math.log(1e-12), math.log(1e6)
    for _ in range(120):
        mid, bracket = 0.5 * (lo_c + hi_c), (lo_c, hi_c)
        if sigma_of(math.exp(mid)) < goal:
            lo_c = mid
        else:
            hi_c = mid
        if (lo_c, hi_c) == bracket:  # a fixed point: no later step moves it
            break
    c = math.exp(0.5 * (lo_c + hi_c))

    diag = c * diag0
    M, lin = _linear_vi_operator(diag, skew)
    spec = LinearOperatorSpec(m=M, q=offset, q_diag=diag, a_skew=skew)

    def op(z):
        return lin(z) + offset

    mu = float(diag.min())
    lip = last["norm"] if c == last["c"] else power_iteration_norm(M)
    meta = {"diag": diag, "skew": skew, "offset": offset,
            "target_sigma": float(target_sigma), "constrained": bool(constrained)}

    fset = NonnegativeOrthant(n) if constrained else WholeSpace(n)
    solution = solve_linear_reference(spec, fset, lip=lip)
    problem = MonotoneProblem(dimension=n, operator=op, feasible_set=fset,
                              mu=mu, lip=lip, solution=solution,
                              kind="linear-vi", seed=seed, meta=meta)
    return problem, spec


def solve_linear_reference(spec: LinearOperatorSpec, feasible_set: FeasibleSet,
                           lip: float) -> np.ndarray:
    """Reference solution for a linear operator on the whole space or orthant.

    Whole space: Gaussian elimination on m z = -q. Orthant: projected
    half-step iterations with alpha = 1/(4 lip) down to natural residual
    1e-12, with the complementarity conditions (z >= 0, m z + q >= 0,
    z'(m z + q) = 0) verified on the result. Raises RuntimeError when the
    iteration has not converged within 10^6 steps.
    """
    M, q = spec.m, spec.q
    if isinstance(feasible_set, WholeSpace):
        return np.linalg.solve(M, -q)
    if not isinstance(feasible_set, NonnegativeOrthant):
        raise ValueError("reference solve supports whole space and orthant only")
    alpha = 1.0 / (4.0 * lip)
    z = np.zeros(len(q))
    for _ in range(1_000_000):
        w = M.dot(z) + q
        if norm2(z - np.maximum(z - w, 0.0)) <= 1e-12:
            scale = 1.0 + norm2(z) + norm2(w)
            comp_tol = 1e-9 * scale
            if z.min(initial=0.0) < -comp_tol or w.min(initial=0.0) < -comp_tol \
                    or abs(float(z @ w)) > comp_tol:
                raise RuntimeError("reference point failed the "
                                   "complementarity check")
            return z
        half = np.maximum(z - alpha * w, 0.0)
        z = np.maximum(z - alpha * (M.dot(half) + q), 0.0)
    raise RuntimeError("complementarity reference solve did not converge")


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
    if n > 2:
        d[1:-1] = np.exp(rng.uniform(math.log(mu), math.log(lip), n - 2))
    M = (U.T * d) @ U
    M = 0.5 * (M + M.T)
    q = rng.uniform(-1.0, 1.0, n)
    xs = np.linalg.solve(M, -q)

    value, gradient, fused = _quadratic_functions(M, q)
    return SmoothObjective(dimension=n, value=value, gradient=gradient,
                           value_and_gradient=fused, mu=mu, lip=lip,
                           minimizer=xs,
                           optimal_value=value(xs), kind="quadratic", seed=seed,
                           meta={"hessian": M, "linear": q,
                                 "target_sigma": float(target_sigma)})


def gen_logistic(n: int, n_samples: int, lam: float, seed: int) -> SmoothObjective:
    """Ridge-regularized logit loss over seeded Gaussian features.

    mu = lam exactly; lip = lam + ||data||^2 / (4 N) with the data norm from
    power iteration (the standard quarter bound on the logit curvature).
    No minimizer is attached; harness.reference_minimum finds one on demand.
    """
    if n < 1 or n_samples < 1:
        raise ValueError("n and n_samples must be positive")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    rng = np.random.default_rng(seed)
    data = 0.107 * rng.standard_normal((n_samples, n))
    lam = float(lam)

    value, gradient, fused = _logistic_functions(data, lam)
    lip = lam + power_iteration_norm(data) ** 2 / (4.0 * n_samples)
    return SmoothObjective(dimension=n, value=value, gradient=gradient,
                           value_and_gradient=fused, mu=lam, lip=lip,
                           kind="logistic", seed=seed,
                           meta={"data": data, "lam": lam})


def gen_bilinear_saddle(nx: int, ny: int, seed: int, mu_x: float = 1.0,
                        mu_y: float = 1.0) -> MonotoneProblem:
    """Regularized bilinear saddle operator on the whole space.

    The stacked first-order field of (mu_x/2)|x|^2 + x'By - (mu_y/2)|y|^2
    with seeded uniform [-1, 1] coupling entries; with no linear term the
    saddle point is the origin. mu = min(mu_x, mu_y) exactly; lip is the
    norm of the assembled block matrix.
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
                           meta={"bilinear": B, "mu_x": float(mu_x),
                                 "mu_y": float(mu_y), "nx": nx, "ny": ny})


# ---------------------------------------------------------------------------
# constant estimation

def estimate_constants(problem: MonotoneProblem):
    """Empirical (mu_hat, lip_hat) for a problem's operator, independent of
    its claims.

    mu_hat is the minimum of (F(u)-F(v))'(u-v)/|u-v|^2 over 200 pairs of
    seed-0 standard normal samples projected onto the feasible set, so
    mu_hat >= mu up to sampling error. lip_hat is the maximum of
    |F(u)-F(v)|/|u-v| over the same pairs, sharpened by power iteration on
    a finite-difference Jacobian taken at the projected origin (exact for
    linear operators).
    """
    op, dimension = problem.operator, problem.dimension
    proj = problem.feasible_set.project
    rng = np.random.default_rng(0)

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
        lip_hat = max(lip_hat, norm2(df) / math.sqrt(nd))

    J = finite_diff_jacobian(op, proj(np.zeros(dimension)))
    lip_hat = max(lip_hat, power_iteration_norm(J, iters=1000))
    return mu_hat, lip_hat


# ---------------------------------------------------------------------------
# serialization

def serialize_problem(obj: Union[MonotoneProblem, SmoothObjective]) -> str:
    """Render a generated instance to the v1 text format.

    Only kinds whose operators can be rebuilt from stored arrays are
    supported: linear-vi, bilinear-saddle, quadratic, logistic.
    """
    lines = [FORMAT_HEADER]
    blocks = []

    def key(name, value):
        if value is None:
            return
        if isinstance(value, bool):
            lines.append(f"{name} = {'true' if value else 'false'}")
        elif isinstance(value, (int, np.integer)):
            lines.append(f"{name} = {int(value)}")
        elif isinstance(value, (float, np.floating)):
            lines.append(f"{name} = {format_float(value)}")
        else:
            lines.append(f"{name} = {value}")

    def block(name, arr):
        if arr is None:
            return
        arr = np.asarray(arr, dtype=float)
        rows = [arr] if arr.ndim == 1 else list(arr)
        blocks.append(f"begin {name}")
        blocks.extend(" ".join(format_float(v) for v in row) for row in rows)
        blocks.append(f"end {name}")

    if isinstance(obj, MonotoneProblem):
        if obj.kind not in ("linear-vi", "bilinear-saddle"):
            raise ValueError(f"cannot serialize problem kind {obj.kind!r}")
        key("class", "monotone-vi")
        key("kind", obj.kind)
        key("n", obj.dimension)
        key("mu", obj.mu)
        key("lip", obj.lip)
        key("seed", obj.seed)
        key("domain_restricted", obj.domain_restricted)
        fset = obj.feasible_set
        if isinstance(fset, WholeSpace):
            key("feasible_set", "whole-space")
        elif isinstance(fset, NonnegativeOrthant):
            key("feasible_set", "nonnegative-orthant")
        else:
            raise ValueError("only whole-space and orthant sets serialize")
        block("solution", obj.solution)
    else:
        if obj.kind not in ("quadratic", "logistic"):
            raise ValueError(f"cannot serialize objective kind {obj.kind!r}")
        key("class", "smooth-objective")
        key("kind", obj.kind)
        key("n", obj.dimension)
        key("mu", obj.mu)
        key("lip", obj.lip)
        key("seed", obj.seed)
        key("optimal_value", obj.optimal_value)
        block("minimizer", obj.minimizer)

    for name in sorted(obj.meta):
        v = obj.meta[name]
        if isinstance(v, np.ndarray):
            block(f"meta.{name}", v)
        else:
            key(f"meta.{name}", v)
    return "\n".join(lines + blocks) + "\n"


def _parse_scalar(raw: str):
    if raw == "true":
        return True
    if raw == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def parse_problem(text: str) -> Union[MonotoneProblem, SmoothObjective]:
    """Rebuild an instance from its v1 text form (inverse of serialize).

    The header keys and every block the kind needs are checked, with array
    shapes against n, before any operator is built; a malformed file raises
    ValueError.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"missing header line {FORMAT_HEADER!r}")

    keys = {}
    arrays = {}
    i = 1
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("begin "):
            name = ln[len("begin "):].strip()
            rows = []
            i += 1
            while i < len(lines) and lines[i] != f"end {name}":
                rows.append([float(v) for v in lines[i].split()])
                i += 1
            if i == len(lines):
                raise ValueError(f"unterminated block {name!r}")
            arr = np.array(rows, dtype=float)
            base = name.split(".", 1)[-1]
            if base in _VECTOR_BLOCKS and arr.shape[0] == 1:
                arr = arr[0]
            arrays[name] = arr
        elif " = " in ln:
            name, raw = ln.split(" = ", 1)
            keys[name.strip()] = _parse_scalar(raw.strip())
        else:
            raise ValueError(f"unparseable line {ln!r}")
        i += 1

    meta = {}
    for name, v in keys.items():
        if name.startswith("meta."):
            meta[name[len("meta."):]] = v
    for name, v in arrays.items():
        if name.startswith("meta."):
            meta[name[len("meta."):]] = v

    def typed(name, v, kinds=(int, float), what="a number"):
        if isinstance(v, bool) != (kinds is bool) or not isinstance(v, kinds):
            raise ValueError(f"{name} must be {what}, got {v!r}")
        return v

    cls = keys.get("class")
    kind = keys.get("kind")
    if cls not in ("monotone-vi", "smooth-objective"):
        raise ValueError(f"unknown class {cls!r}")
    dim, seed = keys.get("n"), keys.get("seed")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"n must be a positive integer, got {dim!r}")
    if seed is not None:
        typed("seed", seed, int, "an integer")

    def block(name, *shape):  # None in shape matches any length
        v = meta.get(name)
        got = v.shape if isinstance(v, np.ndarray) else None
        if got is None or len(got) != len(shape) or \
                any(w not in (None, g) for w, g in zip(shape, got)):
            raise ValueError(f"{kind} problem needs block meta.{name} of shape "
                             f"{shape} for n = {dim}, got {got}")
        return v

    mu, lip = typed("mu", keys.get("mu")), typed("lip", keys.get("lip"))
    if cls == "monotone-vi":
        if kind == "linear-vi":
            M, lin = _linear_vi_operator(block("diag", dim), block("skew", dim, dim))
            offset = block("offset", dim)
            op = lambda z, _lin=lin, _off=offset: _lin(z) + _off
        elif kind == "bilinear-saddle":
            B = block("bilinear", None, None)
            if sum(B.shape) != dim:
                raise ValueError(f"block meta.bilinear has shape {B.shape}, "
                                 f"whose sides must sum to n = {dim}")
            M = _bilinear_matrix(B, typed("meta.mu_x", meta.get("mu_x")),
                                 typed("meta.mu_y", meta.get("mu_y")))
            op = M.dot
        else:
            raise ValueError(f"unknown problem kind {kind!r}")
        fs_name = keys.get("feasible_set")
        if fs_name == "whole-space":
            fset = WholeSpace(dim)
        elif fs_name == "nonnegative-orthant":
            fset = NonnegativeOrthant(dim)
        else:
            raise ValueError(f"unknown feasible set {fs_name!r}")
        restricted = typed("domain_restricted",
                           keys.get("domain_restricted", False), bool,
                           "true or false")
        return MonotoneProblem(dimension=dim, operator=op, feasible_set=fset,
                               mu=mu, lip=lip,
                               solution=arrays.get("solution"),
                               domain_restricted=restricted,
                               kind=kind, seed=seed, meta=meta)
    if kind == "quadratic":
        value, gradient, fused = _quadratic_functions(
            block("hessian", dim, dim), block("linear", dim))
    elif kind == "logistic":
        value, gradient, fused = _logistic_functions(
            block("data", None, dim), typed("meta.lam", meta.get("lam")))
    else:
        raise ValueError(f"unknown objective kind {kind!r}")
    fs = keys.get("optimal_value")
    return SmoothObjective(dimension=dim, value=value, gradient=gradient,
                           value_and_gradient=fused, mu=mu, lip=lip,
                           minimizer=arrays.get("minimizer"),
                           optimal_value=None if fs is None else
                           typed("optimal_value", fs),
                           kind=kind, seed=seed, meta=meta)


def write_problem(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_problem(obj))


def read_problem(path) -> Union[MonotoneProblem, SmoothObjective]:
    with open(path) as fh:
        return parse_problem(fh.read())

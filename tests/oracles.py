"""Reference implementations that spell out the plain arithmetic.

The library runs every variational-inequality method as a parameter mask
of solvers.step_extra_point, and the minimization scheme through the
generic nine-coefficient step. These hand-written updates exist only to
cross-check that: the tests compare the library against them bit for bit
(or to roundoff, for the reduced minimization form).

The generator oracles keep the full 120-step scale search of the linear-VI
generator, a power iteration through np.linalg.norm and the matmul
operator, and the orthant reference solve written the same way. The library
stops the search at its fixed point and uses ndarray.dot and core.norm2;
the tests require identical instance text.
"""

import math

import numpy as np

from viaccel.core import MonotoneProblem, NonnegativeOrthant, WholeSpace
from viaccel.solvers import OptState, ViState


def _advance(problem, state, z_new, z_half):
    return ViState(z_curr=z_new, z_prev=state.z_curr,
                   f_curr=problem.operator(z_new), f_prev=state.f_curr,
                   z_half=z_half)


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


def step_opt_extra_point_simplified(objective, state, theta, delta):
    """The reduced form of the default-parameter scheme with y = p.

    Algebraically identical to step_opt_extra_point at the default
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
    return OptState(x_curr=x_new, v_curr=v_new)


def oracle_step(method, problem, params, restricted):
    """The reference stepper for one named VI method, as a state -> state map.

    ``restricted`` is the projected-half-point choice run() derives from the
    problem; only extra-gradient uses it, as nesterov never projects.
    """
    p = params
    return {
        "vanilla": lambda s: step_vanilla(problem, s, p.alpha),
        "extra-gradient": lambda s: step_extragradient(problem, s, p.alpha, p.eta,
                                                       restricted=restricted),
        "ogda": lambda s: step_ogda(problem, s, p.alpha, p.tau),
        "heavy-ball": lambda s: step_heavy_ball(problem, s, p.alpha, p.gamma),
        "nesterov": lambda s: step_nesterov(problem, s, p.alpha, p.beta),
    }[method]


def power_iteration_norm(op, dimension=None, iters=500, seed=0, adjoint=None):
    """Spectral-norm estimate via power iteration on M^T M, as plain numpy."""
    if isinstance(op, np.ndarray):
        M = np.asarray(op, dtype=np.float64)
        apply_m = lambda v: M @ v
        apply_t = lambda v: M.T @ v
        dimension = M.shape[1]
    else:
        apply_m, apply_t = op, adjoint
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dimension)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    for _ in range(iters):
        w = apply_t(apply_m(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(apply_m(v)))


def solve_linear_reference(M, q, fset, lip, tol=1e-12):
    """Whole-space solve, or projected half steps on the orthant to tol."""
    if isinstance(fset, WholeSpace):
        return np.linalg.solve(M, -q)
    alpha = 1.0 / (4.0 * lip)
    z = np.zeros(len(q))
    for _ in range(1_000_000):
        w = M @ z + q
        if float(np.linalg.norm(z - np.maximum(z - w, 0.0))) <= tol:
            return z
        half = np.maximum(z - alpha * w, 0.0)
        z = np.maximum(z - alpha * (M @ half + q), 0.0)
    raise RuntimeError("complementarity reference solve did not converge")


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

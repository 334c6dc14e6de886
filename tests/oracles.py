"""Reference steppers that spell out each named method's own arithmetic.

The library runs every variational-inequality method as a parameter mask
of solvers.step_extra_point, and the minimization scheme through the
generic nine-coefficient step. These hand-written updates exist only to
cross-check that: the tests compare the library against them bit for bit
(or to roundoff, for the reduced minimization form).
"""

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

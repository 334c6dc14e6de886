"""Stepper worked examples, specialization identities, and run() behavior."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import oracles
import viaccel as va
from viaccel import presets as PR
from viaccel import solvers as S
from viaccel.solvers import METHODS, OPT_METHODS, VI_METHODS, Y_RULES


def _identity(n=1, fset=None, solution=None):
    fset = fset if fset is not None else va.WholeSpace(n)
    return va.MonotoneProblem(dimension=n, operator=lambda z: z.copy(),
                              feasible_set=fset, mu=1.0, lip=1.0,
                              solution=solution)


def _quad_objective():
    return va.SmoothObjective(dimension=1, value=lambda x: 0.5 * float(x @ x),
                              gradient=lambda x: x.copy(), mu=1.0, lip=1.0,
                              minimizer=[0.0], optimal_value=0.0)


def test_method_catalog():
    assert VI_METHODS == ("vanilla", "extra-gradient", "ogda", "heavy-ball",
                         "nesterov", "extra-point")
    assert OPT_METHODS == ("opt-extra-point",)
    assert METHODS == VI_METHODS + OPT_METHODS
    assert Y_RULES == ("p", "grad-step")


def test_vi_params_validation():
    va.ViParams(alpha=0.1)  # defaults are all-zero momentum terms
    with pytest.raises(ValueError):
        va.ViParams(alpha=-0.1)
    with pytest.raises(ValueError):
        va.ViParams(alpha=0.1, tau=-1.0)
    with pytest.raises(ValueError):
        va.ViParams(alpha=np.nan)
    with pytest.raises(ValueError):
        va.ViParams(alpha=np.inf)


def test_opt_params_validation():
    t = (0.5, 0.5, 0.5, 0.2, 0.4, 1.3, 0.5, 0.5, 0.5)
    va.OptParams(t=t, theta=1.0, c=0.5)  # theta may reach 1
    with pytest.raises(ValueError):
        va.OptParams(t=t[:8], theta=0.5, c=0.5)
    with pytest.raises(ValueError):
        va.OptParams(t=t[:8] + (-0.1,), theta=0.5, c=0.5)
    with pytest.raises(ValueError):
        va.OptParams(t=t, theta=0.0, c=0.5)
    with pytest.raises(ValueError):
        va.OptParams(t=t, theta=1.5, c=0.5)
    with pytest.raises(ValueError):
        va.OptParams(t=t, theta=0.5, c=0.0)
    # delta, the paper defaults' inner step length t3, must lie in (0, 1)
    for delta in (0.0, 1.0):
        with pytest.raises(ValueError, match="delta"):
            va.default_params(va.REGIME_OPT, 1.0, 4.0, delta=delta)


def test_stop_rule_validation():
    va.StopRule(max_iter=0)
    va.StopRule(max_iter=np.int64(3))
    for bad in (-1, 2.5, 3.0, math.nan, "3"):
        with pytest.raises(ValueError, match="max_iter"):
            va.StopRule(max_iter=bad)
    with pytest.raises(ValueError):
        va.StopRule(max_iter=10, residual_tol=-1.0)


def test_vi_state_duplicates_start():
    p = _identity(2)
    st = va.vi_state(p, np.array([1.0, -2.0]))
    assert np.array_equal(st.z_curr, st.z_prev)
    assert np.array_equal(st.f_curr, st.f_prev)
    assert np.array_equal(st.f_curr, [1.0, -2.0])
    # the two-point history is the whole state: no half point is kept
    assert va.ViState._fields == ("z_curr", "z_prev", "f_curr", "f_prev")


def test_vanilla_step_examples():
    p = _identity()
    st = va.vi_state(p, np.array([1.0]))
    assert oracles.step_vanilla(p, st, 0.5).z_curr[0] == 0.5
    # orthant, F(z) = z - 2: from 0 the full step lands at 2, no clipping
    po = va.MonotoneProblem(dimension=1, operator=lambda z: z - 2.0,
                            feasible_set=va.NonnegativeOrthant(1),
                            mu=1.0, lip=1.0, solution=[2.0])
    assert oracles.step_vanilla(po, va.vi_state(po, np.array([0.0])), 1.0).z_curr[0] == 2.0
    # orthant, F(z) = z + 1: the step from 0 is clipped back to 0
    pc = va.MonotoneProblem(dimension=1, operator=lambda z: z + 1.0,
                            feasible_set=va.NonnegativeOrthant(1),
                            mu=1.0, lip=1.0, solution=[0.0])
    assert oracles.step_vanilla(pc, va.vi_state(pc, np.array([0.0])), 1.0).z_curr[0] == 0.0


def test_extragradient_step_example():
    # half = 1 - 0.25 = 0.75, next = 1 - 0.25 * 0.75 = 13/16
    p = _identity()
    st = va.vi_state(p, np.array([1.0]))
    out = oracles.step_extragradient(p, st, 0.25, 0.25)
    assert out.z_half[0] == 0.75
    assert out.z_curr[0] == 0.8125


def test_ogda_step_example():
    # next = 1 - 0.5 * 1 - 0.25 * (1 - 2) = 0.75
    p = _identity()
    st = va.ViState(z_curr=np.array([1.0]), z_prev=np.array([2.0]),
                    f_curr=np.array([1.0]), f_prev=np.array([2.0]))
    assert oracles.step_ogda(p, st, 0.5, 0.25).z_curr[0] == 0.75


def test_heavy_ball_step_example():
    # next = 1 - 0.5 * 1 + 0.1 * (1 - 0) = 0.6
    p = _identity()
    st = va.ViState(z_curr=np.array([1.0]), z_prev=np.array([0.0]),
                    f_curr=np.array([1.0]), f_prev=np.array([0.0]))
    assert oracles.step_heavy_ball(p, st, 0.5, 0.1).z_curr[0] == 0.6


def test_nesterov_step_example():
    # w = 1.2, next = 1 - 0.5 * 1.2 + 0.2 * (1 - 0) = 0.6
    p = _identity()
    st = va.ViState(z_curr=np.array([1.0]), z_prev=np.array([0.0]),
                    f_curr=np.array([1.0]), f_prev=np.array([0.0]))
    assert oracles.step_nesterov(p, st, 0.5, 0.2).z_curr[0] == pytest.approx(0.6, rel=1e-15)


def test_extra_point_step_example():
    # half = 1 + 0.1 - 0.25 = 0.85
    # next = 1 - 0.25*0.85 + 0.1*1 - 0.05*(1 - 0) = 0.8375
    p, inputs = oracles.recording(_identity())
    st = va.ViState(z_curr=np.array([1.0]), z_prev=np.array([0.0]),
                    f_curr=np.array([1.0]), f_prev=np.array([0.0]))
    prm = va.ViParams(alpha=0.25, beta=0.1, gamma=0.1, eta=0.25, tau=0.05)
    out = va.vi_stepper(p, prm)(st)
    half, nxt = inputs  # F is handed the half point, then the next point
    assert half[0] == pytest.approx(0.85, rel=1e-15)
    assert np.array_equal(nxt, out.z_curr)
    assert out.z_curr[0] == pytest.approx(0.8375, rel=1e-15)


def test_solution_is_a_fixed_point_of_every_vi_method():
    prob, _ = va.gen_linear_vi(8, 5, 0.05)
    zs = prob.solution
    params = {
        "vanilla": va.ViParams(alpha=0.01),
        "extra-gradient": va.ViParams(alpha=0.01, eta=0.01),
        "ogda": va.ViParams(alpha=0.01, tau=0.005),
        "heavy-ball": va.ViParams(alpha=0.01, gamma=0.1),
        "nesterov": va.ViParams(alpha=0.01, beta=0.1, gamma=0.1),
        "extra-point": va.default_params(va.REGIME_VI_UNRESTRICTED,
                                         prob.mu, prob.lip),
    }
    for method in VI_METHODS:
        tr = va.run(prob, method, params[method], zs, va.StopRule(max_iter=5))
        assert np.linalg.norm(tr.final_point - zs) <= 1e-9 * (1 + np.linalg.norm(zs)), method


def test_extra_point_specializes_to_named_steppers_bitwise():
    prob, _ = va.gen_linear_vi(20, 1, 1e-2)
    cases = [
        (va.ViParams(alpha=0.02),
         lambda s: oracles.step_vanilla(prob, s, 0.02)),
        (va.ViParams(alpha=0.02, gamma=0.3),
         lambda s: oracles.step_heavy_ball(prob, s, 0.02, 0.3)),
        (va.ViParams(alpha=0.02, tau=0.01),
         lambda s: oracles.step_ogda(prob, s, 0.02, 0.01)),
        (va.ViParams(alpha=0.02, eta=0.02),
         lambda s: oracles.step_extragradient(prob, s, 0.02, 0.02)),
        (va.ViParams(alpha=0.02, beta=0.3, gamma=0.3),
         lambda s: oracles.step_nesterov(prob, s, 0.02, 0.3)),
    ]
    z0 = np.ones(20)
    for prm, named in cases:
        sa = va.vi_state(prob, z0)
        sb = va.vi_state(prob, z0)
        for _ in range(100):
            sa = va.vi_stepper(prob, prm)(sa)
            sb = named(sb)
            assert np.array_equal(sa.z_curr, sb.z_curr)


def _bits(column):
    return np.array([np.nan if v is None else v for v in column]).tobytes()


def _assert_trace_matches_the_plain_loop(trace, target, step, state,
                                         potential):
    """Every trace column but elapsed_ns, and the final point, bit for bit
    against a plain loop: a reference stepper, harness.merit for the merits,
    the squared distance to the reference point and the potential."""
    opt = isinstance(target, va.SmoothObjective)
    ref = target.minimizer if opt else target.solution
    rows = []
    for k in range(trace.iterations + 1):
        if k:
            state = step(state)
        z = state.x_curr if opt else state.z_curr
        rows.append((k, *va.merit(target, z), float((z - ref) @ (z - ref)),
                     float(potential(state))))
    for i, name in enumerate(va.TRACE_FIELDS[:-1]):
        assert _bits(trace.column(name)) == _bits(r[i] for r in rows), name
    assert np.array_equal(trace.final_point, z)


@pytest.mark.parametrize("constrained", [False, True])
def test_run_matches_oracle_steppers_bitwise(constrained):
    # every coefficient is nonzero, so run() must drop those outside each
    # method's mask (and nesterov must take gamma from beta)
    prob, _ = va.gen_linear_vi(20, 7, 1e-2, constrained=constrained)
    a = 1.0 / (4.0 * prob.lip)
    prm = va.ViParams(alpha=a, beta=0.3, gamma=0.2, eta=0.8 * a, tau=0.5 * a)
    z0 = prob.feasible_set.project(np.ones(20))
    phi = va.ogda_potential(prob)  # reads all four history arrays
    for method in VI_METHODS:
        seen = []
        tr = va.run(prob, method, prm, z0, va.StopRule(max_iter=300),
                    potential=lambda s: seen.append(s) or phi(s))
        step = oracles.oracle_step(method, prob, prm, restricted=constrained)
        st = va.vi_state(prob, z0)
        off_set = 0
        for got in seen[1:]:
            st = step(st)
            for name in va.ViState._fields:  # kept states keep their values
                assert np.array_equal(getattr(got, name), getattr(st, name)), \
                    (method, name)
            off_set += int(st.z_half.min() < 0.0)
        assert len(seen) == 301
        assert np.array_equal(tr.final_point, st.z_curr)
        if constrained and method == "nesterov":
            assert off_set > 0  # the unprojected half point left the orthant
        _assert_trace_matches_the_plain_loop(tr, prob, step,
                                             va.vi_state(prob, z0), phi)


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("method", ["extra-gradient", "nesterov",
                                    "extra-point"])
def test_run_hands_the_operator_the_masks_half_point(method, constrained):
    # on the orthant, extra-gradient and extra-point hand F a projected
    # half point and nesterov an unprojected one; on the whole space no
    # half point is projected. Each is the oracle's half point bit for bit.
    prob, _ = va.gen_linear_vi(20, 7, 1e-2, constrained=constrained)
    recorded, inputs = oracles.recording(prob)
    a = 1.0 / (4.0 * prob.lip)
    prm = va.ViParams(alpha=a, beta=0.3, gamma=0.2, eta=0.8 * a, tau=0.5 * a)
    z0 = prob.feasible_set.project(np.ones(20))
    va.run(recorded, method, prm, z0, va.StopRule(max_iter=300))
    # F is handed z0, then per step the half point and the next point
    assert len(inputs) == 1 + 2 * 300
    projected = constrained and S._masked(method, prm)[1]
    step = oracles.oracle_step(method, prob, prm, restricted=projected)
    st = va.vi_state(prob, z0)
    for half in inputs[1::2]:
        st = step(st)
        assert np.array_equal(half, st.z_half)
    if constrained:
        least = min(half.min() for half in inputs[1::2])
        assert least >= 0.0 if projected else least < 0.0


def test_opt_run_matches_the_plain_loop_bitwise():
    obj = va.gen_quadratic(20, 5, 1e-2)
    prm = va.default_params(va.REGIME_OPT, obj.mu, obj.lip)
    phi = va.opt_potential(obj, prm.c)
    x0 = np.ones(20)
    tr = va.run(obj, "opt-extra-point", prm, x0, va.StopRule(max_iter=300),
                potential=phi)
    _assert_trace_matches_the_plain_loop(
        tr, obj, va.opt_stepper(obj, prm, y_rule="p"),
        va.opt_state(obj, x0), phi)


def _assert_later_steps_keep(step, state, made):
    """Scratch never reaches a state: a stepped state keeps its values
    through the next two steps, and the arrays named in made are new in
    each of the three states."""
    kept = [np.copy(v) for v in state]
    states = [state, step(state)]
    states.append(step(states[1]))
    for name, v, w in zip(state._fields, state, kept):
        assert np.array_equal(v, w), name
    arrays = [getattr(s, name) for s in states for name in made]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), i


def _check_vi_step(prob, method, restricted):
    a = 1.0 / (4.0 * prob.lip)
    prm, _ = S._masked(method, va.ViParams(alpha=a, beta=0.3, gamma=0.2,
                                           eta=0.8 * a, tau=0.5 * a))
    rng = np.random.default_rng(1)
    zc, zp = (prob.feasible_set.project(rng.standard_normal(6))
              for _ in range(2))
    st = va.ViState(z_curr=zc, z_prev=zp, f_curr=prob.operator(zc),
                    f_prev=prob.operator(zp))
    before = [v.copy() for v in st]
    step = va.vi_stepper(prob, prm, restricted=restricted)
    out = step(st)
    for name, kept in zip(va.ViState._fields, before):
        assert np.array_equal(getattr(st, name), kept), name
    assert out.z_prev is zc and out.f_prev is st.f_curr
    made = ("z_curr", "f_curr")
    for name in made:
        assert not any(np.shares_memory(getattr(out, name), v) for v in st)
    assert not np.shares_memory(out.z_curr, out.f_curr)
    _assert_later_steps_keep(step, out, made)


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("method", VI_METHODS)
def test_step_writes_no_input_array(method, constrained):
    prob, _ = va.gen_linear_vi(6, 3, 5e-2, constrained=constrained)
    _check_vi_step(prob, method, constrained)


@pytest.mark.parametrize("method", VI_METHODS)
def test_step_keeps_states_on_a_set_that_returns_its_input(method):
    # the ball projects a point inside it to that point itself, and every
    # point of these steps lies inside
    prob, _ = va.gen_linear_vi(6, 3, 5e-2)
    ball = oracles.EuclideanBall(np.zeros(6), 1e3)
    _check_vi_step(dataclasses.replace(prob, feasible_set=ball, solution=None),
                   method, True)


@pytest.mark.parametrize("method, constrained", [
    ("extra-gradient", False), ("nesterov", False), ("extra-point", False),
    ("nesterov", True)])
def test_an_unprojected_half_point_stays_in_the_steppers_scratch(method,
                                                                 constrained):
    # each step builds its half point in the same scratch vector and
    # hands F that array, which no state ever holds
    prob, _ = va.gen_linear_vi(6, 3, 5e-2, constrained=constrained)
    handed, operator = [], prob.operator
    prob.operator = lambda z: handed.append(z) or operator(z)
    a = 1.0 / (4.0 * prob.lip)
    step = va.vi_stepper(prob, *S._masked(method, va.ViParams(
        alpha=a, beta=0.3, gamma=0.2, eta=0.8 * a, tau=0.5 * a)))
    states = [va.vi_state(prob, prob.feasible_set.project(np.ones(6)))]
    for _ in range(3):
        states.append(step(states[-1]))
    halves = handed[1::2]  # after F(z0): each step's half, then next point
    assert len(halves) == 3 and all(h is halves[0] for h in halves)
    assert not any(np.shares_memory(halves[0], v) for s in states for v in s)


@pytest.mark.parametrize("y_rule", Y_RULES)
def test_opt_step_writes_no_input_array(y_rule):
    obj = va.gen_quadratic(6, 3, 5e-2)
    step = va.opt_stepper(obj, va.default_params(va.REGIME_OPT, obj.mu,
                                                 obj.lip), y_rule)
    rng = np.random.default_rng(1)
    x, v = rng.standard_normal(6), rng.standard_normal(6)
    st = va.OptState(x, v, *obj.value_and_gradient(x))
    before = [np.copy(a) for a in st]
    out = step(st)
    for name, kept in zip(va.OptState._fields, before):
        assert np.array_equal(getattr(st, name), kept), name
    made = ("x_curr", "v_curr", "g_curr")
    for name in made:
        assert not any(np.shares_memory(getattr(out, name), a)
                       for a in (x, v, st.g_curr)), name
    _assert_later_steps_keep(step, out, made)


@pytest.mark.parametrize("constrained", [False, True])
def test_run_writes_neither_start_nor_kept_states(constrained):
    prob, _ = va.gen_linear_vi(6, 3, 5e-2, constrained=constrained)
    obj = va.gen_quadratic(6, 3, 5e-2)
    a = 1.0 / (4.0 * prob.lip)
    vi_prm = va.ViParams(alpha=a, beta=0.3, gamma=0.2, eta=0.8 * a, tau=0.5 * a)
    opt_prm = va.default_params(va.REGIME_OPT, obj.mu, obj.lip)
    # beta == gamma: extra-point forms beta (z - z_prev) once for both points
    shared_prm = dataclasses.replace(vi_prm, gamma=vi_prm.beta)
    runs = [(m, (obj, opt_prm) if m in OPT_METHODS else (prob, vi_prm))
            for m in METHODS] + [("extra-point", (prob, shared_prm))]
    for method, (target, prm) in runs:
        start = target.solution + 1.0 if target is prob else np.ones(6)
        kept_start = start.copy()
        seen, copies = [], []

        def keep(s):
            seen.append(s)
            copies.append([np.copy(v) for v in s])
            return 0.0

        va.run(target, method, prm, start, va.StopRule(max_iter=40),
               potential=keep)
        assert np.array_equal(start, kept_start), method
        assert len(seen) == 41
        for s, c in zip(seen, copies):
            for v, w in zip(s, c):
                assert np.array_equal(v, w), method


# per step: operator calls (one more when eta or beta is on) and, on the
# orthant, projections (the step's, the projected half point's when the
# half point is built, and the merit's); the whole space's identity
# projection is called only by the start's feasibility check
STEP_CALLS = {"vanilla": (1, 2), "extra-gradient": (2, 3), "ogda": (1, 2),
              "heavy-ball": (1, 2), "nesterov": (2, 2), "extra-point": (2, 3)}


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("method", VI_METHODS)
def test_run_makes_exactly_the_masks_oracle_calls(method, constrained):
    prob, _ = va.gen_linear_vi(6, 3, 5e-2, constrained=constrained)
    counts = {"operator": 0, "project": 0}

    def counted(name, fn):
        def wrapped(z):
            counts[name] += 1
            return fn(z)
        return wrapped

    prob.operator = counted("operator", prob.operator)
    prob.feasible_set.project = counted("project", prob.feasible_set.project)
    a = 1.0 / (4.0 * prob.lip)
    prm = va.ViParams(alpha=a, beta=0.3, gamma=0.2, eta=0.8 * a, tau=0.5 * a)
    tr = va.run(prob, method, prm, np.ones(6), va.StopRule(max_iter=50))
    ops, projections = STEP_CALLS[method] if constrained else (
        STEP_CALLS[method][0], 0)
    # before the loop: F(z0) for the state, the start's feasibility check
    # and, on the orthant, the merit at k = 0
    assert counts == {"operator": 1 + 50 * ops,
                      "project": 1 + constrained + 50 * projections}
    assert tr.meta["oracle_calls"] == counts


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("method", VI_METHODS)
def test_divergent_run_records_the_oracle_calls_it_made(method, constrained):
    prob, _ = va.gen_linear_vi(6, 3, 5e-2, constrained=constrained)
    counts = {"operator": 0, "project": 0}

    def counted(name, fn):
        def wrapped(z):
            counts[name] += 1
            return fn(z)
        return wrapped

    prob.operator = counted("operator", prob.operator)
    prob.feasible_set.project = counted("project", prob.feasible_set.project)
    a = 40.0 / prob.lip
    prm = va.ViParams(alpha=a, beta=0.3, gamma=0.2, eta=0.8 * a, tau=0.5 * a)
    with pytest.raises(va.DivergenceError) as info:
        va.run(prob, method, prm, np.ones(6), va.StopRule(max_iter=10000))
    tr = info.value.trace
    steps = len(tr.column("k"))  # the last step's iterate has no row
    ops, projections = STEP_CALLS[method] if constrained else (
        STEP_CALLS[method][0], 0)
    assert steps >= 2
    assert counts == {"operator": 1 + steps * ops,
                      "project": 1 + steps * projections}
    assert tr.meta["oracle_calls"] == counts


def test_opt_run_makes_two_gradient_calls_and_one_fused_call_per_step():
    obj = va.gen_quadratic(12, 3, 5e-2)
    counts = dict.fromkeys(("gradient", "value", "value_and_gradient"), 0)

    def counted(name, fn):
        def wrapped(x):
            counts[name] += 1
            return fn(x)
        return wrapped

    for name in counts:
        setattr(obj, name, counted(name, getattr(obj, name)))
    prm = va.default_params(va.REGIME_OPT, obj.mu, obj.lip)
    tr = va.run(obj, "opt-extra-point", prm, np.ones(12),
                va.StopRule(max_iter=50),
                potential=va.opt_potential(obj, prm.c))
    # f and grad f at the start, then per step grad f at y and z and one
    # fused call at the new x; merits and the potential read the cache
    assert counts == {"gradient": 2 * 50, "value": 0,
                      "value_and_gradient": 1 + 50}
    assert tr.meta["oracle_calls"] == {"gradient": 2 * 50,
                                       "value_and_gradient": 1 + 50}
    # a divergent run records the calls of every step it took
    for name in counts:
        counts[name] = 0
    t = list(prm.t)
    t[2] = 60.0  # z overshoots along every curvature
    with pytest.raises(va.DivergenceError) as info:
        va.run(obj, "opt-extra-point", dataclasses.replace(prm, t=tuple(t)),
               np.ones(12), va.StopRule(max_iter=10000))
    steps = len(info.value.trace.column("k"))
    assert steps >= 2
    assert counts == {"gradient": 2 * steps, "value": 0,
                      "value_and_gradient": 1 + steps}
    assert info.value.trace.meta["oracle_calls"] == {
        "gradient": 2 * steps, "value_and_gradient": 1 + steps}


@pytest.mark.parametrize("y_rule", Y_RULES)
def test_opt_state_caches_match_fresh_evaluations(y_rule):
    for obj in (va.gen_quadratic(6, 2, 0.05), va.gen_logistic(6, 9, 0.01, 2),
                _quad_objective()):
        prm = va.default_params(va.REGIME_OPT, obj.mu, obj.lip)
        st = va.opt_state(obj, np.linspace(-1.0, 2.0, obj.dimension))
        for _ in range(10):
            assert float(st.f_curr).hex() == float(obj.value(st.x_curr)).hex()
            assert st.g_curr.tobytes() == obj.gradient(st.x_curr).tobytes()
            st = va.opt_stepper(obj, prm, y_rule=y_rule)(st)


def test_nesterov_run_refuses_domain_restricted_problems():
    pr = va.MonotoneProblem(dimension=2, operator=lambda z: z.copy(),
                            feasible_set=oracles.Box(np.zeros(2), np.ones(2)),
                            mu=1.0, lip=1.0, solution=np.zeros(2),
                            domain_restricted=True)
    with pytest.raises(ValueError):
        va.run(pr, "nesterov", va.ViParams(alpha=0.1, beta=0.1),
               np.full(2, 0.5), va.StopRule(max_iter=3))


_QUAD = va.gen_quadratic(2, 0, 0.5)
_OPT_PARAMS = va.default_params(va.REGIME_OPT, _QUAD.mu, _QUAD.lip)


@pytest.mark.parametrize("method, changed, message", [
    ("nesterov", dict(params=va.ViParams(alpha=0.1, beta=0.1)),
     "need the projected half point"),
    ("extra-gradient", {}, "positive half-step"),
    ("vanilla", dict(start=[2.0, 0.5]), "start point is not feasible"),
    ("vanilla", dict(start=[0.5]), "expected dimension 2"),
    ("opt-extra-point", {}, "expects a Smooth"),
    ("newton", {}, "unknown method"),
    ("vanilla", dict(params=_OPT_PARAMS), "vanilla takes ViParams, not Opt"),
    ("extra-point", dict(params=None), "takes ViParams, not NoneType"),
    ("opt-extra-point", dict(target=_QUAD), "takes OptParams, not ViParams"),
    ("vanilla", dict(stop=5), "stop must be a StopRule, not int"),
    ("opt-extra-point", dict(target=_QUAD, params=_OPT_PARAMS, stop=None),
     "stop must be a StopRule"),
    ("vanilla", dict(potential=5), "potential must be callable or None"),
])
def test_run_checks_its_preconditions_before_any_step(method, changed,
                                                      message):
    pr = va.MonotoneProblem(dimension=2, operator=lambda z: z.copy(),
                            feasible_set=oracles.Box(np.zeros(2), np.ones(2)),
                            mu=1.0, lip=1.0, solution=np.zeros(2),
                            domain_restricted=True)
    args = {"target": pr, "method": method, "params": va.ViParams(alpha=0.1),
            "start": [0.5, 0.5], "stop": va.StopRule(max_iter=0),
            "potential": None, **changed}
    for check in (va.check_run, va.run):
        with pytest.raises(ValueError, match=message):
            check(**args)
    # nesterov without momentum builds no half point, so it may run
    start_only, one_step = (
        va.check_run(pr, "nesterov", va.ViParams(alpha=0.1), [0.5, 0.5],
                     va.StopRule(max_iter=k))() for k in (0, 1))
    z0 = start_only.final_point
    assert z0.dtype == np.float64 and z0.tolist() == [0.5, 0.5]
    assert one_step.meta["oracle_calls"] == {"operator": 2, "project": 4}


@pytest.mark.parametrize("method", METHODS)
def test_run_binds_one_stepper_per_call(monkeypatch, method):
    # run steps with the stepper check_run binds and binds no second one
    bound = []
    for name in ("vi_stepper", "opt_stepper"):
        fn = getattr(S, name)
        monkeypatch.setattr(S, name, lambda *a, fn=fn, **kw:
                            bound.append(fn) or fn(*a, **kw))
    if method in OPT_METHODS:
        target = va.gen_quadratic(4, 1, 0.1)
        prm = va.default_params(va.REGIME_OPT, target.mu, target.lip)
    else:
        target, _ = va.gen_linear_vi(4, 1, 0.1, constrained=True)
        prm = va.ViParams(alpha=0.1, beta=0.1, eta=0.1, tau=0.01)
    va.run(target, method, prm, np.ones(4), va.StopRule(max_iter=3))
    assert len(bound) == 1


def _refuses_the_half_point(call) -> bool:
    try:
        call()
    except ValueError as exc:
        return "need the projected half point" in str(exc)
    return False


@pytest.mark.parametrize("method", VI_METHODS)
def test_check_run_refuses_the_half_point_exactly_when_binding_does(method):
    # check_run binds the stepper run steps with, so on every set the
    # refusal is vi_stepper's own: only nesterov with beta > 0, on the
    # restricted box
    refused = []
    for fset, restricted in ((va.WholeSpace(2), False),
                             (va.NonnegativeOrthant(2), False),
                             (oracles.Box(np.zeros(2), np.ones(2)), True)):
        pr = va.MonotoneProblem(dimension=2, operator=lambda z: z.copy(),
                                feasible_set=fset, mu=1.0, lip=1.0,
                                domain_restricted=restricted)
        for beta, eta in itertools.product((0.0, 0.3), (0.0, 0.1)):
            prm = va.ViParams(alpha=0.1, beta=beta, gamma=0.2, eta=eta,
                              tau=0.05)
            binds = _refuses_the_half_point(
                lambda: S.vi_stepper(pr, *S._masked(method, prm)))
            checks = _refuses_the_half_point(
                lambda: S.check_run(pr, method, prm, [0.5, 0.5],
                                    S.StopRule(max_iter=0)))
            assert checks == binds, (fset, beta, eta)
            if binds:
                refused.append((restricted, beta))
    assert refused == ([(True, 0.3)] * 2 if method == "nesterov" else [])


def test_tuned_vi_rows_set_only_their_methods_coefficients():
    # the mask drops every other coefficient, and nesterov's gamma is its
    # beta whatever a row says
    for rows in PR.TUNED.values():
        for method, row in rows.items():
            if method in VI_METHODS:
                nonzero = {f.name for f in dataclasses.fields(row)
                           if getattr(row, f.name) != 0.0}
                assert nonzero <= set(S.VI_MASKS[method]), (method, row)


def test_state_caches_match_fresh_operator_evaluations():
    prob, _ = va.gen_linear_vi(6, 2, 0.05)
    prm = va.default_params(va.REGIME_VI_UNRESTRICTED, prob.mu, prob.lip)
    st = va.vi_state(prob, np.ones(6))
    for _ in range(10):
        st = va.vi_stepper(prob, prm)(st)
        assert np.array_equal(st.f_curr, prob.operator(st.z_curr))
        assert np.array_equal(st.f_prev, prob.operator(st.z_prev))


def test_domain_restricted_gating():
    box = oracles.Box(np.zeros(2), np.ones(2))
    pr = va.MonotoneProblem(dimension=2, operator=lambda z: z.copy(),
                            feasible_set=box, mu=1.0, lip=1.0,
                            solution=np.zeros(2), domain_restricted=True)
    st = va.vi_state(pr, np.full(2, 0.5))
    with pytest.raises(ValueError):
        oracles.step_nesterov(pr, st, 0.1, 0.1)
    with pytest.raises(ValueError):
        oracles.step_extragradient(pr, st, 0.1, 0.1, restricted=False)
    out = oracles.step_extragradient(pr, st, 0.1, 0.1, restricted=True)
    assert box.contains(out.z_half, tol=0.0)
    # the projected variant also keeps the extra-point half step feasible
    prm = va.ViParams(alpha=0.1, beta=0.2, gamma=0.2, eta=0.1, tau=0.01)
    recorded, inputs = oracles.recording(pr)
    va.vi_stepper(recorded, prm, restricted=True)(st)
    assert box.contains(inputs[0], tol=0.0)
    # only a half point off the current iterate needs the projection
    with pytest.raises(ValueError):
        va.vi_stepper(pr, va.ViParams(alpha=0.1, beta=0.1, gamma=0.1))(st)
    va.vi_stepper(pr, va.ViParams(alpha=0.1, gamma=0.1, tau=0.01))(st)


def test_steppers_check_their_inputs_once_when_bound():
    pr = va.MonotoneProblem(dimension=2, operator=lambda z: z.copy(),
                            feasible_set=oracles.Box(np.zeros(2), np.ones(2)),
                            mu=1.0, lip=1.0, solution=np.zeros(2),
                            domain_restricted=True)
    # no state is needed to refuse a stepper
    with pytest.raises(ValueError, match="projected half point"):
        S.vi_stepper(pr, va.ViParams(alpha=0.1, eta=0.1))
    obj = _quad_objective()
    with pytest.raises(ValueError, match="y_rule"):
        S.opt_stepper(obj, va.default_params(va.REGIME_OPT, 1.0, 1.0),
                      "midpoint")


def test_opt_step_worked_example_both_y_rules():
    obj = _quad_objective()
    prm = va.default_params(va.REGIME_OPT, 1.0, 1.0)
    st = va.opt_state(obj, [1.0])
    assert va.opt_stepper(obj, prm, y_rule="grad-step")(st).x_curr[0] == 0.0
    got = va.opt_stepper(obj, prm, y_rule="p")(st).x_curr[0]
    assert got == pytest.approx(4.0 / 9.0, rel=1e-14)
    with pytest.raises(ValueError):
        va.opt_stepper(obj, prm, y_rule="midpoint")(st)


def test_simplified_opt_stepper_matches_generic():
    obj = va.gen_quadratic(10, 5, 0.02)
    prm = va.default_params(va.REGIME_OPT, obj.mu, obj.lip)
    theta, delta = prm.theta, prm.t[2]
    x0 = np.ones(10)
    sa = va.opt_state(obj, x0.copy())
    sb = va.opt_state(obj, x0.copy())
    for _ in range(50):
        sa = va.opt_stepper(obj, prm, y_rule="p")(sa)
        sb = oracles.step_opt_extra_point_simplified(obj, sb, theta, delta)
        scale = max(1.0, float(np.linalg.norm(sa.x_curr)))
        assert np.linalg.norm(sa.x_curr - sb.x_curr) <= 1e-12 * scale
        assert np.linalg.norm(sa.v_curr - sb.v_curr) <= 1e-12 * scale


def test_run_validates_method_and_target_types():
    prob = _identity(1, solution=np.zeros(1))
    obj = _quad_objective()
    rule = va.StopRule(max_iter=3)
    with pytest.raises(ValueError):
        va.run(prob, "momentum", va.ViParams(alpha=0.1), np.ones(1), rule)
    with pytest.raises(ValueError):
        va.run(prob, "opt-extra-point", va.default_params(va.REGIME_OPT, 1, 1),
               np.ones(1), rule)
    with pytest.raises(ValueError):
        va.run(obj, "vanilla", va.ViParams(alpha=0.1), np.ones(1), rule)


def test_run_rejects_infeasible_start_and_zero_eta_extragradient():
    po = va.MonotoneProblem(dimension=2, operator=lambda z: z.copy(),
                            feasible_set=va.NonnegativeOrthant(2),
                            mu=1.0, lip=1.0, solution=np.zeros(2))
    with pytest.raises(ValueError):
        va.run(po, "vanilla", va.ViParams(alpha=0.1), -np.ones(2),
               va.StopRule(max_iter=3))
    with pytest.raises(ValueError):
        va.run(po, "extra-gradient", va.ViParams(alpha=0.1), np.ones(2),
               va.StopRule(max_iter=3))


def test_run_zero_iterations_records_the_start():
    prob = _identity(1, solution=np.zeros(1))
    tr = va.run(prob, "vanilla", va.ViParams(alpha=0.5), np.ones(1),
                va.StopRule(max_iter=0))
    assert tr.column("k") == [0]
    assert tr.terminated_by == "max-iter"
    assert tr.final_point[0] == 1.0


def test_run_terminates_on_tolerance():
    # residual halves each step: 0.5^20 is the first value at or below 1e-6
    prob = _identity(1, solution=np.zeros(1))
    tr = va.run(prob, "vanilla", va.ViParams(alpha=0.5), np.ones(1),
                va.StopRule(max_iter=100, residual_tol=1e-6))
    assert tr.terminated_by == "tolerance"
    assert tr.column("k") == list(range(21))
    assert tr.column("merit_primary")[-1] <= 1e-6


def test_run_raises_divergence_with_partial_trace():
    # vanilla at alpha = 10 on F(z) = z - s maps z - s to -9 (z - s), in
    # exact integers here. With s = 0, |z| = 9^k stays inside the guard up
    # to k = 12 (within DIVERGENCE_NORM / 2 of s, where run skips the
    # guard's own norm) and leaves it at k = 13. With
    # s = 9e11 >= DIVERGENCE_NORM / 4 that shortcut is off: z leaves at
    # k = 12, only 9^12 from s.
    assert 9e11 >= S.DIVERGENCE_NORM / 4
    for s, rows in ((0.0, 13), (9e11, 12)):
        prob = va.MonotoneProblem(dimension=1, operator=lambda z, s=s: z - s,
                                  feasible_set=va.WholeSpace(1), mu=1.0,
                                  lip=1.0, solution=[s])
        with pytest.raises(va.DivergenceError) as info:
            va.run(prob, "vanilla", va.ViParams(alpha=10.0), np.array([s + 1.0]),
                   va.StopRule(max_iter=1000))
        trace = info.value.trace
        assert trace.terminated_by == "divergence"
        assert trace.column("k") == list(range(rows)), s
        assert trace.column("dist_sq")[-1] == float(9 ** (2 * (rows - 1)))
        assert trace.final_point[0] == s + (-9.0) ** rows  # -2.54e12 at s = 0
        assert abs(trace.final_point[0]) > S.DIVERGENCE_NORM


def test_run_step_overflowing_to_inf_is_divergence():
    # 2 - 1.7e308 * 2 overflows to -inf inside the step
    prob = _identity(1, solution=np.zeros(1))
    with pytest.raises(va.DivergenceError) as info:
        va.run(prob, "vanilla", va.ViParams(alpha=1.7e308), np.array([2.0]),
               va.StopRule(max_iter=10))
    assert info.value.trace.terminated_by == "divergence"
    assert info.value.trace.column("k") == [0]
    with pytest.raises(ValueError):  # the boundary still validates input
        oracles.project(va.WholeSpace(1), [np.inf])


def test_run_overflow_under_an_error_filter_is_divergence():
    # F(z) = z at alpha = 1e300: z_1 = (1 - 1e300) z_0 is finite, but its
    # squared distance to z* = 0 overflows; no numpy warning escapes run,
    # whose guard reports the divergence with the partial trace
    prob = _identity(3, solution=np.zeros(3))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(va.DivergenceError) as info:
            va.run(prob, "vanilla", va.ViParams(alpha=1e300), np.ones(3),
                   va.StopRule(max_iter=5))
    trace = info.value.trace
    assert trace.terminated_by == "divergence"
    assert trace.column("k") == [0]
    assert trace.final_point.tolist() == [1.0 - 1e300] * 3
    assert np.geterr() == before  # the caller's error state is restored


def test_run_records_an_overflowing_merit_silently():
    # F(z) = 1e200 z: the iterate shrinks by 3/4 a step and stays within the
    # guard, but ||F z||^2 = 3e400 overflows; the rows record inf, with no
    # numpy warning, and the run ends at max-iter
    lip = 1e200
    prob = va.MonotoneProblem(dimension=3, operator=lambda z: lip * z,
                              feasible_set=va.WholeSpace(3), mu=lip, lip=lip,
                              solution=np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = va.run(prob, "vanilla", va.ViParams(alpha=1 / (4 * lip)),
                       np.ones(3), va.StopRule(max_iter=3))
    assert trace.terminated_by == "max-iter"
    assert trace.column("merit_primary") == [np.inf] * 4
    assert trace.column("dist_sq") == [3 * 0.75 ** (2 * k) for k in range(4)]


def test_run_records_meta_and_is_deterministic():
    prob, _ = va.gen_linear_vi(10, 4, 3e-2)
    prm = va.default_params(va.REGIME_VI_UNRESTRICTED, prob.mu, prob.lip)
    tr1 = va.run(prob, "extra-point", prm, np.ones(10), va.StopRule(max_iter=50))
    tr2 = va.run(prob, "extra-point", prm, np.ones(10), va.StopRule(max_iter=50))
    assert tr1.meta["mu"] == prob.mu and tr1.meta["lip"] == prob.lip
    assert tr1.meta["sigma"] == prob.sigma and tr1.meta["seed"] == prob.seed
    assert np.array_equal(tr1.final_point, tr2.final_point)
    assert tr1.column("merit_primary") == tr2.column("merit_primary")
    assert tr1.iterations == 50


def test_run_opt_records_gap_and_distance():
    obj = va.gen_quadratic(8, 2, 0.05)
    prm = va.default_params(va.REGIME_OPT, obj.mu, obj.lip)
    tr = va.run(obj, "opt-extra-point", prm, np.ones(8), va.StopRule(max_iter=40))
    assert tr.meta["f_star"] == obj.optimal_value
    gn, gap, dsq = (tr.column(name) for name in
                    ("merit_primary", "merit_aux", "dist_sq"))
    assert gn[-1] < gn[0]    # gradient norm fell
    assert gap[-1] < gap[0]  # value gap fell
    assert dsq[-1] < dsq[0]
    assert gap[-1] >= -1e-12 * (1.0 + abs(obj.optimal_value))

"""Feasible sets, projections, and problem-container validation."""

import math

import numpy as np
import pytest

import oracles
import viaccel as va


def _sample_sets(n, rng):
    lo = -np.abs(rng.standard_normal(n)) - 0.1
    hi = np.abs(rng.standard_normal(n)) + 0.1
    return [
        va.WholeSpace(n),
        va.NonnegativeOrthant(n),
        oracles.Box(lo, hi),
        oracles.EuclideanBall(rng.standard_normal(n), 1.5),
    ]


def test_as_vector_coerces_and_validates():
    v = va.as_vector([1, 2, 3])
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(ValueError):
        va.as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        va.as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        va.as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        va.as_vector([np.inf, 0.0])


def test_projection_worked_examples():
    assert np.array_equal(
        oracles.project(va.NonnegativeOrthant(2), [-1.0, 2.0]), [0.0, 2.0])
    # radial scaling onto the unit ball: (3,4)/5
    got = oracles.project(oracles.EuclideanBall([0.0, 0.0], 1.0), [3.0, 4.0])
    assert np.allclose(got, [0.6, 0.8], rtol=0, atol=1e-15)
    assert np.array_equal(
        oracles.project(oracles.Box([-1.0, -1.0], [1.0, 1.0]), [-2.0, 0.5]),
        [-1.0, 0.5])
    z = np.array([7.0, -3.0])
    assert np.array_equal(oracles.project(va.WholeSpace(2), z), z)


def test_projection_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        oracles.project(va.NonnegativeOrthant(3), [1.0, 2.0])
    with pytest.raises(ValueError):
        oracles.project(oracles.EuclideanBall([0.0, 0.0], 1.0),
                        [1.0, 2.0, 3.0])


def test_set_constructor_validation():
    with pytest.raises(ValueError):
        va.WholeSpace(0)
    with pytest.raises(ValueError):
        va.NonnegativeOrthant(-1)
    with pytest.raises(ValueError):
        oracles.Box([1.0], [0.0])
    with pytest.raises(ValueError):
        oracles.EuclideanBall([0.0], 0.0)


def test_projection_idempotent_and_feasible():
    rng = np.random.default_rng(0)
    for fs in _sample_sets(6, rng):
        for _ in range(50):
            z = 3.0 * rng.standard_normal(6)
            p = fs.project(z)
            assert fs.contains(p, tol=1e-12)
            assert np.linalg.norm(fs.project(p) - p) <= 1e-12


def test_projection_nonexpansive_and_firm():
    # ||Pz - Pw|| <= ||z - w|| and (Pz - Pw) @ (z - w) >= ||Pz - Pw||^2
    rng = np.random.default_rng(1)
    for fs in _sample_sets(5, rng):
        for _ in range(200):
            z = 4.0 * rng.standard_normal(5)
            w = 4.0 * rng.standard_normal(5)
            pz, pw = fs.project(z), fs.project(w)
            gap = np.linalg.norm(pz - pw)
            assert gap <= np.linalg.norm(z - w) + 1e-12
            assert (pz - pw) @ (z - w) >= gap**2 - 1e-12


def test_contains_uses_tolerance():
    orthant = va.NonnegativeOrthant(2)
    assert orthant.contains(np.array([0.0, 1.0]))
    assert not orthant.contains(np.array([-1e-6, 1.0]))
    assert orthant.contains(np.array([-1e-6, 1.0]), tol=1e-5)


def test_whole_space_flag():
    assert va.WholeSpace(3).unbounded_whole_space
    assert not va.NonnegativeOrthant(3).unbounded_whole_space
    assert not oracles.Box([0.0], [1.0]).unbounded_whole_space
    assert not oracles.EuclideanBall([0.0], 1.0).unbounded_whole_space


def test_problem_accepts_exact_solution_rejects_wrong_one():
    # complementarity point of F(z) = z - (1, -1) over the orthant is (1, 0)
    op = lambda z: z - np.array([1.0, -1.0])
    fs = va.NonnegativeOrthant(2)
    good = va.MonotoneProblem(dimension=2, operator=op, feasible_set=fs,
                              mu=1.0, lip=1.0, solution=[1.0, 0.0])
    assert np.array_equal(good.solution, [1.0, 0.0])
    with pytest.raises(ValueError):
        va.MonotoneProblem(dimension=2, operator=op, feasible_set=fs,
                           mu=1.0, lip=1.0, solution=[0.5, 0.0])


def test_problem_constant_validation():
    op = lambda z: z.copy()
    fs = va.WholeSpace(1)
    with pytest.raises(ValueError):
        va.MonotoneProblem(dimension=1, operator=op, feasible_set=fs,
                           mu=0.0, lip=1.0)
    with pytest.raises(ValueError):
        va.MonotoneProblem(dimension=1, operator=op, feasible_set=fs,
                           mu=2.0, lip=1.0)
    with pytest.raises(ValueError):
        va.MonotoneProblem(dimension=1, operator=op, feasible_set=fs,
                           mu=1.0, lip=np.inf)
    with pytest.raises(ValueError):
        va.MonotoneProblem(dimension=2, operator=op, feasible_set=fs,
                           mu=1.0, lip=1.0)


def test_sigma_and_kappa():
    p = va.MonotoneProblem(dimension=1, operator=lambda z: z.copy(),
                           feasible_set=va.WholeSpace(1), mu=0.5, lip=2.0)
    assert p.sigma == 0.25
    assert p.kappa == 4.0
    obj = va.gen_quadratic(5, 0, 0.1)
    assert obj.sigma * obj.kappa == pytest.approx(1.0, rel=1e-15)


def test_objective_minimizer_validation():
    val = lambda x: 0.5 * float(x @ x)
    grad = lambda x: x.copy()
    obj = va.SmoothObjective(dimension=2, value=val, gradient=grad,
                             mu=1.0, lip=1.0, minimizer=[0.0, 0.0],
                             optimal_value=0.0)
    assert obj.sigma == 1.0
    with pytest.raises(ValueError):
        va.SmoothObjective(dimension=2, value=val, gradient=grad,
                           mu=1.0, lip=1.0, minimizer=[0.5, 0.0])
    with pytest.raises(ValueError):
        va.SmoothObjective(dimension=2, value=val, gradient=grad,
                           mu=0.0, lip=1.0)


def test_objective_optimal_value_must_be_the_value_at_the_minimizer():
    val = lambda x: 0.5 * float(x @ x) + 3.0
    grad = lambda x: x.copy()
    kw = dict(dimension=2, value=val, gradient=grad, mu=1.0, lip=1.0)
    assert va.SmoothObjective(minimizer=[0.0, 0.0], optimal_value=3,
                              **kw).optimal_value == 3.0
    # within SOLUTION_RTOL of the value, relative to 1 + |f(x*)|
    va.SmoothObjective(minimizer=[0.0, 0.0], optimal_value=3.0 + 3e-9, **kw)
    for wrong in (3.0 + 5e-9, 1.0, True, -3.0):
        with pytest.raises(ValueError, match="optimal_value .* is not the "
                                             "value 3 at the stored minimizer"):
            va.SmoothObjective(minimizer=[0.0, 0.0], optimal_value=wrong, **kw)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="optimal_value must be finite"):
            va.SmoothObjective(optimal_value=bad, **kw)
    # without a minimizer there is nothing to check it against
    assert va.SmoothObjective(optimal_value=-7.0, **kw).optimal_value == -7.0


def test_objective_value_and_gradient_defaults_to_the_pair():
    calls = []
    val = lambda x: calls.append("value") or 0.5 * float(x @ x)
    grad = lambda x: calls.append("gradient") or 2.0 * x
    obj = va.SmoothObjective(dimension=2, value=val, gradient=grad,
                             mu=1.0, lip=2.0)
    f, g = obj.value_and_gradient(np.array([1.0, -2.0]))
    assert calls == ["value", "gradient"]
    assert f == 2.5 and np.array_equal(g, [2.0, -4.0])
    fused = lambda x: (1.0, x)
    assert va.SmoothObjective(dimension=2, value=val, gradient=grad, mu=1.0,
                              lip=2.0, value_and_gradient=fused
                              ).value_and_gradient is fused


def test_gradient_problem_wraps_objective_faithfully():
    obj = va.gen_quadratic(6, 3, 0.05)
    prob = va.gradient_problem(obj)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(6)
        assert np.array_equal(prob.operator(x), obj.gradient(x))
    assert prob.mu == obj.mu and prob.lip == obj.lip
    assert prob.feasible_set.unbounded_whole_space
    assert np.array_equal(prob.solution, obj.minimizer)


def test_natural_residual_zero_at_solution_positive_away():
    op = lambda z: z - np.array([1.0, -1.0])
    p = va.MonotoneProblem(dimension=2, operator=op,
                           feasible_set=va.NonnegativeOrthant(2),
                           mu=1.0, lip=1.0, solution=[1.0, 0.0])
    assert va.merit(p, [1.0, 0.0])[1] <= 1e-15
    # step point (1, -1) projects to (1, 0), so the residual is exactly 1
    assert va.merit(p, [2.0, 0.0])[1] == pytest.approx(1.0, abs=0)
    # whole space: residual is just ||F(z)||
    q = va.MonotoneProblem(dimension=2, operator=lambda z: z.copy(),
                           feasible_set=va.WholeSpace(2), mu=1.0, lip=1.0,
                           solution=[0.0, 0.0])
    assert va.merit(q, [3.0, 4.0])[1] == pytest.approx(5.0)


def test_norm2_matches_linalg_norm_bit_for_bit():
    from viaccel.core import norm2
    x = np.random.default_rng(5).standard_normal(41)
    cases = [x, x[::2], x[::-1], np.zeros(7), np.array([-3.5]),
             np.array([1e200, -1e200]), np.array([1.0, np.nan, 2.0])]
    with np.errstate(over="ignore"):
        for v in cases:
            got, want = norm2(v), np.linalg.norm(v)
            assert np.float64(got).tobytes() == want.tobytes()
        assert norm2(np.array([1e200, -1e200])) == np.inf


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
           1.0 / 3.0, -1.0, 2.0, 1e300, 1.7976931348623157e308,
           -1.7976931348623157e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("n", [1, 7, 20, 33])
def test_vector_operands_keep_the_scalar_bits(n):
    # the steppers hold each coefficient c as np.full(n, c), and the
    # orthant projects against a zero vector: both must give the bits of
    # the scalar forms
    rng = np.random.default_rng(n)
    coefficients = SPECIAL + list(rng.standard_normal(8)
                                  * 10.0 ** rng.integers(-300, 300, 8))
    pool = np.array(SPECIAL + list(rng.standard_normal(40)
                                   * 10.0 ** rng.integers(-300, 300, 40)))
    with np.errstate(all="ignore"):
        for _ in range(6):
            x, y = rng.choice(pool, n), rng.choice(pool, n)
            for c in coefficients:
                v = np.full(n, c)
                for scalar, vector in ((c * x, v * x), (x - c * y, x - v * y),
                                       (x + c * y, x + v * y), (x / c, x / v)):
                    assert scalar.tobytes() == vector.tobytes(), c
            assert np.maximum(x, 0.0).tobytes() == \
                va.NonnegativeOrthant(n).project(x).tobytes()

"""Seeded instance generators, reference solutions, and the text format."""

import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
import viaccel as va
import viaccel.problems as P
from viaccel.cli import main


# --- linear operator instances ----------------------------------------------

def test_linear_vi_is_deterministic_per_seed():
    a1, m1 = va.gen_linear_vi(12, 3, 0.02)
    a2, m2 = va.gen_linear_vi(12, 3, 0.02)
    assert va.serialize_problem(a1) == va.serialize_problem(a2)
    assert np.array_equal(m1, m2)
    assert np.array_equal(a1.meta["offset"], a2.meta["offset"])
    other, _ = va.gen_linear_vi(12, 4, 0.02)
    assert va.serialize_problem(other) != va.serialize_problem(a1)


def test_linear_vi_hits_the_requested_modulus_ratio():
    for seed in (0, 3, 7, 11, 23):
        prob, _ = va.gen_linear_vi(20, seed, 0.0098)
        assert prob.sigma == pytest.approx(0.0098, rel=1e-6)
        # the modulus is the exact diagonal minimum
        assert prob.mu == prob.meta["diag"].min()
        assert prob.kind == "linear-vi" and prob.seed == seed


def test_linear_vi_skew_part_never_feeds_the_quadratic_form():
    # (z - w)'(M (z - w)) equals the diagonal quadratic form alone
    prob, M = va.gen_linear_vi(15, 9, 0.05)
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.standard_normal(15)
        quad = float(w @ (M @ w))
        diag_only = float(w @ (prob.meta["diag"] * w))
        assert quad == pytest.approx(diag_only, rel=1e-10)


def test_linear_vi_operator_matches_its_spec():
    # M is the matrix the operator closes over, assembled from meta alone
    prob, M = va.gen_linear_vi(10, 5, 0.03)
    meta = prob.meta
    assert M.tobytes() == (np.diag(meta["diag"]) + meta["skew"]).tobytes()
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.standard_normal(10)
        assert prob.operator(z).tobytes() == \
            (M.dot(z) + meta["offset"]).tobytes()


@pytest.mark.parametrize("n,seed,sigma,constrained", [
    (2, 0, 1.0, False), (2, 1, 1e-1, True), (3, 7, 1e-2, True),
    (5, 1, 1e-3, False), (5, 202, 1e-2, True), (20, 101, 1e-2, False),
    (20, 202, 1e-2, True), (5, 1101, 1e-3, True), (20, 1101, 1e-4, False),
    (50, 1101, 1e-3, False), (50, 1101, 1e-4, False)])
def test_linear_vi_matches_the_full_scale_search(n, seed, sigma, constrained):
    want = P.serialize_problem(oracles.gen_linear_vi(n, seed, sigma, constrained))
    got = P.serialize_problem(va.gen_linear_vi(n, seed, sigma, constrained)[0])
    assert got == want


@pytest.mark.parametrize("sigma, constrained", [
    (1e-160, False), (1e-200, False), (1e-300, False), (5e-324, False),
    (1e-300, True)])  # the orthant's reference solve takes a second here
def test_linear_vi_floors_a_target_whose_bar_overflows(sigma, constrained):
    # below about 7e-158 the early-exit bar (c / goal)^2 passes the float
    # range; the search then reads each power loop to its end
    prob = va.gen_linear_vi(3, 0, sigma, constrained)[0]
    assert P.serialize_problem(prob) == \
        P.serialize_problem(oracles.gen_linear_vi(3, 0, sigma, constrained))
    assert prob.sigma == va.gen_linear_vi(3, 0, 1e-150)[0].sigma
    assert prob.sigma == pytest.approx(9.6e-13, rel=1e-2)
    assert prob.meta["target_sigma"] == sigma


def test_linear_vi_scale_search_stops_at_its_fixed_point(monkeypatch):
    calls = []
    fn = P.power_iteration_norm
    monkeypatch.setattr(P, "power_iteration_norm", lambda *a, **kw:
                        calls.append(1) or fn(*a, **kw))
    va.gen_linear_vi(20, 101, 1e-2)
    assert len(calls) <= 64  # the full 120-step search makes 122


@pytest.mark.parametrize("seed", [101, 202])
def test_every_power_loop_of_the_scale_search_is_one_traceable_call(
        monkeypatch, seed):
    # a tracer that wraps problems.power_iteration_norm, as perfbench's
    # does, sees every loop: the top-scale norm, then one call per search
    # step, each with its finite early-exit bar; lip reuses a step's norm
    aboves = []
    fn = P.power_iteration_norm

    def counted(M, iters=500, above=math.inf):
        aboves.append(above)
        return fn(M, iters, above)

    monkeypatch.setattr(P, "power_iteration_norm", counted)
    va.gen_linear_vi(20, seed, 1e-2)
    assert len(aboves) == 58
    assert aboves[0] == math.inf
    assert all(math.isfinite(a) for a in aboves[1:])


@pytest.mark.parametrize("gen", [va.gen_linear_vi, va.gen_quadratic],
                         ids=["linear-vi", "quadratic"])
def test_linear_vi_input_validation(gen):
    # gen_quadratic takes the same (n, seed, target_sigma) and refuses alike
    with pytest.raises(ValueError, match="n must be at least 2"):
        gen(1, 0, 0.1)
    for sigma in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"target_sigma must lie in"):
            gen(10, 0, sigma)


def test_linear_vi_constrained_solution_satisfies_complementarity():
    prob, _ = va.gen_linear_vi(20, 7, 0.0098, constrained=True)
    zs = prob.solution
    w = prob.operator(zs)
    scale = 1.0 + float(np.linalg.norm(zs))
    assert zs.min() >= 0.0
    assert w.min() >= -1e-9 * scale
    assert abs(float(zs @ w)) <= 1e-9 * scale
    assert not prob.feasible_set.unbounded_whole_space


def test_reference_solver_worked_examples():
    eye, ones = np.eye(2), np.ones(2)
    assert np.allclose(
        va.solve_linear_reference(eye, -ones, va.WholeSpace(2), 1.0),
        [1.0, 1.0], rtol=0, atol=1e-14)
    # orthant with positive offset: the origin already satisfies complementarity
    orthant = va.NonnegativeOrthant(2)
    sol0 = va.solve_linear_reference(eye, ones, orthant, 1.0)
    assert np.allclose(sol0, [0.0, 0.0], rtol=0, atol=1e-9)
    # mixed offset splits into one interior and one active coordinate
    sol = va.solve_linear_reference(eye, np.array([-1.0, 1.0]), orthant, 1.0)
    assert np.allclose(sol, [1.0, 0.0], rtol=0, atol=1e-9)
    with pytest.raises(ValueError, match="whole space and orthant only"):
        va.solve_linear_reference(eye, ones, oracles.Box(-ones, ones), 1.0)



@pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 50, 100])
def test_orthant_reference_solve_matches_the_hand_written_loop(n):
    # the generator's operators over 6 seeds and 4 ratios, each solved on
    # the orthant by vi_stepper and by the plain projected half-step loop
    for seed in (0, 1, 7, 101, 202, 1101):
        for sigma in (1.0, 1e-1, 1e-2, 1e-3):
            prob, M = va.gen_linear_vi(n, seed, sigma)
            fset, q = va.NonnegativeOrthant(n), prob.meta["offset"]
            got = va.solve_linear_reference(M, q, fset, prob.lip)
            want = oracles.solve_linear_reference(M, q, fset, prob.lip)
            assert got.tobytes() == want.tobytes(), (seed, sigma)


@pytest.mark.parametrize("n,seed", [(2, 101), (2, 7), (5, 0)])
def test_orthant_reference_solve_finishes_on_the_support(monkeypatch, n, seed):
    # at sigma 1e-4 these do not reach residual 1e-12 in 10^6 steps, but
    # their support is right by step 100
    monkeypatch.setattr(P, "REFERENCE_MAX_STEPS", 100)
    prob, _ = va.gen_linear_vi(n, seed, 1e-4, constrained=True)
    zs = prob.solution
    w = prob.operator(zs)
    tol = 1e-9 * (1.0 + float(np.linalg.norm(zs)) + float(np.linalg.norm(w)))
    assert zs.min() >= 0.0 and zs.max() > 0.0
    assert w.min() >= -tol
    assert abs(float(zs @ w)) <= tol
    assert va.merit(prob, zs)[1] <= 1e-9 * (1.0 + float(np.linalg.norm(zs)))
    if seed == 101:
        assert zs[0] == 0.0 and zs[1] == pytest.approx(14810.474567, rel=1e-9)


def test_orthant_support_finish_keeps_the_complementarity_check(monkeypatch):
    # with no step taken the finish solves on the origin's empty support:
    # right for a nonnegative offset, refused for a negative entry
    monkeypatch.setattr(P, "REFERENCE_MAX_STEPS", 0)
    eye, orthant = np.eye(2), va.NonnegativeOrthant(2)
    sol = va.solve_linear_reference(eye, np.ones(2), orthant, 1.0)
    assert sol.tolist() == [0.0, 0.0]
    with pytest.raises(RuntimeError, match="complementarity check"):
        va.solve_linear_reference(eye, np.array([-1.0, 1.0]), orthant, 1.0)


# --- strongly convex objectives ----------------------------------------------

def test_quadratic_spectrum_is_pinned():
    obj = va.gen_quadratic(20, 0, 0.0024)
    assert obj.lip == 46.0
    assert obj.sigma == 0.0024
    eigs = np.linalg.eigvalsh(obj.meta["hessian"])
    assert eigs[0] == pytest.approx(obj.mu, rel=1e-9)
    assert eigs[-1] == pytest.approx(46.0, rel=1e-9)
    assert eigs[0] >= obj.mu - 1e-9 * obj.mu
    assert eigs[-1] <= obj.lip + 1e-9 * obj.lip


def test_quadratic_gradient_and_minimizer_are_consistent():
    obj = va.gen_quadratic(12, 4, 0.01)
    H, q = obj.meta["hessian"], obj.meta["linear"]
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(12)
        assert np.allclose(obj.gradient(x), H @ x + q, rtol=1e-12, atol=1e-12)
    assert float(np.linalg.norm(obj.gradient(obj.minimizer))) <= 1e-11
    assert obj.value(obj.minimizer) == obj.optimal_value
    # any other point sits strictly above the recorded optimum
    assert obj.value(obj.minimizer + 0.1) > obj.optimal_value


def test_quadratic_rayleigh_quotients_stay_in_band():
    obj = va.gen_quadratic(15, 8, 0.02)
    H = obj.meta["hessian"]
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = rng.standard_normal(15)
        rq = float(w @ (H @ w)) / float(w @ w)
        assert obj.mu - 1e-9 <= rq <= obj.lip + 1e-9


@pytest.mark.parametrize("n", [2, 3, 20, 64, 200])
def test_quadratic_matches_the_fresh_vector_gram_schmidt(n, monkeypatch):
    cases = [(0, 1.0), (5, 1e-2), (77, 0.0024), (1001, 1e-4)]
    got = [P.serialize_problem(va.gen_quadratic(n, s, sg)) for s, sg in cases]
    monkeypatch.setattr(P, "_orthonormal_rows", oracles.gram_schmidt)
    assert got == [P.serialize_problem(va.gen_quadratic(n, s, sg))
                   for s, sg in cases]


def test_quadratic_at_n2_keeps_its_bits():
    # n = 2 pins both eigenvalues and draws none in between: the size-0
    # draw leaves the generator where it was, so the linear term drawn
    # after it keeps its bits; the digests pin each case's problem text
    digests = ["edcc1d7787d01a6b85ddf405762789a44e9a07717ec24b9b06ebb221781d71c4",
               "8da1108d121be6ea2f3595668c8b03945d7865cde849563b28a58f3b253306b9",
               "90c7ef767d0574ebbe19073d93dc32194136f379bc2710afa6d9d86a6f821d5d",
               "c13de6b06506142c50e3fa6ed84de951dedeff4566f38dce19c01ffffda5833b"]
    cases = [(0, 1.0), (5, 1e-2), (77, 0.0024), (1001, 1e-4)]
    assert [hashlib.sha256(P.serialize_problem(
        va.gen_quadratic(2, s, sg)).encode()).hexdigest()
        for s, sg in cases] == digests


def test_gram_schmidt_breakdown_matches_the_oracle():
    G = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1e-9], [0.0, 1.0, 1.0]])
    assert oracles.gram_schmidt(G.copy()) is None
    assert P._orthonormal_rows(G.copy()) is None
    G[1, 2] = 1.0
    assert np.array_equal(P._orthonormal_rows(G.copy()), oracles.gram_schmidt(G))


@pytest.mark.parametrize("n", [P.GS_PANEL - 1, P.GS_PANEL, P.GS_PANEL + 1,
                               2 * P.GS_PANEL + 1, 500])
def test_orthonormal_rows_match_the_oracle_bitwise(n):
    G = np.random.default_rng(n).standard_normal((n, n))
    got = P._orthonormal_rows(G.copy())
    assert got.tobytes() == oracles.gram_schmidt(G).tobytes()


def test_gram_schmidt_breakdown_in_a_later_panel_matches_the_oracle():
    b = P.GS_PANEL
    G = np.random.default_rng(8).standard_normal((2 * b + 3, 2 * b + 3))
    G[b + 5] = 0.5 * G[2] - G[b + 1]  # in the span of earlier rows
    assert oracles.gram_schmidt(G.copy()) is None
    assert P._orthonormal_rows(G.copy()) is None
    G[b + 5, 0] += 1e-6  # a remainder above the 1e-8 breakdown norm
    got = P._orthonormal_rows(G.copy())
    assert got.tobytes() == oracles.gram_schmidt(G).tobytes()


OBJECTIVES = {"quadratic n=20": lambda: va.gen_quadratic(20, 5, 1e-2),
              "quadratic n=500": lambda: va.gen_quadratic(500, 12, 1e-2),
              "logistic n=30": lambda: va.gen_logistic(30, 50, 0.01, 4)}


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_fused_value_and_gradient_is_the_separate_pair_bitwise(name):
    obj = OBJECTIVES[name]()
    back = va.parse_problem(va.serialize_problem(obj))
    rng = np.random.default_rng(6)
    points = [rng.standard_normal(obj.dimension) * 10.0 ** e
              for e in (-3, 0, 2)]
    if obj.minimizer is not None:
        points.append(obj.minimizer)
    for target in (obj, back):
        for x in points:
            f, g = target.value_and_gradient(x)
            assert type(f) is float and f.hex() == target.value(x).hex()
            assert g.tobytes() == target.gradient(x).tobytes()


def test_logistic_objective_reference_values():
    obj = va.gen_logistic(15, 2, 0.005, 0)
    assert obj.value(np.zeros(15)) == math.log(2.0)
    assert obj.mu == 0.005
    assert obj.lip == 0.023726445116271352
    assert obj.minimizer is None and obj.optimal_value is None
    assert obj.meta["data"].shape == (2, 15)
    # determinism
    again = va.gen_logistic(15, 2, 0.005, 0)
    assert np.array_equal(obj.meta["data"], again.meta["data"])


def test_logistic_input_validation():
    with pytest.raises(ValueError):
        va.gen_logistic(0, 2, 0.1, 0)
    with pytest.raises(ValueError):
        va.gen_logistic(5, 0, 0.1, 0)
    with pytest.raises(ValueError):
        va.gen_logistic(5, 2, 0.0, 0)


# --- saddle instances ---------------------------------------------------------

def test_bilinear_saddle_basics():
    prob = va.gen_bilinear_saddle(3, 4, 2)
    assert prob.dimension == 7
    assert np.array_equal(prob.solution, np.zeros(7))
    assert np.array_equal(prob.operator(np.zeros(7)), np.zeros(7))
    assert prob.mu == 1.0
    rng = np.random.default_rng(5)
    for _ in range(1000):
        z = rng.standard_normal(7)
        w = rng.standard_normal(7)
        d = z - w
        gap = float((prob.operator(z) - prob.operator(w)) @ d)
        dn = float(d @ d)
        assert gap >= (prob.mu - 1e-9) * dn
        assert float(np.linalg.norm(prob.operator(z) - prob.operator(w))) \
            <= (prob.lip + 1e-9) * math.sqrt(dn)


def test_bilinear_without_coupling_has_block_diagonal_norm():
    M = P._bilinear_matrix(np.zeros((3, 4)), 2.0, 1.0)
    assert va.power_iteration_norm(M) == 2.0
    prob = va.gen_bilinear_saddle(2, 2, 0, mu_x=3.0, mu_y=0.5)
    assert prob.mu == 0.5
    assert prob.lip >= 3.0 - 1e-9  # the stronger block bounds the norm from below


# --- empirical constant estimation ---------------------------------------------

def test_estimate_constants_identity_is_exact():
    prob = va.MonotoneProblem(dimension=4, operator=lambda z: z.copy(),
                              feasible_set=va.WholeSpace(4), mu=1.0, lip=1.0)
    mu_hat, lip_hat = va.estimate_constants(prob)
    assert mu_hat == 1.0 and lip_hat == 1.0


def test_estimate_constants_brackets_the_true_values():
    prob, _ = va.gen_linear_vi(12, 6, 0.02)
    mu_hat, lip_hat = va.estimate_constants(prob)
    assert mu_hat >= prob.mu * (1.0 - 1e-9)
    assert lip_hat <= prob.lip * (1.0 + 1e-6)
    assert lip_hat >= 0.5 * prob.lip  # the Jacobian sweep is exact for linear maps
    obj = va.gen_quadratic(10, 1, 0.05)
    mu_q, lip_q = va.estimate_constants(va.gradient_problem(obj))
    assert lip_q == pytest.approx(46.0, rel=1e-2)
    assert mu_q >= obj.mu * (1.0 - 1e-9)


def test_estimate_constants_overflows_without_a_warning():
    # lam = 1e300 overflows the squared norms of the sampled differences,
    # which are rescaled by a power of two; warnings are errors under pytest
    before = np.geterr()
    prob = va.gradient_problem(va.gen_logistic(3, 2, 1e300, 0))
    mu_hat, lip_hat = va.estimate_constants(prob)
    assert mu_hat == pytest.approx(1e300) and lip_hat == pytest.approx(1e300)
    assert np.geterr() == before
    saddle = va.gen_bilinear_saddle(2, 2, 0, mu_x=1e200, mu_y=1e200)
    assert va.estimate_constants(saddle)[1] == pytest.approx(1e200)


# --- text serialization ----------------------------------------------------------

def _operator_round_trip_matches(prob):
    text = va.serialize_problem(prob)
    back = P.parse_problem(text)
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = rng.standard_normal(prob.dimension)
        if not np.array_equal(prob.operator(z), back.operator(z)):
            return False
    if prob.mu != back.mu or prob.lip != back.lip:
        return False
    if (prob.solution is None) != (back.solution is None):
        return False
    if prob.solution is not None and not np.array_equal(prob.solution, back.solution):
        return False
    return text == va.serialize_problem(back)


def test_monotone_problem_round_trips_bit_exactly():
    assert _operator_round_trip_matches(va.gen_linear_vi(8, 2, 5e-2)[0])
    assert _operator_round_trip_matches(
        va.gen_linear_vi(8, 2, 5e-2, constrained=True)[0])
    assert _operator_round_trip_matches(va.gen_bilinear_saddle(3, 4, 2))


def test_objective_round_trips_bit_exactly():
    for obj in (va.gen_quadratic(8, 2, 0.01), va.gen_logistic(6, 2, 0.005, 2)):
        text = va.serialize_problem(obj)
        back = P.parse_problem(text)
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.standard_normal(obj.dimension)
            assert obj.value(x) == back.value(x)
            assert np.array_equal(obj.gradient(x), back.gradient(x))
        assert obj.mu == back.mu and obj.lip == back.lip
        assert text == va.serialize_problem(back)


def test_linear_operators_equal_the_plain_matvec_bit_for_bit(tmp_path):
    def plain(obj):
        m = obj.meta
        if obj.kind == "linear-vi":
            return lambda z: (np.diag(m["diag"]) + m["skew"]) @ z + m["offset"]
        if obj.kind == "quadratic":
            return lambda z: m["hessian"] @ z + m["linear"]
        M = P._bilinear_matrix(m["bilinear"], m["mu_x"], m["mu_y"])
        return lambda z: M @ z

    instances = [va.gen_linear_vi(20, 3, 1e-2)[0],
                 va.gen_linear_vi(7, 4, 5e-2, constrained=True)[0],
                 va.gen_bilinear_saddle(6, 9, 5), va.gen_quadratic(15, 6, 1e-2)]
    rng = np.random.default_rng(21)
    for i, obj in enumerate(instances):
        path = tmp_path / f"instance{i}.txt"
        va.write_problem(path, obj)
        want = plain(obj)
        for inst in (obj, va.read_problem(path)):
            apply = getattr(inst, "operator", None) or inst.gradient
            for _ in range(3):
                z = rng.standard_normal(obj.dimension)
                assert np.array_equal(apply(z), want(z))


def test_file_round_trip(tmp_path):
    prob, _ = va.gen_linear_vi(6, 1, 0.05, constrained=True)
    path = tmp_path / "instance.txt"
    va.write_problem(path, prob)
    back = va.read_problem(path)
    assert va.serialize_problem(back) == va.serialize_problem(prob)


def _special_values(obj, name):
    """obj with its meta block `name` overwritten by values whose text is
    easy to get wrong: signed zero, the smallest subnormal, the largest
    finite floats, integral floats and 1/3."""
    block = obj.meta[name].reshape(-1)
    specials = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                3.0, -12.0, 1e16, 1.0 / 3.0]
    block[:len(specials)] = specials[:block.size]
    return obj


SERIALIZED = {
    "linear-vi": lambda: va.gen_linear_vi(9, 4, 5e-2)[0],
    "linear-vi orthant": lambda: va.gen_linear_vi(6, 1, 5e-2, constrained=True)[0],
    "quadratic": lambda: va.gen_quadratic(7, 3, 0.5),
    "quadratic n=500": lambda: va.gen_quadratic(500, 12, 1e-2),
    "logistic": lambda: va.gen_logistic(6, 9, 0.01, 3),
    "bilinear-saddle": lambda: va.gen_bilinear_saddle(3, 4, 2, 0.3, 2.0),
    "bilinear-saddle 500x500": lambda: va.gen_bilinear_saddle(500, 500, 11),
    "special values, logistic": lambda: _special_values(
        va.gen_logistic(3, 4, 0.01, 1), "data"),
    "special values, bilinear": lambda: _special_values(
        va.gen_bilinear_saddle(2, 5, 1), "bilinear"),
}


@pytest.mark.parametrize("name", SERIALIZED)
def test_serialize_matches_the_per_value_renderer(name):
    obj = SERIALIZED[name]()
    text = va.serialize_problem(obj)
    assert text == oracles.serialize_problem(obj)
    back = P.parse_problem(text)
    assert va.serialize_problem(back) == oracles.serialize_problem(back) == text


@pytest.mark.parametrize("name", [n for n in SERIALIZED if "500" not in n])
def test_write_problem_writes_the_serialized_bytes(name, tmp_path):
    obj = SERIALIZED[name]()
    path = tmp_path / "p.txt"
    va.write_problem(path, obj)
    assert path.read_bytes() == va.serialize_problem(obj).encode()


@pytest.mark.parametrize("mu_x, mu_y", [(1.0, 1.0), (0.3, 2.0), (-1.5, 0.0)])
def test_bilinear_matrix_matches_the_identity_built_one(mu_x, mu_y):
    B = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 6))
    M = P._bilinear_matrix(B, mu_x, mu_y)
    assert M.flags.c_contiguous
    assert M.tobytes() == oracles.bilinear_matrix(B, mu_x, mu_y).tobytes()


def _traced(fn):
    """fn's result, the bytes it still holds under tracemalloc once it
    returns, and its peak; a first untraced call keeps one-time set-up out
    of the counts."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_bilinear_saddle_holds_its_coupling_block_once():
    prob, held, _ = _traced(lambda: va.gen_bilinear_saddle(300, 300, 1))
    M = prob.operator.__self__
    assert np.shares_memory(prob.meta["bilinear"], M)
    assert held < M.nbytes + 64 * 1024  # M is 8 * 600^2 bytes


def test_read_back_saddle_holds_its_coupling_block_once(tmp_path):
    # the parsed block is dropped once the operator matrix is assembled:
    # meta.bilinear is a view of that matrix, as in a generated saddle
    path = tmp_path / "p.txt"
    va.write_problem(path, va.gen_bilinear_saddle(300, 300, 1))
    prob, held, _ = _traced(lambda: va.read_problem(path))
    M = prob.operator.__self__
    assert np.shares_memory(prob.meta["bilinear"], M)
    assert held < M.nbytes + 64 * 1024


def test_serialize_peak_stays_near_twice_its_text():
    prob = va.gen_bilinear_saddle(300, 300, 1)
    text, _, peak = _traced(lambda: va.serialize_problem(prob))
    assert peak <= 2.2 * len(text)


def test_write_problem_streams_its_blocks(tmp_path):
    prob = va.gen_bilinear_saddle(300, 300, 1)
    path = tmp_path / "p.txt"
    _, _, peak = _traced(lambda: va.write_problem(path, prob))
    assert peak < path.stat().st_size / 4


@pytest.mark.parametrize("name", [n for n in SERIALIZED if "500" not in n])
def test_read_problem_gives_parse_problems_instance(name, tmp_path):
    """Reading a file line by line gives parse_problem's instance of its
    text bit for bit: the same entries and the same oracle values."""
    path = tmp_path / "p.txt"
    va.write_problem(path, SERIALIZED[name]())
    read, parsed = va.read_problem(path), P.parse_problem(path.read_text())
    assert type(read) is type(parsed)
    assert va.serialize_problem(read) == va.serialize_problem(parsed)
    z = np.linspace(-1.0, 2.0, read.dimension)
    with np.errstate(all="ignore"):  # the special values overflow
        if isinstance(read, va.MonotoneProblem):
            assert read.operator(z).tobytes() == parsed.operator(z).tobytes()
        else:
            (fr, gr), (fp, gp) = (o.value_and_gradient(z)
                                  for o in (read, parsed))
            assert np.float64(fr).tobytes() == np.float64(fp).tobytes()
            assert gr.tobytes() == gp.tobytes()


def test_read_problem_streams_its_file(tmp_path):
    """The file is never held whole, and a block's parsed rows are freed
    before the operator is built from it. On this 1.76 MiB file the peak
    is 2.0 times its size: 5.6 when the text was read whole, 3.6 when the
    rows outlived their block."""
    path = tmp_path / "p.txt"
    va.write_problem(path, va.gen_bilinear_saddle(300, 300, 1))
    _, _, peak = _traced(lambda: va.read_problem(path))
    assert peak < 2.5 * path.stat().st_size


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        P.parse_problem("not the right header\nkind = linear-vi\n")
    good = va.serialize_problem(va.gen_linear_vi(4, 0, 0.1)[0])
    truncated = good[:good.rindex("end ")]
    with pytest.raises(ValueError):
        P.parse_problem(truncated)


def test_parse_checks_required_blocks_and_their_shapes():
    good = va.serialize_problem(va.gen_linear_vi(4, 0, 0.1)[0])
    lines = good.splitlines()
    skew = lines.index("begin meta.skew")
    with pytest.raises(ValueError, match="meta.skew"):
        P.parse_problem("\n".join(lines[:skew + 1] + lines[skew + 2:]))
    with pytest.raises(ValueError, match="meta.offset"):
        P.parse_problem(good.replace("begin meta.offset", "begin meta.other")
                        .replace("end meta.offset", "end meta.other"))
    with pytest.raises(ValueError, match="n must be"):
        P.parse_problem(good.replace("n = 4", "n = zero"))
    with pytest.raises(ValueError, match="mu must be"):
        P.parse_problem(good.replace("\nmu = ", "\nmu_hat = "))
    obj = va.serialize_problem(va.gen_logistic(3, 2, 0.005, 1))
    with pytest.raises(ValueError, match="meta.lam"):
        P.parse_problem(obj.replace("meta.lam = ", "meta.lambda = "))
    with pytest.raises(ValueError, match="meta.data"):
        P.parse_problem(obj.replace("n = 3", "n = 4"))
    sad = va.serialize_problem(va.gen_bilinear_saddle(2, 3, 1))
    with pytest.raises(ValueError, match="meta.bilinear"):
        P.parse_problem(sad.replace("n = 5", "n = 6"))


def test_malformed_block_rows_name_their_block_and_row(tmp_path, capsys):
    good = va.serialize_problem(va.gen_linear_vi(4, 0, 0.1)[0])
    lines = good.splitlines()
    diag, skew = lines.index("begin meta.diag"), lines.index("begin meta.skew")
    cases = {
        r"block meta\.diag row 2 has 2 numbers, row 1 has 4":
            lines[:diag + 2] + ["1 2"] + lines[diag + 2:],
        r"block meta\.skew row 2 is not a row of numbers: 'x y z w'":
            lines[:skew + 2] + ["x y z w"] + lines[skew + 3:],
    }
    for message, text in cases.items():
        with pytest.raises(ValueError, match=message):
            P.parse_problem("\n".join(text))
        path = tmp_path / "bad.problem"
        path.write_text("\n".join(text) + "\n")
        assert main(["solve", "--problem", str(path), "--method",
                     "vanilla"]) == 2
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)


def test_bilinear_files_check_their_sides_against_the_block():
    text = va.serialize_problem(va.gen_bilinear_saddle(2, 3, 1))
    for entry in ("meta.nx = 7", "meta.ny = 2"):
        key = entry.split(" = ")[0]
        with pytest.raises(ValueError, match=r"block meta\.bilinear of shape "
                                             r"\(nx, ny\)"):
            P.parse_problem(re.sub(rf"(?m)^{key} = .*$", entry, text))
    bare = re.sub(r"(?m)^meta\.n[xy] = .*\n", "", text)
    assert P.parse_problem(bare).meta["bilinear"].shape == (2, 3)
    with pytest.raises(ValueError, match="must sum to n = 6"):
        P.parse_problem(bare.replace("n = 5", "n = 6"))


def test_class_blocks_name_their_shape_against_n():
    for obj, name in ((va.gen_bilinear_saddle(2, 3, 1), "solution"),
                      (va.gen_quadratic(3, 1, 0.1), "minimizer")):
        lines = va.serialize_problem(obj).splitlines()
        at = lines.index(f"begin {name}") + 1
        n, row = obj.dimension, lines[at]
        for rows, got in (([row + " 0"], f"({n + 1},)"),
                          ([row.split(" ", 1)[1]], f"({n - 1},)"),
                          ([row, row], f"(2, {n})")):
            message = (f"{obj.kind} problem needs block {name} of shape "
                       f"(n) = ({n}), got {got}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                P.parse_problem("\n".join(lines[:at] + rows + lines[at + 1:]))


def test_refused_instances_write_no_file(tmp_path):
    path = tmp_path / "p.txt"
    with pytest.raises(ValueError, match="cannot serialize"):
        va.write_problem(path, va.gradient_problem(va.gen_quadratic(3, 1, 0.1)))
    bare = va.MonotoneProblem(dimension=2, operator=lambda z: z,
                              feasible_set=va.WholeSpace(2), mu=1.0, lip=1.0,
                              kind="linear-vi")
    with pytest.raises(ValueError, match="^meta.diag must be given in a "
                                         "linear-vi problem file$"):
        va.write_problem(path, bare)
    saddle = va.gen_bilinear_saddle(2, 3, 1)
    saddle.seed = 1.5
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        va.write_problem(path, saddle)
    boxed = va.gen_linear_vi(4, 0, 0.1)[0]
    boxed.feasible_set = oracles.Box(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError, match="^only whole-space and orthant sets "
                                         "serialize$"):
        va.write_problem(path, boxed)
    assert not path.exists()


def test_readme_documents_each_kinds_stored_entries():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## File formats"):]
    for kind, (cls, blocks, _) in P.LAYOUTS.items():
        row = re.search(rf"^ *\| `{kind}` \|(.*)$", section, re.M).group(1)
        class_name, scalars, stored = row.split("|")[:3]
        meta = {name: form for name, form in P.schema(kind).items()
                if name.startswith("meta.")}
        assert class_name.strip() == f"`{P.CLASSES[cls][0]}`"
        assert re.findall(r"`([\w.]+)`", scalars) == \
            [name for name, form in meta.items() if isinstance(form, type)]
        assert re.findall(r"`([\w.]+)` \(([\w ×]+)\)", stored) == \
            [(name, " × ".join(form)) for name, form in meta.items()
             if isinstance(form, tuple)]
    for name, entries in P.CLASSES.values():
        for entry in entries:
            assert f"`{entry}`" in section, (name, entry)


def test_readme_documents_the_written_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## File formats"):]
    assert f"`{P.FORMAT_HEADER}`" in section
    assert "end <kind>" not in readme

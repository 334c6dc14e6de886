"""Merits, potentials, contraction checks, numeric oracles, trace export."""

import csv
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
import viaccel as va
import viaccel.certify as C
import viaccel.problems as P
from viaccel.cli import MethodSpec, build_method
from viaccel.harness import CSV_HEADER, TRACE_FIELDS, IterateTrace


def _quad_objective():
    return va.SmoothObjective(dimension=1, value=lambda x: 0.5 * float(x @ x),
                              gradient=lambda x: x.copy(), mu=1.0, lip=1.0,
                              minimizer=[0.0], optimal_value=0.0)


def _manual_cert(rate):
    return C.RateCertificate(regime=C.REGIME_OPT, feasible=True, a=1.0 - rate,
                             b=0.0, theta_lo=0.0, theta_hi=1.0 - rate,
                             theta_default=0.0, rate=rate)


def _synthetic_trace(potentials, method="vanilla", meta=None):
    tr = IterateTrace(method=method, meta=meta or {})
    for k, p in enumerate(potentials):
        oracles.append_row(tr, k, 1.0, None, None, p, 0)
    return tr


# --- merit -------------------------------------------------------------------

def test_merit_objective_reports_gradient_norm_and_gap():
    assert va.merit(_quad_objective(), np.array([3.0])) == (3.0, 4.5)
    blind = va.gen_logistic(6, 2, 0.01, 0)  # no recorded optimum
    gn, gap = va.merit(blind, np.zeros(6))
    assert gn >= 0.0 and gap is None


def test_merit_whole_space_equals_operator_norm():
    prob = va.MonotoneProblem(dimension=2, operator=lambda z: z.copy(),
                              feasible_set=va.WholeSpace(2), mu=1.0, lip=1.0,
                              solution=np.zeros(2))
    assert va.merit(prob, np.array([3.0, 4.0])) == (5.0, 5.0)


def test_merit_constrained_reports_complementarity_and_residual():
    prob = va.MonotoneProblem(dimension=2,
                              operator=lambda z: z - np.array([1.0, -1.0]),
                              feasible_set=va.NonnegativeOrthant(2),
                              mu=1.0, lip=1.0, solution=[1.0, 0.0])
    primary, res = va.merit(prob, np.array([2.0, 0.0]))
    assert primary == 2.0  # |z . F(z)| = |2*1 + 0*1|
    assert res == 1.0
    at_solution = va.merit(prob, np.array([1.0, 0.0]))
    assert at_solution[0] <= 1e-15 and at_solution[1] <= 1e-15


# --- potentials ----------------------------------------------------------------

def test_vi_distance_potential_value_and_guard():
    prob = va.MonotoneProblem(dimension=1, operator=lambda z: z.copy(),
                              feasible_set=va.WholeSpace(1), mu=1.0, lip=1.0,
                              solution=np.zeros(1))
    phi = va.vi_distance_potential(prob, 0.5)
    st = va.ViState(z_curr=np.array([2.0]), z_prev=np.array([1.0]),
                    f_curr=np.array([2.0]), f_prev=np.array([1.0]))
    assert phi(st) == 4.5  # 2^2 + 0.5 * 1^2
    unsolved = va.MonotoneProblem(dimension=1, operator=lambda z: z.copy(),
                                  feasible_set=va.WholeSpace(1), mu=1.0, lip=1.0)
    with pytest.raises(ValueError):
        va.vi_distance_potential(unsolved, 0.5)


def test_opt_potential_value_and_guard():
    obj = _quad_objective()
    phi = va.opt_potential(obj, 0.5)
    st = va.opt_state(obj, [1.0])._replace(v_curr=np.array([2.0]))
    assert phi(st) == 2.5  # (0.5 - 0) + 0.5 * 4
    with pytest.raises(ValueError):
        va.opt_potential(va.gen_logistic(5, 2, 0.01, 0), 0.5)


def test_ogda_potential_controls_distance_and_decays():
    prob, _ = va.gen_linear_vi(20, 3, 1e-2)
    alpha = 1.0 / (2.0 * prob.lip)
    tau = alpha / (1.0 + prob.sigma)
    tr = va.run(prob, "ogda", va.ViParams(alpha=alpha, tau=tau), np.ones(20),
                va.StopRule(max_iter=1500),
                potential=va.ogda_potential(prob))
    pot = tr.column("potential")
    dsq = tr.column("dist_sq")
    sg = prob.sigma
    assert all(p >= 0.5 * d - 1e-12 * max(1.0, d) for p, d in zip(pot, dsq))
    assert all((1.0 + sg) * pot[i + 1] <= pot[i] + 1e-9 * pot[0]
               for i in range(len(pot) - 1))
    with pytest.raises(ValueError):
        va.ogda_potential(va.MonotoneProblem(dimension=1,
                                             operator=lambda z: z.copy(),
                                             feasible_set=va.WholeSpace(1),
                                             mu=1.0, lip=1.0))


# --- contraction checking ---------------------------------------------------------

def test_check_contraction_passes_on_a_certified_run():
    prob, _ = va.gen_linear_vi(20, 3, 1e-2)
    params = C.default_params(C.REGIME_VI_UNRESTRICTED, prob.mu, prob.lip)
    cert = va.certify_vi_unrestricted(prob.mu, prob.lip, params)
    assert cert.feasible
    tr = va.run(prob, "extra-point", params, np.ones(20),
                va.StopRule(max_iter=500),
                potential=va.vi_distance_potential(prob, cert.theta_default))
    report = va.check_contraction(tr, cert)
    assert report.ok
    assert report.rate == cert.rate
    assert report.checked_steps == 500
    assert report.violating_iters == ()
    assert report.max_violation <= 1e-9
    assert report.endpoint_excess is not None and report.endpoint_excess <= 0.0


def test_check_contraction_requires_potential_data():
    prob, _ = va.gen_linear_vi(5, 0, 0.05)
    tr = va.run(prob, "vanilla", va.ViParams(alpha=0.02), np.ones(5),
                va.StopRule(max_iter=5))
    with pytest.raises(ValueError):
        va.check_contraction(tr, _manual_cert(0.9))


def test_check_contraction_flags_growth():
    tr = _synthetic_trace([1.0, 2.0, 4.0])
    report = va.check_contraction(tr, _manual_cert(0.9))
    assert not report.ok
    assert report.violating_iters == (0, 1)
    assert report.max_violation == pytest.approx(2.0 - 0.9, rel=1e-15)


def test_check_contraction_zero_potential_counts_as_settled():
    tr = _synthetic_trace([0.0, 0.0, 0.0])
    report = va.check_contraction(tr, _manual_cert(0.9))
    assert report.ok
    assert report.checked_steps == 2
    assert report.max_violation == -0.9
    grown = _synthetic_trace([0.0, 1.0])
    bad = va.check_contraction(grown, _manual_cert(0.9))
    assert not bad.ok and bad.max_violation == math.inf


def test_check_contraction_fails_a_non_finite_potential():
    """nan > bound is false, so a non-finite potential is failed on its
    own: the step that produced it, or the step from it, is named."""
    report = va.check_contraction(_synthetic_trace([1.0, 0.5, math.nan]),
                                  _manual_cert(0.9))
    assert not report.ok
    assert report.violating_iters == (1,)
    assert report.max_violation == math.inf
    for pot in ([1.0, math.inf, 0.5], [math.nan, 0.5, 0.25]):
        report = va.check_contraction(_synthetic_trace(pot), _manual_cert(0.9))
        assert not report.ok and report.violating_iters[0] == 0, pot


def test_check_contraction_fails_a_nan_endpoint():
    """A nan inside the endpoint column, which max would drop unless it
    came first, fails the endpoint."""
    tr = IterateTrace(method="ogda")
    for k, (dsq, pot) in enumerate(zip([1.0, math.nan, 0.2],
                                       [1.0, 0.5, 0.25])):
        oracles.append_row(tr, k, 1.0, None, dsq, pot, 0)
    report = va.check_contraction(tr, _manual_cert(0.9))
    assert report.violating_iters == ()
    assert report.endpoint_excess == math.inf and not report.ok


def test_check_contraction_endpoint_bounds_for_past_gradient():
    prob, _ = va.gen_linear_vi(20, 3, 1e-2)
    alpha = 1.0 / (2.0 * prob.lip)
    tau = alpha / (1.0 + prob.sigma)
    tr = va.run(prob, "ogda", va.ViParams(alpha=alpha, tau=tau), np.ones(20),
                va.StopRule(max_iter=1500),
                potential=va.ogda_potential(prob))
    # The potential contracts up to float noise that is absolute in the starting
    # value, so anchor the tolerance there; ratios jitter once V hits ~1e-29.
    atol = 1e-9 * tr.column("potential")[0]
    report = va.check_contraction(tr, _manual_cert(1.0 / (1.0 + prob.sigma)),
                                  atol=atol)
    assert report.endpoint_excess is not None
    assert report.endpoint_excess <= 0.0
    assert report.ok


def test_check_contraction_endpoint_bounds_for_opt_scheme():
    obj = va.gen_quadratic(8, 2, 0.05)
    params = C.default_params(C.REGIME_OPT, obj.mu, obj.lip)
    cert = va.certify_opt(obj.mu, obj.lip, params)
    assert cert.feasible
    tr = va.run(obj, "opt-extra-point", params, np.ones(8),
                va.StopRule(max_iter=200),
                potential=va.opt_potential(obj, 0.5 * obj.mu))
    atol = 1e-12 * (1.0 + abs(obj.optimal_value))
    report = va.check_contraction(tr, cert, atol=atol)
    assert report.ok
    assert report.endpoint_excess is not None and report.endpoint_excess <= 0.0


def test_check_contraction_takes_the_endpoint_rate_from_the_certificate():
    """A feasible opt setting at theta = sqrt(sigma)/4 and c = mu/8 holds at
    every step; its endpoint holds at the certified rate 0.975, not at the
    paper default's 2 (1 - sqrt(sigma))^k."""
    obj = va.gen_quadratic(20, 0, 1e-2)
    t3_6 = C.default_params(C.REGIME_OPT, obj.mu, obj.lip).t[2:6]  # delta 0.5
    theta, c = math.sqrt(obj.sigma) / 4.0, obj.mu / 8.0
    params = va.OptParams(t=(1.0 / (1.0 + theta), theta / (1.0 + theta), *t3_6,
                             1.0 - theta, theta, theta / (2.0 * c)), c=c)
    cert = va.certify_opt(obj.mu, obj.lip, params)
    assert cert.feasible and cert.rate == 0.975
    tr = va.run(obj, "opt-extra-point", params, np.ones(20),
                va.StopRule(max_iter=400, residual_tol=1e-8),
                potential=va.opt_potential(obj, c))
    report = va.check_contraction(tr, cert,
                                  atol=1e-12 * (1.0 + abs(obj.optimal_value)))
    assert report.violating_iters == () and report.max_violation < -0.02
    assert report.endpoint_excess <= 0.0 and report.ok


def test_no_certified_run_fails_its_endpoint_alone():
    """Over seeded feasible opt settings with c <= mu/2 on quadratics, and
    paper-default extra-point runs (as solve builds them) on free and
    orthant linear VIs and a saddle: a report whose every potential step
    holds passes its endpoint, and every VI report has an endpoint check
    that holds."""
    rng = np.random.default_rng(0)
    reports = []
    while len(reports) < 20:
        obj = va.gen_quadratic(int(rng.integers(4, 12)), int(rng.integers(1000)),
                               float(rng.choice([1e-3, 1e-2, 0.05, 0.2])))
        t3_6 = C.default_params(C.REGIME_OPT, obj.mu, obj.lip,
                                rng.uniform(0.1, 0.9)).t[2:6]
        theta = math.sqrt(obj.sigma) * rng.uniform(0.05, 1.0)
        c = obj.mu * rng.uniform(0.02, 0.5)
        # oec-t7-bound, t7-t8-sum and oec-t8c leave t8 in this window
        t8 = rng.uniform(theta, min(1.0, obj.mu * theta / (2.0 * c)))
        den = 1.0 - t8 * theta
        params = va.OptParams(t=((1.0 - theta) / den, (1.0 - t8) * theta / den,
                                 *t3_6, 1.0 - t8, t8, theta / (2.0 * c)), c=c)
        cert = va.certify_opt(obj.mu, obj.lip, params)
        if cert.feasible:
            tr = va.run(obj, "opt-extra-point", params, np.ones(obj.dimension),
                        va.StopRule(max_iter=2000, residual_tol=1e-9),
                        potential=va.opt_potential(obj, c))
            reports.append(va.check_contraction(
                tr, cert, atol=1e-12 * (1.0 + abs(obj.optimal_value))))
    targets = [va.gen_bilinear_saddle(3, 2, seed) for seed in range(2)]
    targets += [va.gen_linear_vi(5, seed, 0.05, constrained=constrained)[0]
                for seed in range(2) for constrained in (False, True)]
    for target in targets:
        plan = build_method(MethodSpec("extra-point", preset="paper-default"),
                            target, {"max_iter": 20000, "tol": 1e-10})
        vi_report = plan.check(plan.run())
        assert vi_report.endpoint_excess <= 0.0, target.kind
        reports.append(vi_report)
    for report in reports:
        assert report.violating_iters or report.endpoint_excess <= 0.0, report


# --- one-step recursion audits ------------------------------------------------

def test_unrestricted_recursion_bound_holds_on_stepper_output():
    prob, _ = va.gen_linear_vi(5, 4, 0.05)
    recorded, inputs = oracles.recording(prob)
    params = C.default_params(C.REGIME_VI_UNRESTRICTED, prob.mu, prob.lip)
    step = va.vi_stepper(recorded, params)
    rng = np.random.default_rng(0)
    for _ in range(50):
        zc = rng.standard_normal(5)
        zp = rng.standard_normal(5)
        st = va.ViState(z_curr=zc, z_prev=zp, f_curr=prob.operator(zc),
                        f_prev=prob.operator(zp))
        inputs.clear()
        out = step(st)
        terms = oracles.unrestricted_recursion_terms(
            params, prob.mu, prob.lip, prob.operator,
            zp, zc, inputs[0], out.z_curr, prob.solution)
        scale = 1.0 + abs(terms["lhs"]) + abs(terms["rhs"])
        assert terms["slack"] >= -1e-8 * scale


def test_restricted_recursion_bound_holds_on_stepper_output():
    prob, _ = va.gen_linear_vi(5, 4, 0.05, constrained=True)
    recorded, inputs = oracles.recording(prob)
    params = C.default_params(C.REGIME_VI_RESTRICTED, prob.mu, prob.lip)
    step = va.vi_stepper(recorded, params, restricted=True)
    rng = np.random.default_rng(1)
    for _ in range(50):
        zc = prob.feasible_set.project(rng.standard_normal(5))
        zp = prob.feasible_set.project(rng.standard_normal(5))
        st = va.ViState(z_curr=zc, z_prev=zp, f_curr=prob.operator(zc),
                        f_prev=prob.operator(zp))
        inputs.clear()
        out = step(st)
        terms = oracles.restricted_recursion_terms(
            params, prob.mu, prob.lip, prob.operator,
            zp, zc, inputs[0], out.z_curr, prob.solution)
        scale = 1.0 + abs(terms["lhs"]) + abs(terms["rhs"])
        assert terms["slack"] >= -1e-8 * scale


# --- numeric oracles -------------------------------------------------------------

def test_finite_diff_grad_on_callable_and_objective():
    fd = oracles.finite_diff_grad(lambda x: 0.5 * float(x @ x),
                                  np.array([1.0, 2.0]))
    assert np.allclose(fd, [1.0, 2.0], rtol=0, atol=1e-9)
    assert np.array_equal(oracles.finite_diff_grad(lambda x: 7.0, np.ones(3)),
                          np.zeros(3))
    obj = va.gen_quadratic(6, 0, 0.1)
    x = np.linspace(-1, 1, 6)
    assert np.allclose(oracles.finite_diff_grad(obj, x), obj.gradient(x),
                       rtol=1e-7, atol=1e-7)


def test_finite_diff_jacobian_recovers_a_linear_map():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((4, 4))
    J = va.finite_diff_jacobian(lambda z: M @ z, np.zeros(4))
    assert np.allclose(J, M, rtol=0, atol=1e-9)


def test_power_iteration_norm_reference_values():
    assert va.power_iteration_norm(3.0 * np.eye(5)) == pytest.approx(3.0, abs=1e-10)
    n = 40
    est = va.power_iteration_norm(np.diag(np.arange(1.0, n + 1.0)))
    assert est == pytest.approx(float(n), rel=1e-3)
    assert est <= n * (1.0 + 1e-12)  # one-sided estimate
    assert va.power_iteration_norm(np.zeros((3, 3))) == 0.0
    # a matrix with no column starts from an empty vector and one with no
    # row steps to zero: both give 0.0, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((3, 0), (0, 3)):
            assert va.power_iteration_norm(np.empty(shape)) == 0.0


def test_power_iteration_norm_rectangular_and_not_2d():
    M = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert va.power_iteration_norm(M) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        va.power_iteration_norm(np.ones(3))


def test_power_iteration_norm_overflows_without_a_warning():
    # unscaled, M^T M v would overflow at the first step; warnings are
    # errors under pytest, and the caller's numpy error state is its own
    # again afterwards
    before = np.geterr()
    assert va.power_iteration_norm(np.diag([1e300, 1.0])) == 1e300
    assert np.geterr() == before
    prob = va.gen_bilinear_saddle(2, 2, 0, mu_x=1e300, mu_y=1e-300)
    assert prob.lip == pytest.approx(1e300, rel=1e-15)


def test_power_iteration_norm_rescales_huge_and_tiny_matrices():
    assert va.power_iteration_norm(np.diag([1e200, 1.0])) == 1e200
    assert va.power_iteration_norm(np.diag([1e300, 1e-300])) == 1e300
    assert va.power_iteration_norm(1e-200 * np.eye(3)) == \
        pytest.approx(1e-200, rel=1e-15)
    assert va.power_iteration_norm(np.full((3, 3), 1e308)) == math.inf
    # a power-of-two scale is exact, so the scaled loop takes the same
    # steps and its norm and bar scale back bit for bit
    M = np.random.default_rng(4).uniform(-1.0, 1.0, (6, 6))
    p = va.power_iteration_norm(M)
    for e in (-600, 450):
        assert va.power_iteration_norm(np.ldexp(M, e)) == math.ldexp(p, e)
        assert va.power_iteration_norm(
            np.ldexp(M, e), above=math.ldexp(p * p, 2 * e)) is None
    assert va.gen_bilinear_saddle(2, 2, 0, mu_x=1e200, mu_y=1e200).lip == \
        pytest.approx(1e200, rel=1e-15)


def test_norm_of_diagonal_plus_skew_dominates_the_diagonal():
    # ||Q + A|| >= max_i Q_ii always; coupling makes it strictly larger here
    sq = np.array([[2.0, 1.0], [-1.0, 1.0]])
    got = va.power_iteration_norm(sq)
    expected = math.sqrt((7.0 + math.sqrt(13.0)) / 2.0)  # exact eigensolve
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 2.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = np.abs(rng.standard_normal(4)) + 0.1
        t = rng.standard_normal((4, 4))
        a = np.triu(t, 1) - np.triu(t, 1).T
        assert va.power_iteration_norm(np.diag(q) + a) >= q.max() * (1.0 - 1e-9)


def test_reference_minimum_on_the_logit_objective():
    obj = va.gen_logistic(15, 2, 0.005, 0)
    x, fval, iters = oracles.reference_minimum(obj)
    assert fval == 0.2891770749877034
    assert iters == 24
    assert float(np.linalg.norm(obj.gradient(x))) <= 1e-12
    # the solution is tight enough to pass the container's acceptance check
    va.SmoothObjective(dimension=15, value=obj.value, gradient=obj.gradient,
                       mu=obj.mu, lip=obj.lip, minimizer=x, optimal_value=fval)


# --- trace export -----------------------------------------------------------------

def _small_trace():
    prob, _ = va.gen_linear_vi(4, 0, 0.05)
    return va.run(prob, "vanilla", va.ViParams(alpha=0.05), np.ones(4),
                  va.StopRule(max_iter=24),
                  potential=va.vi_distance_potential(prob, 0.1))


def test_csv_round_trip_is_bit_exact(tmp_path):
    tr = _small_trace()
    path = tmp_path / "trace.csv"
    va.write_trace_csv(tr, path)
    text = path.read_text()
    rows = list(csv.DictReader(text.splitlines()))
    assert text.splitlines()[0] == CSV_HEADER
    assert len(rows) == tr.iterations + 1
    for name in ("k", "merit_primary", "potential", "dist_sq"):
        assert [float(row[name]) for row in rows] == tr.column(name)


def test_csv_thinning_keeps_first_stride_and_last(tmp_path):
    tr = _small_trace()
    path = tmp_path / "thin.csv"
    va.write_trace_csv(tr, path, thinning=10)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [int(r["k"]) for r in rows] == [0, 10, 20, 24]


def test_csv_blank_cells_for_absent_columns(tmp_path):
    prob, _ = va.gen_linear_vi(4, 0, 0.05)
    tr = va.run(prob, "vanilla", va.ViParams(alpha=0.05), np.ones(4),
                va.StopRule(max_iter=3))  # no potential callable
    path = tmp_path / "bare.csv"
    va.write_trace_csv(tr, path)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert all(r["potential"] == "" for r in rows)


def test_jsonl_round_trip_with_nulls(tmp_path):
    prob, _ = va.gen_linear_vi(4, 0, 0.05)
    tr = va.run(prob, "vanilla", va.ViParams(alpha=0.05), np.ones(4),
                va.StopRule(max_iter=5))
    path = tmp_path / "trace.jsonl"
    va.write_trace_jsonl(tr, path)
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert len(lines) == tr.iterations + 1
    for name in ("k", "merit_primary", "dist_sq"):
        assert [obj[name] for obj in lines] == tr.column(name)
    assert all(obj["potential"] is None for obj in lines)


def test_readme_documents_the_written_trace_fields(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(ln for ln in readme.splitlines()
                if ln.startswith("- **Trace CSV**"))
    assert line.split("`")[1] == CSV_HEADER == ",".join(TRACE_FIELDS)
    path = tmp_path / "trace.jsonl"
    va.write_trace_jsonl(_small_trace(), path)
    for ln in path.read_text().splitlines():
        assert tuple(json.loads(ln)) == TRACE_FIELDS


def test_power_iteration_norm_matches_the_plain_loop_bit_for_bit():
    rng = np.random.default_rng(9)
    for shape in ((3, 3), (20, 20), (200, 200), (30, 7), (7, 30)):
        M = rng.uniform(-1.0, 1.0, shape)
        assert va.power_iteration_norm(M) == oracles.power_iteration_norm(M)


def _scale_search_matrices(monkeypatch, grid):
    """Every (matrix, above) gen_linear_vi hands power iteration, the scale
    search's and the norm calls'."""
    calls = []
    norm = P.power_iteration_norm

    def recorded(M, iters=500, above=math.inf):
        calls.append((np.array(M), above))
        return norm(M, iters, above)

    monkeypatch.setattr(P, "power_iteration_norm", recorded)
    for args in grid:
        va.gen_linear_vi(*args)
    return calls


def _step_counts(calls):
    """The number of steps each recorded call ran, as the plain loop
    counts them."""
    return np.array([len(oracles.power_steps(M, above=above))
                     for M, above in calls])


def test_power_iteration_norm_stops_at_its_fixed_point_bit_for_bit(
        monkeypatch):
    grid = [(n, seed, sigma) for n, seed in ((2, 0), (5, 1), (20, 0))
            for sigma in (1.0, 1e-2, 1e-4)]
    calls = _scale_search_matrices(monkeypatch, grid)
    monkeypatch.undo()
    counts = _step_counts(calls)
    assert counts.max() == 500 and (counts < 500).any()
    for M, _ in calls:
        assert va.power_iteration_norm(M) == oracles.power_iteration_norm(M)


def test_power_iteration_norm_leaves_a_two_cycle_bit_for_bit(monkeypatch):
    # on some scales of the (20, 101) search the iterates end up
    # alternating between two vectors; whatever the parity of the cap,
    # the loop that leaves the cycle returns the plain loop's norm
    calls = _scale_search_matrices(monkeypatch, [(20, 101, 1e-2)])
    monkeypatch.undo()
    cycles = 0
    for M, _ in calls:
        vs = oracles.power_iterates(M)
        k = next((k for k in range(2, len(vs))
                  if np.array_equal(vs[k], vs[k - 2])
                  and not np.array_equal(vs[k], vs[k - 1])), None)
        if k is None:
            continue
        cycles += 1
        for iters in range(k - 3, k + 4):
            assert va.power_iteration_norm(M, iters) == \
                oracles.power_iteration_norm(M, iters)
    assert cycles >= 4


def test_scale_search_runs_at_most_half_its_power_steps(monkeypatch):
    # every scale's full loop would take 11,799 steps on (20, 101) and
    # 16,710 on (20, 202); the search stops each "below" step once the
    # running bound settles it, every loop stops on a fixed point or a
    # 2-cycle, and no midpoint is settled twice: 57 search steps, the
    # top-scale norm and no norm call for lip
    for args, total in (((20, 101, 1e-2), 6299), ((20, 202, 1e-2), 11294)):
        counts = _step_counts(_scale_search_matrices(monkeypatch, [args]))
        assert counts.sum() <= 0.5 * 500 * len(counts)
        assert counts.sum() == total and len(counts) == 58


def test_power_iteration_steps_bound_the_norm_from_below(monkeypatch):
    # the search settles a step on sqrt(nw) with a 1e-9 margin; the bound
    # must hold to well within it on every matrix the search builds
    grid = [(n, seed, sigma) for n in (2, 3, 5, 20, 50) for seed in (0, 1)
            for sigma in (1.0, 1e-2, 1e-4)]
    calls = _scale_search_matrices(monkeypatch, grid)
    monkeypatch.undo()
    for M, _ in calls:
        top = max(oracles.power_steps(M))
        assert math.sqrt(top) <= va.power_iteration_norm(M) * (1.0 + 1e-12)


def test_power_iteration_norm_stops_exactly_when_a_step_passes_above(
        monkeypatch):
    # None when some step's nw passes above, the bits of the whole loop
    # otherwise: at the search's own bars, at the largest nw, and just
    # beneath it
    calls = _scale_search_matrices(
        monkeypatch, [(20, 101, 1e-2), (5, 1, 1e-4), (2, 0, 1.0)])
    monkeypatch.undo()
    stops = 0
    for M, bar in calls:
        top = max(oracles.power_steps(M))
        full = va.power_iteration_norm(M)
        for above in (bar, top, math.nextafter(top, 0.0)):
            got = va.power_iteration_norm(M, above=above)
            if top > above:
                stops += 1
                assert got is None
            else:
                assert got == full
    # just beneath the largest nw always stops; some search bars do too
    assert stops > len(calls)


def _special_trace():
    """A trace whose columns take every spec: ints, floats over the special
    values, floats with a nan or an inf, and None."""
    tr = IterateTrace(method="vanilla")
    floats = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.0 / 3.0, 1e16,
              123456789.0, 1.7976931348623157e308, math.inf, -math.inf,
              np.float64(0.1), 2.5]
    mixed = [0.75, 1.5, math.nan, 7.0, -3.0, np.float64(-0.25), 1.0, 3.0,
             float(np.float32(0.1)), math.inf, 2.0, 1e-300]
    for k, (f, m) in enumerate(zip(floats, mixed)):
        oracles.append_row(tr, k, f, m, None, [0.5, math.nan][k % 2],
                           k * 1000 + 7)
    return tr


def _writer_traces():
    prob, _ = va.gen_linear_vi(4, 0, 0.05)
    zero = va.run(prob, "vanilla", va.ViParams(alpha=0.05), np.ones(4),
                  va.StopRule(max_iter=0))
    with pytest.raises(va.DivergenceError) as info:
        va.run(prob, "vanilla", va.ViParams(alpha=1e3), np.ones(4),
               va.StopRule(max_iter=100),
               potential=va.vi_distance_potential(prob, 0.1))
    obj = va.gen_quadratic(5, 1, 0.1)
    obj.optimal_value = None  # a gap column of None only
    opt = va.run(obj, "opt-extra-point",
                 va.default_params(va.REGIME_OPT, obj.mu, obj.lip),
                 np.ones(5), va.StopRule(max_iter=12))
    empty = IterateTrace(method="vanilla")
    return {"run": _small_trace(), "special": _special_trace(),
            "zero-iterations": zero, "divergent": info.value.trace,
            "opt without f*": opt, "empty": empty}


def _run_traces():
    """A trace of every shape run makes, by name: each method on each kind
    it applies to, with and without a potential, opt with and without f*,
    max_iter = 0, a divergent partial trace and a run whose merits
    overflow."""
    lin, _ = va.gen_linear_vi(5, 0, 0.05)
    orth, _ = va.gen_linear_vi(5, 0, 0.05, constrained=True)
    quad = va.gen_quadratic(5, 1, 0.1)
    logi = va.gen_logistic(4, 3, 0.05, 1)
    stop = va.StopRule(max_iter=30, residual_tol=1e-3)
    traces = {}
    for kind, prob in {"linear-vi": lin, "orthant": orth,
                       "quadratic": va.gradient_problem(quad),
                       "logistic": va.gradient_problem(logi),
                       "bilinear": va.gen_bilinear_saddle(3, 2, 1)}.items():
        whole = prob.feasible_set.unbounded_whole_space
        params = va.default_params(va.REGIME_VI_UNRESTRICTED if whole else
                                   va.REGIME_VI_RESTRICTED, prob.mu, prob.lip)
        start = prob.feasible_set.project(np.ones(prob.dimension))
        for method in va.solvers.VI_METHODS:
            potentials = {"": None}
            if prob.solution is not None:
                potentials[" with a potential"] = \
                    va.ogda_potential(prob) if method == "ogda" else \
                    va.vi_distance_potential(prob, 0.1)
            for label, phi in potentials.items():
                traces[f"{method} on {kind}{label}"] = va.run(
                    prob, method, params, start, stop, potential=phi)
    blind = va.gen_quadratic(5, 1, 0.1)
    blind.optimal_value = None
    for kind, obj in {"quadratic": quad, "quadratic without f*": blind,
                      "logistic": logi}.items():
        params = va.default_params(va.REGIME_OPT, obj.mu, obj.lip)
        traces[f"opt on {kind}"] = va.run(obj, "opt-extra-point", params,
                                          np.ones(obj.dimension), stop)
    params = va.default_params(va.REGIME_OPT, quad.mu, quad.lip)
    traces["opt on quadratic with a potential"] = va.run(
        quad, "opt-extra-point", params, np.ones(5), stop,
        potential=va.opt_potential(quad, params.c))
    traces["max_iter 0"] = va.run(lin, "extra-point", va.default_params(
        va.REGIME_VI_UNRESTRICTED, lin.mu, lin.lip), np.ones(5),
        va.StopRule(max_iter=0), potential=va.vi_distance_potential(lin, 0.1))
    with pytest.raises(va.DivergenceError) as info:
        va.run(lin, "vanilla", va.ViParams(alpha=1e3), np.ones(5),
               va.StopRule(max_iter=100),
               potential=va.vi_distance_potential(lin, 0.1))
    traces["divergent partial"] = info.value.trace
    huge = va.MonotoneProblem(dimension=2, operator=lambda z: 1e200 * z,
                              feasible_set=va.WholeSpace(2), mu=1e200,
                              lip=1e200, solution=np.zeros(2))
    with np.errstate(over="ignore"):  # ||F(z)||^2 overflows
        traces["overflowing merits"] = va.run(
            huge, "vanilla", va.ViParams(alpha=0.25 / huge.lip), np.ones(2),
            va.StopRule(max_iter=3))
    return traces


@pytest.fixture(scope="module")
def run_traces():
    return _run_traces()


@pytest.mark.parametrize("thinning", [1, 2, 3, 7, 40, 10**20])
def test_trace_writers_match_the_per_value_renderer(tmp_path, run_traces,
                                                    thinning):
    for name, tr in {**_writer_traces(), **run_traces}.items():
        assert thinning < 40 or len(tr.column("k")) < 40
        for writer, oracle in ((va.write_trace_csv, oracles.trace_csv),
                               (va.write_trace_jsonl, oracles.trace_jsonl)):
            path = tmp_path / "trace.txt"
            writer(tr, path, thinning=thinning)
            assert path.read_bytes() == \
                oracle(tr, thinning).encode("ascii"), (name, writer)


def test_trace_writers_refuse_a_thinning_below_one(tmp_path):
    for writer in (va.write_trace_csv, va.write_trace_jsonl):
        with pytest.raises(ValueError, match="thinning must be a positive"):
            writer(_small_trace(), tmp_path / "trace.txt", thinning=0)
    assert not (tmp_path / "trace.txt").exists()


def test_run_keeps_the_trace_contract(run_traces):
    """Row i is iteration i, k and elapsed_ns hold ints, every other column
    holds floats or None in every row, and meta carries sigma; so
    check_contraction checks every pair."""
    assert len(run_traces) == 61
    for name, tr in run_traces.items():
        k = tr.column("k")
        assert k == list(range(len(k))) and k, name
        for field in TRACE_FIELDS:
            kinds = set(map(type, tr.column(field)))
            assert kinds == {int} if field in ("k", "elapsed_ns") else \
                kinds in ({float}, {type(None)}), (name, field, kinds)
        assert "sigma" in tr.meta, name
        if tr.column("potential")[0] is not None:
            report = va.check_contraction(tr, _manual_cert(0.99))
            assert report.checked_steps == len(k) - 1, name
    assert {tr.terminated_by for tr in run_traces.values()} == \
        {"tolerance", "max-iter", "divergence"}


def test_a_thinning_beyond_the_row_count_keeps_the_first_and_last_rows(
        tmp_path, run_traces):
    """islice takes steps up to sys.maxsize only: a larger thinning writes
    what a thinning of the row count does."""
    for name, tr in run_traces.items():
        rows = len(tr.column("k"))
        for writer in (va.write_trace_csv, va.write_trace_jsonl):
            writer(tr, tmp_path / "huge", thinning=10**20)
            writer(tr, tmp_path / "rows", thinning=rows)
            text = (tmp_path / "huge").read_bytes()
            assert text == (tmp_path / "rows").read_bytes(), (name, writer)
            assert len(text.splitlines()) == min(rows, 2) + \
                (writer is va.write_trace_csv), (name, writer)


def test_trace_writers_render_nan_as_an_absent_value(tmp_path):
    """nan, inf and -inf are written as None is: blank in CSV, null in
    JSONL."""
    tr = _special_trace()
    va.write_trace_csv(tr, tmp_path / "t.csv")
    va.write_trace_jsonl(tr, tmp_path / "t.jsonl")
    rows = list(csv.DictReader((tmp_path / "t.csv").read_text().splitlines()))
    objs = [json.loads(ln) for ln in
            (tmp_path / "t.jsonl").read_text().splitlines()]
    assert [r["potential"] for r in rows[:2]] == ["0.5", ""]
    assert [o["potential"] for o in objs[:2]] == [0.5, None]
    assert rows[2]["merit_aux"] == "" and objs[2]["merit_aux"] is None
    assert [r["merit_primary"] for r in rows[7:10]] == \
        ["1.7976931348623157e+308", "", ""]
    assert [o["merit_primary"] for o in objs[7:10]] == \
        [1.7976931348623157e308, None, None]
    assert rows[9]["merit_aux"] == "" and objs[9]["merit_aux"] is None


def test_jsonl_trace_of_an_overflowing_run_is_json(tmp_path):
    """A valid run whose merits overflow to inf writes null there, so every
    row of its JSONL trace parses."""
    prob = va.MonotoneProblem(dimension=2, operator=lambda z: 1e200 * z,
                              feasible_set=va.WholeSpace(2), mu=1e200,
                              lip=1e200, solution=np.zeros(2))
    with np.errstate(over="ignore"):  # ||F(z)||^2 overflows
        tr = va.run(prob, "vanilla", va.ViParams(alpha=0.25 / prob.lip),
                    np.ones(2), va.StopRule(max_iter=3))
    assert tr.column("merit_primary") == [math.inf] * 4
    path = tmp_path / "trace.jsonl"
    va.write_trace_jsonl(tr, path)
    objs = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert [o["k"] for o in objs] == [0, 1, 2, 3]
    assert all(o["merit_primary"] is None and o["merit_aux"] is None
               and o["potential"] is None for o in objs)
    assert [o["dist_sq"] for o in objs] == tr.column("dist_sq")


def test_trace_writers_stream_their_rows(tmp_path):
    tr = IterateTrace(method="vanilla")
    for k in range(20000):
        oracles.append_row(tr, k, k / 3.0, 1.0 / (k + 1), None,
                           math.sqrt(k), 1000 * k)
    for writer in (va.write_trace_csv, va.write_trace_jsonl):
        path = tmp_path / "long.txt"
        tracemalloc.start()
        try:
            writer(tr, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4, writer

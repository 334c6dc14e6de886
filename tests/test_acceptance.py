"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single "criterion NN PASS/FAIL <label>" line and then
asserts, so a verbose run doubles as a checklist.  The criteria exercise
the full stack at its stated tolerances: projection geometry, classical
per-iteration contraction factors, certified-rate tracking on generated
instances, specialization fidelity of the unified stepper, one-step
bound audits, gradient oracles, and the tuned-preset benchmark ordering.
"""

import math
import time

import numpy as np

import oracles
import viaccel as va
from viaccel import certify as C
from viaccel import presets as PR


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}")
    assert ok, f"criterion {num:02d} failed: {label}"


def _col(trace, name: str) -> np.ndarray:
    return np.array(trace.column(name), dtype=float)


def test_criterion_01_projection_geometry():
    rng = np.random.default_rng(0)
    n = 6
    lo = np.sort(rng.standard_normal(n))
    sets = (
        va.WholeSpace(n),
        va.NonnegativeOrthant(n),
        oracles.Box(lo, lo + rng.uniform(0.5, 2.0, n)),
        oracles.EuclideanBall(rng.standard_normal(n), 1.5),
    )
    t0 = time.perf_counter()
    ok = True
    for fset in sets:
        for _ in range(10_000):
            x = 3.0 * rng.standard_normal(n)
            y = 3.0 * rng.standard_normal(n)
            px, py = fset.project(x), fset.project(y)
            dp = px - py
            ok &= float(np.linalg.norm(dp)) <= float(np.linalg.norm(x - y)) + 1e-12
            ok &= float(dp @ dp) <= float((x - y) @ dp) + 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _verdict(1, "projections non-expansive and firmly co-coercive "
                f"(4x10^4 pairs in {elapsed:.2f}s)", ok)


def test_criterion_02_forward_step_contraction():
    prob, _ = va.gen_linear_vi(20, 5, 1e-2)
    alpha = prob.mu / prob.lip ** 2
    tr = va.run(prob, "vanilla", va.ViParams(alpha=alpha), np.ones(20),
                va.StopRule(max_iter=2000))
    d = _col(tr, "dist_sq")
    ok = len(d) == 2001 and bool(
        np.all(d[1:] <= (1.0 - prob.sigma ** 2 + 1e-9) * d[:-1]))
    _verdict(2, "forward step at alpha = mu/L^2 contracts squared distance "
                "by 1 - sigma^2 each iteration", ok)


def test_criterion_03_extragradient_contraction_both_variants():
    ok = True
    for constrained in (False, True):
        prob, _ = va.gen_linear_vi(20, 6, 1e-2, constrained=constrained)
        alpha = 1.0 / (4.0 * prob.lip)
        tr = va.run(prob, "extra-gradient", va.ViParams(alpha=alpha, eta=alpha),
                    np.ones(20), va.StopRule(max_iter=2000))
        d = _col(tr, "dist_sq")
        ok &= len(d) == 2001 and bool(
            np.all(d[1:] <= (1.0 - prob.sigma / 4.0 + 1e-9) * d[:-1]))
    _verdict(3, "extra-gradient at alpha = 1/(4L) contracts by 1 - sigma/4 "
                "on free and orthant-constrained instances", ok)


def test_criterion_04_past_gradient_distance_and_potential_bounds():
    prob, _ = va.gen_linear_vi(20, 3, 1e-2)
    sg = prob.sigma
    alpha = 1.0 / (2.0 * prob.lip)
    tr = va.run(prob, "ogda", va.ViParams(alpha=alpha, tau=alpha / (1.0 + sg)),
                np.ones(20), va.StopRule(max_iter=5000),
                potential=va.ogda_potential(prob))
    d = _col(tr, "dist_sq")
    v = _col(tr, "potential")
    ok = len(d) == 5001
    ok &= all(d[k] <= 2.0 * (1.0 + sg) ** (-k) * d[0] for k in range(len(d)))
    ok &= all((1.0 + sg) * v[k + 1] <= v[k] + 1e-9 * v[0]
              for k in range(len(v) - 1))
    _verdict(4, "past-gradient method keeps dist^2 <= 2(1+sigma)^-k d0 for "
                "k <= 5000 and its potential decays by 1/(1+sigma)", ok)


def test_criterion_05_certified_defaults_track_their_rates():
    ok = True
    # Default parameter families certify feasible across condition numbers,
    # with the momentum coefficients inside their stated windows.
    for kappa in (1.0, 10.0, 1e2, 1e3, 1e4):
        sg = 1.0 / kappa
        cu = C.certify(C.REGIME_VI_UNRESTRICTED, 1.0, kappa,
                       C.default_params(C.REGIME_VI_UNRESTRICTED, 1.0, kappa))
        cr = C.certify(C.REGIME_VI_RESTRICTED, 1.0, kappa,
                       C.default_params(C.REGIME_VI_RESTRICTED, 1.0, kappa))
        ok &= cu.feasible and cr.feasible
        ok &= 32.0 * sg / 256.0 < cu.a < 33.0 * sg / 256.0
        ok &= cu.b < 22.0 * sg / 256.0
    # Runs on known-solution instances stay inside the certified contraction
    # and reach residual 1e-8 no later than the certificate predicts.
    for constrained, regime in ((False, C.REGIME_VI_UNRESTRICTED),
                                (True, C.REGIME_VI_RESTRICTED)):
        prob, _ = va.gen_linear_vi(12, 9, 0.1, constrained=constrained)
        params = C.default_params(regime, prob.mu, prob.lip)
        cert = C.certify(regime, prob.mu, prob.lip, params)
        ok &= cert.feasible
        z0 = np.ones(12)
        gap = float((z0 - prob.solution) @ (z0 - prob.solution))
        # residual <= (2 + L) * dist, so this distance target implies 1e-8
        bound = C.iteration_bound(cert, gap, (1e-8 / (2.0 + prob.lip)) ** 2)
        tr = va.run(prob, "extra-point", params, z0,
                    va.StopRule(max_iter=bound, residual_tol=1e-8),
                    potential=va.vi_distance_potential(prob, cert.theta_default))
        report = va.check_contraction(tr, cert, rtol=1e-9)
        ok &= report.ok and report.checked_steps == tr.iterations
        ok &= tr.terminated_by == "tolerance" and tr.iterations <= bound
    _verdict(5, "default certificates are feasible for kappa in 1..1e4 and "
                "runs respect both the contraction and the iteration bound", ok)


def test_criterion_06_unified_stepper_reproduces_named_methods():
    ok = True
    for seed in (11, 12, 13):
        prob, _ = va.gen_linear_vi(8, seed, 0.05)
        a = 1.0 / (2.0 * prob.lip)
        cases = [
            (va.ViParams(alpha=a),
             lambda s: oracles.step_vanilla(prob, s, a)),
            (va.ViParams(alpha=a, gamma=0.3),
             lambda s: oracles.step_heavy_ball(prob, s, a, 0.3)),
            (va.ViParams(alpha=a, eta=0.8 * a),
             lambda s: oracles.step_extragradient(prob, s, a, 0.8 * a)),
            (va.ViParams(alpha=a, beta=0.3, gamma=0.3),
             lambda s: oracles.step_nesterov(prob, s, a, 0.3)),
            (va.ViParams(alpha=a, tau=0.5 * a),
             lambda s: oracles.step_ogda(prob, s, a, 0.5 * a)),
        ]
        z0 = np.ones(8)
        for prm, named in cases:
            sa = va.vi_state(prob, z0)
            sb = va.vi_state(prob, z0)
            for _ in range(100):
                sa = va.vi_stepper(prob, prm)(sa)
                sb = named(sb)
                scale = float(np.linalg.norm(sb.z_curr))
                ok &= float(np.linalg.norm(sa.z_curr - sb.z_curr)) \
                    <= 1e-12 * max(scale, 1e-300)
    _verdict(6, "five classical parameter patterns reproduce the named "
                "steppers to 1e-12 over 100 steps on three instances", ok)


def test_criterion_07_accelerated_minimization_bounds():
    obj = va.gen_quadratic(20, 2, 0.0024)
    params = C.default_params(C.REGIME_OPT, obj.mu, obj.lip)
    cert = C.certify(C.REGIME_OPT, obj.mu, obj.lip, params)
    rate = 1.0 - math.sqrt(obj.sigma)
    ok = cert.feasible and cert.rate == rate
    tr = va.run(obj, "opt-extra-point", params, np.ones(20),
                va.StopRule(max_iter=3000),
                potential=va.opt_potential(obj, params.c))
    e = _col(tr, "potential")
    gap = _col(tr, "merit_aux")
    atol = 1e-12 * (1.0 + abs(obj.optimal_value))
    ok &= len(gap) == 3001
    ok &= all(e[k + 1] <= (rate + 1e-9) * e[k] + atol for k in range(len(e) - 1))
    ok &= all(gap[k] <= 2.0 * rate ** k * gap[0] + atol for k in range(len(gap)))
    # the reduced default-coefficient update is the same map
    sa = va.opt_state(obj, np.ones(20))
    sb = va.opt_state(obj, np.ones(20))
    for _ in range(100):
        sa = va.opt_stepper(obj, params, y_rule="p")(sa)
        sb = oracles.step_opt_extra_point_simplified(
            obj, sb, math.sqrt(obj.sigma), params.t[2])
        scale = max(1.0, float(np.linalg.norm(sa.x_curr)))
        ok &= float(np.linalg.norm(sa.x_curr - sb.x_curr)) <= 1e-12 * scale
        ok &= float(np.linalg.norm(sa.v_curr - sb.v_curr)) <= 1e-12 * scale
    _verdict(7, "accelerated scheme contracts its potential by 1 - sqrt(sigma), "
                "bounds the value gap, and matches its reduced form", ok)


def test_criterion_08_one_step_recursion_audits():
    rng = np.random.default_rng(5)
    ok = True
    for constrained, regime, terms in (
            (False, C.REGIME_VI_UNRESTRICTED,
             oracles.unrestricted_recursion_terms),
            (True, C.REGIME_VI_RESTRICTED, oracles.restricted_recursion_terms)):
        prob, _ = va.gen_linear_vi(5, 4, 0.05, constrained=constrained)
        # the half point is the first input a step hands the operator
        recorded, inputs = oracles.recording(prob)
        draws = []
        while len(draws) < 20:
            # defaults for a harder (mu, L) pair, kept only when they
            # certify feasible for the true constants
            params = C.default_params(regime,
                                      prob.mu * rng.uniform(0.3, 1.0),
                                      prob.lip * rng.uniform(1.0, 3.0))
            if C.certify(regime, prob.mu, prob.lip, params).feasible:
                draws.append(params)
        for params in draws:
            for _ in range(100):
                zc = prob.feasible_set.project(rng.standard_normal(5))
                zp = prob.feasible_set.project(rng.standard_normal(5))
                st = va.ViState(z_curr=zc, z_prev=zp,
                                f_curr=prob.operator(zc),
                                f_prev=prob.operator(zp))
                inputs.clear()
                out = va.vi_stepper(recorded, params,
                                    restricted=constrained)(st)
                t = terms(params, prob.mu, prob.lip, prob.operator,
                          zp, zc, inputs[0], out.z_curr, prob.solution)
                ok &= t["slack"] >= -1e-8 * (1.0 + abs(t["lhs"]) + abs(t["rhs"]))
    _verdict(8, "one-step distance bounds hold on 100 states x 20 feasible "
                "parameter draws for both scheme variants", ok)


def test_criterion_09_gradient_oracle_matches_finite_differences():
    obj = va.gen_logistic(15, 30, 0.005, 0)
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(50):
        x = rng.standard_normal(15)
        g = obj.gradient(x)
        fd = oracles.finite_diff_grad(obj, x)
        ok &= float(np.linalg.norm(fd - g)) <= 1e-6 * float(np.linalg.norm(g))
    _verdict(9, "closed-form regularized-logistic gradient matches central "
                "differences to 1e-6 relative at 50 points", ok)


def test_criterion_10_tuned_presets_keep_the_benchmark_ordering():
    t0 = time.perf_counter()
    ok = True
    # linear VI rows: tuned extra-point beats the tuned forward step
    for seed in (101, 202):
        for constrained in (False, True):
            prob, _ = va.gen_linear_vi(20, seed, 1e-2, constrained=constrained)
            iters = {}
            for m in ("extra-point", "vanilla"):
                tr = va.run(prob, m, PR.table_preset(m, prob), np.ones(20),
                            va.StopRule(max_iter=20000, residual_tol=1e-6))
                ok &= tr.terminated_by == "tolerance"
                iters[m] = tr.iterations
            ok &= iters["extra-point"] < iters["vanilla"]
    # quadratic rows: each momentum method beats plain gradient descent
    # to within 1e-6 of the minimizer
    obj = va.gen_quadratic(20, 77, 0.0024)
    gprob = va.gradient_problem(obj)

    def first_crossing(trace) -> int:
        d = _col(trace, "dist_sq")
        hits = np.nonzero(d <= 1e-12)[0]
        return int(hits[0]) if hits.size else len(d)

    k_gd = first_crossing(va.run(
        gprob, "vanilla", PR.table_preset("vanilla", obj), np.ones(20),
        va.StopRule(max_iter=6000)))
    ok &= k_gd < 6000
    for m in ("heavy-ball", "nesterov"):
        k = first_crossing(va.run(gprob, m, PR.table_preset(m, obj),
                                  np.ones(20), va.StopRule(max_iter=6000)))
        ok &= k < k_gd
    k = first_crossing(va.run(obj, "opt-extra-point",
                              PR.table_preset("opt-extra-point", obj),
                              np.ones(20), va.StopRule(max_iter=6000)))
    ok &= k < k_gd
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _verdict(10, "tuned presets order every comparison as benchmarked "
                 f"(run took {elapsed:.1f}s)", ok)

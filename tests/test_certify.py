"""Feasibility certificates: windows, closed forms, and iteration bounds."""

import dataclasses
import math

import numpy as np
import pytest

import viaccel as va
import viaccel.certify as C


def _defaults(regime, mu, lip):
    return C.default_params(regime, mu, lip)


# --- momentum-weight window ------------------------------------------------

def test_theta_interval_worked_example():
    lo, hi = va.theta_interval(0.2, 0.05)
    # lo solves theta^2 + (1 - a) theta - b = 0
    assert lo == 0.05825756949558403
    assert hi == 0.2
    mid = 0.5 * (0.2 + 0.05)
    assert lo < mid < hi


def test_theta_interval_zero_b_starts_at_zero():
    assert va.theta_interval(0.5, 0.0) == (0.0, 0.5)


def test_theta_interval_rejects_bad_coefficients():
    for a, b in [(0.3, 0.3), (0.3, 0.4), (1.0, 0.1), (0.0, 0.0),
                 (0.5, -0.01), (-0.2, 0.0)]:
        with pytest.raises(ValueError):
            va.theta_interval(a, b)


def test_theta_interval_bounds_satisfy_the_contraction_inequality():
    # inside [lo, hi) the weight supports b <= theta * (1 - a + theta)
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.uniform(1e-4, 0.999)
        b = rng.uniform(0.0, a * 0.999)
        lo, hi = va.theta_interval(a, b)
        assert 0.0 <= lo < hi == a
        scale = max(1.0, b)
        assert abs(b - lo * (1.0 - a + lo)) <= 1e-12 * scale  # tight at lo
        for th in (lo, 0.5 * (lo + hi), 0.5 * (a + b)):
            assert b <= th * (1.0 - a + th) + 1e-12 * scale


# --- free-half-point regime ------------------------------------------------

def test_unrestricted_defaults_certify_with_closed_form_coefficients():
    mu, lip = 1.0, 10.0
    s = mu / lip
    cert = va.certify_vi_unrestricted(mu, lip, _defaults(C.REGIME_VI_UNRESTRICTED, mu, lip))
    assert cert.feasible and cert.violated == ()
    assert cert.regime == va.REGIME_VI_UNRESTRICTED
    # at the default parameters the coefficients reduce to polynomials in s
    assert cert.a == pytest.approx(33.0 * s / 256.0 - s * s / 8192.0, rel=1e-13)
    assert cert.b == pytest.approx(21.0 * s / 256.0 + s * s / 8192.0, rel=1e-13)
    assert cert.theta_default == 0.5 * (cert.a + cert.b)
    assert cert.rate == 1.0 - (cert.a - cert.theta_default)
    lo, hi = va.theta_interval(cert.a, cert.b)
    assert (cert.theta_lo, cert.theta_hi) == (lo, hi)
    assert lo < cert.theta_default < hi


def test_unrestricted_defaults_frozen_values():
    cert = va.certify_vi_unrestricted(1.0, 10.0, _defaults(C.REGIME_VI_UNRESTRICTED, 1.0, 10.0))
    assert cert.a == 0.012889404296875
    assert cert.b == 0.008204345703125001
    assert cert.theta_lo == 0.0082426472822030306
    assert cert.theta_default == 0.010546875000000001
    assert cert.rate == 0.99765747070312505


def test_unrestricted_independent_recomputation():
    # rebuild a and b from scratch for throwaway parameters
    mu, lip = 2.0, 9.0
    p = va.ViParams(alpha=0.02, beta=0.004, gamma=0.003, eta=0.025, tau=0.0004)
    al, be, ga, eta, ta = p.alpha, p.beta, p.gamma, p.eta, p.tau
    e = ga - al * be / eta
    r = al / eta
    abs2 = abs(-2.0 * al * be / eta - 2.0 * r * e)
    a_ref = al * mu - 3.0 * ga - ta * lip * (
        3.0 + 2.0 * ta * lip + 2.0 * r + 2.0 * al * lip) - 2.0 * e * e - abs2
    b_ref = 2.0 * e * e + ga + 2.0 * ta * lip * (
        1.0 + ta * lip + r + al * lip) + abs2
    cert = va.certify_vi_unrestricted(mu, lip, p)
    assert cert.a == pytest.approx(a_ref, rel=1e-13)
    assert cert.b == pytest.approx(b_ref, rel=1e-13)


def test_unrestricted_default_windows_hold_for_wide_conditioning():
    for kappa in (1.0, 10.0, 100.0, 1000.0, 10000.0):
        mu, lip = 1.0, kappa
        s = mu / lip
        cert = va.certify_vi_unrestricted(mu, lip, _defaults(C.REGIME_VI_UNRESTRICTED, mu, lip))
        assert cert.feasible
        assert 32.0 * s / 256.0 < cert.a < 33.0 * s / 256.0
        assert cert.b < 22.0 * s / 256.0
        assert cert.rate <= 1.0 - 5.0 * s / 512.0 + 1e-15


def test_unrestricted_zero_alpha_violates_first_line():
    cert = va.certify_vi_unrestricted(1.0, 10.0, va.ViParams(alpha=0.0, eta=0.025))
    assert not cert.feasible
    assert cert.violated == ("epc-line-1",)
    assert cert.guideline_flags == ("guideline-a-range", "guideline-b-window")


def test_unrestricted_zero_eta_is_rejected_up_front():
    cert = va.certify_vi_unrestricted(1.0, 10.0, va.ViParams(alpha=0.025))
    assert not cert.feasible
    assert cert.violated == ("eta-positive",)


def test_unrestricted_momentum_free_parameters_certify_plainly():
    # beta = gamma = tau = 0 with eta = alpha collapses to a = alpha*mu, b = 0
    cert = va.certify_vi_unrestricted(1.0, 10.0, va.ViParams(alpha=0.025, eta=0.025))
    assert cert.feasible
    assert cert.a == 0.025 and cert.b == 0.0
    assert cert.theta_lo == 0.0 and cert.theta_hi == 0.025


def test_unrestricted_coefficient_monotone_in_momentum_strength():
    mu, lip = 1.0, 10.0
    base = _defaults(C.REGIME_VI_UNRESTRICTED, mu, lip)
    a0 = va.certify_vi_unrestricted(mu, lip, base).a
    more_tau = dataclasses.replace(base, tau=2.0 * base.tau)
    more_gamma = dataclasses.replace(base, gamma=2.0 * base.gamma, beta=2.0 * base.beta)
    assert va.certify_vi_unrestricted(mu, lip, more_tau).a < a0
    assert va.certify_vi_unrestricted(mu, lip, more_gamma).a < a0


# --- projected-half-point regime -------------------------------------------

def test_restricted_defaults_frozen_values():
    mu, lip = 1.0, 100.0
    s = mu / lip
    cert = va.certify_vi_restricted(mu, lip, _defaults(C.REGIME_VI_RESTRICTED, mu, lip))
    assert cert.feasible and cert.violated == ()
    assert cert.a == 0.0014064697609001405
    assert cert.b == 0.00062509767151117362
    assert cert.s == 0.0015624999999999999
    assert cert.t == 0.00062500000000000001
    assert cert.u == 0.00015625
    # closed forms at the defaults: a = (9s/64)/(1 - s/64), b = (4s/64)/(1 - s/64)
    assert cert.a == pytest.approx((9.0 * s / 64.0) / (1.0 - s / 64.0), rel=1e-14)
    assert cert.b == pytest.approx((4.0 * s / 64.0) / (1.0 - s / 64.0), rel=1e-14)
    assert cert.b <= 4.0 * s / 63.0
    assert cert.rate <= 1.0 - s / 32.0 + 1e-15
    assert cert.rate == 0.9996093139553055


def test_restricted_defaults_certify_for_wide_conditioning():
    for kappa in (1.0, 10.0, 100.0, 1000.0, 10000.0):
        mu, lip = 1.0, kappa
        s = mu / lip
        cert = va.certify_vi_restricted(mu, lip, _defaults(C.REGIME_VI_RESTRICTED, mu, lip))
        assert cert.feasible
        assert cert.a >= 9.0 * s / 64.0  # denominator below one only helps
        assert cert.b <= 4.0 * s / 63.0
        assert cert.rate <= 1.0 - s / 32.0 + 1e-15


def test_restricted_requires_matching_half_step():
    mu, lip = 1.0, 100.0
    base = _defaults(C.REGIME_VI_RESTRICTED, mu, lip)
    off = dataclasses.replace(base, eta=base.eta * 1.5)
    cert = va.certify_vi_restricted(mu, lip, off)
    assert not cert.feasible
    assert "eta-equals-alpha" in cert.violated


def test_restricted_large_tau_breaks_the_leading_line():
    mu, lip = 1.0, 100.0
    bad = dataclasses.replace(_defaults(C.REGIME_VI_RESTRICTED, mu, lip), tau=1.0 / lip)
    cert = va.certify_vi_restricted(mu, lip, bad)
    assert not cert.feasible
    assert "exp2-line-1" in cert.violated
    assert math.isnan(cert.a) and math.isnan(cert.b)


# --- strongly convex minimization regime ------------------------------------

def test_opt_defaults_exact_tuple_for_kappa_four():
    p = C.default_params(C.REGIME_OPT, 1.0, 4.0)
    assert p.theta == 0.5
    assert p.t[2] == 0.5  # delta
    assert p.c == 0.5
    assert p.t == (2.0 / 3.0, 1.0 / 3.0, 0.5, 2.0 / 9.0, 4.0 / 9.0,
                   4.0 / 3.0, 0.5, 0.5, 0.5)


def test_opt_defaults_certify_on_the_curvature_boundary():
    # at kappa = 16 the last coefficient sits exactly on its allowed bound
    cert = va.certify_opt(1.0, 16.0, C.default_params(C.REGIME_OPT, 1.0, 16.0))
    assert cert.feasible and cert.violated == ()
    assert cert.rate == 0.75
    assert cert.theta_hi == 0.25
    assert cert.theta_default == 0.0
    assert cert.b == 0.0


def test_opt_defaults_certify_for_wide_conditioning():
    for kappa in (4.0, 16.0, 100.0, 1000.0, 10000.0):
        cert = va.certify_opt(1.0, kappa, C.default_params(C.REGIME_OPT, 1.0, kappa))
        assert cert.feasible
        assert cert.rate == pytest.approx(1.0 - math.sqrt(1.0 / kappa), rel=1e-12)


def test_opt_unit_condition_number_fails_the_theta_range():
    # theta = 1 leaves no contraction margin
    cert = va.certify_opt(1.0, 1.0, C.default_params(C.REGIME_OPT, 1.0, 1.0))
    assert not cert.feasible
    assert "theta-range" in cert.violated


def test_opt_weight_sum_violation_is_reported():
    base = C.default_params(C.REGIME_OPT, 1.0, 16.0)
    t = list(base.t)
    t[6] += 0.01
    bad = va.OptParams(t=tuple(t), theta=base.theta, c=base.c)
    cert = va.certify_opt(1.0, 16.0, bad)
    assert not cert.feasible
    assert "t7-t8-sum" in cert.violated


def test_opt_rejects_nonpositive_curvature_weight_at_construction():
    base = C.default_params(C.REGIME_OPT, 1.0, 16.0)
    with pytest.raises(ValueError):
        va.OptParams(t=base.t, theta=base.theta, c=0.0)
    with pytest.raises(ValueError):
        va.OptParams(t=base.t, theta=0.0, c=base.c)


# --- dispatcher, defaults, text rendering -----------------------------------

def test_certify_dispatcher_routes_by_regime():
    mu, lip = 1.0, 10.0
    for regime in va.REGIMES:
        cert = C.certify(regime, mu, lip, C.default_params(regime, mu, lip))
        assert cert.regime == regime
        assert cert.feasible
    with pytest.raises(ValueError):
        C.certify("saddle", mu, lip, va.ViParams(alpha=0.1))


def test_default_params_vi_values():
    pu = C.default_params(C.REGIME_VI_UNRESTRICTED, 1.0, 4.0)
    assert (pu.alpha, pu.beta, pu.gamma, pu.eta, pu.tau) == \
        (0.0625, 0.00390625, 0.00390625, 0.0625, 0.00048828125)
    pr = C.default_params(C.REGIME_VI_RESTRICTED, 1.0, 4.0)
    assert (pr.alpha, pr.beta, pr.gamma, pr.eta, pr.tau) == \
        (0.0625, 0.00390625, 0.00390625, 0.0625, 0.0009765625)


def test_certificate_text_rendering():
    cert = va.certify_vi_restricted(1.0, 100.0, _defaults(C.REGIME_VI_RESTRICTED, 1.0, 100.0))
    text = cert.to_text()
    lines = text.splitlines()
    assert "regime = vi-restricted" in lines
    assert "feasible = true" in lines
    assert "a = 0.0014064697609001405" in lines
    assert "rate = 0.9996093139553055" in lines
    assert any(line.startswith("s = ") for line in lines)
    bad = va.certify_vi_unrestricted(1.0, 10.0, va.ViParams(alpha=0.025))
    assert "feasible = false" in bad.to_text()
    assert "eta-positive" in bad.to_text()


# --- iteration bounds --------------------------------------------------------

def _manual_cert(rate):
    return C.RateCertificate(regime=C.REGIME_OPT, feasible=True, a=1.0 - rate,
                             b=0.0, theta_lo=0.0, theta_hi=1.0 - rate,
                             theta_default=0.0, rate=rate)


def test_iteration_bound_worked_examples():
    cert = _manual_cert(0.9)
    assert va.iteration_bound(cert, 1.0, 1e-3) == 66
    assert va.iteration_bound(cert, 1.0, 2.0) == 0  # already below tolerance


def test_iteration_bound_doubles_with_condition_number():
    b1 = va.iteration_bound(_manual_cert(1.0 - 5.0 * 0.01 / 512.0), 1.0, 0.5)
    b2 = va.iteration_bound(_manual_cert(1.0 - 5.0 * 0.005 / 512.0), 1.0, 0.5)
    assert b1 == 7098 and b2 == 14196
    assert abs(b2 - 2 * b1) <= 1


def test_iteration_bound_scales_start_by_momentum_window():
    cert = va.certify_vi_unrestricted(1.0, 10.0, _defaults(C.REGIME_VI_UNRESTRICTED, 1.0, 10.0))
    k = va.iteration_bound(cert, 1.0, 1e-8)
    scale = 1.0 + cert.theta_default
    expect = math.ceil(math.log(scale / 1e-8) / math.log(1.0 / cert.rate))
    assert k == expect
    # the certified decay actually reaches the tolerance by step k
    assert scale * cert.rate ** k <= 1e-8 * (1.0 + 1e-9)


def test_iteration_bound_input_validation():
    cert = _manual_cert(0.9)
    with pytest.raises(ValueError):
        va.iteration_bound(cert, 0.0, 1e-3)
    with pytest.raises(ValueError):
        va.iteration_bound(cert, 1.0, 0.0)
    infeasible = va.certify_vi_unrestricted(1.0, 10.0, va.ViParams(alpha=0.025))
    with pytest.raises(ValueError):
        va.iteration_bound(infeasible, 1.0, 1e-3)

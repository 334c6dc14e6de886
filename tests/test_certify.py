"""Feasibility certificates: windows, closed forms, and iteration bounds."""

import dataclasses
import decimal
import fractions
import hashlib
import math
import random

import numpy as np
import pytest

import viaccel as va
import viaccel.certify as C


VI_KEYS = ("alpha", "beta", "gamma", "eta", "tau")


def _defaults(regime, mu, lip):
    return C.default_params(regime, mu, lip)


# --- momentum-weight window ------------------------------------------------

def test_theta_interval_worked_example():
    lo, hi = va.theta_interval(0.2, 0.05)
    # lo solves theta^2 + (1 - a) theta - b = 0
    assert lo == 0.058257569495584
    assert hi == 0.2
    mid = 0.5 * (0.2 + 0.05)
    assert lo < mid < hi


def test_theta_interval_zero_b_starts_at_zero():
    assert va.theta_interval(0.5, 0.0) == (0.0, 0.5)
    # the general formula gives 2 * 0 / (2 (1 - a)): +0.0, never -0.0
    for a in (5e-324, 0.5, 1.0 - 2.0 ** -53):
        lo, hi = va.theta_interval(a, 0.0)
        assert (lo, hi) == (0.0, a) and math.copysign(1.0, lo) == 1.0


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


def _decimal_root(a, b):
    """The positive root of theta^2 + (1-a) theta - b in 60-digit decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, b = decimal.Decimal(a), decimal.Decimal(b)
        return (((1 - a) ** 2 + 4 * b).sqrt() - (1 - a)) / 2


@pytest.mark.parametrize("regime", [C.REGIME_VI_UNRESTRICTED,
                                    C.REGIME_VI_RESTRICTED])
def test_vi_defaults_certify_for_kappa_up_to_1e12(regime):
    for kappa in np.logspace(0.0, 12.0, 121):
        for mu in (1e-6, 1.0, 1e6):
            lip = mu * float(kappa)
            cert = C.certify(regime, mu, lip, _defaults(regime, mu, lip))
            assert cert.feasible, (kappa, mu, cert.violated)
            # a handful of roundings, each half an ulp at most: 1.6 ulp is
            # the worst seen here, while the cancelling form was off by 1e12
            err = decimal.Decimal(cert.theta_lo) - _decimal_root(cert.a, cert.b)
            assert abs(err) <= 2 * decimal.Decimal(math.ulp(cert.theta_lo))


def _exact_lines(regime, mu, lip, p):
    """Whether each VI line holds in exact rational arithmetic on the given
    floats, with the certifier's grace on equality and non-strict lines."""
    q = fractions.Fraction
    mu, L, rtol = q(mu), q(lip), q(C.EQ_RTOL)
    al, be, ga, eta, ta = (q(getattr(p, k)) for k in VI_KEYS)

    def le(x, y):
        return x <= y + rtol * max(1, abs(x), abs(y))

    def eq(x, y):
        return abs(x - y) <= rtol * max(1, abs(x), abs(y))

    if regime == C.REGIME_VI_RESTRICTED:
        u, g = ta * L, abs(ga - be)
        s = al * mu - 4 * ga - 2 * g - 2 * u
        t = 2 * ga + 2 * g + 2 * u
        return [eq(eta, al), u < s < 1, t < s - u, le(al * L + g - 1, 0),
                le(al * L + 2 * al * mu + u + 2 * ga - 1, 0)]
    r, e = al / eta, ga - al * be / eta
    a = al * mu - 3 * ga - ta * L * (3 + 2 * ta * L + 2 * r + 2 * al * L) \
        - 2 * e * e - abs(2 * al * be / eta + 2 * r * e)
    line1 = al * mu - 4 * ga - ta * L * (5 + 4 * ta * L + 4 * r + 4 * al * L) \
        - 4 * e * e - 4 * abs(-al * be / eta - r * ga + r * r * be)
    line3 = al * al * L * L + r * r + r * ta * L - 2 * r + 2 * al * mu \
        + al * ta * L * L + abs(al * be / eta + r * e)
    return [line1 > 0, a < 1, le(line3, 0), le(0, 2 * al * (r - 1)),
            le(0, 2 * ta * e), eq((ga * eta - al * be) * al, 0)]


@pytest.mark.parametrize("regime", [C.REGIME_VI_UNRESTRICTED,
                                    C.REGIME_VI_RESTRICTED])
def test_feasible_certificates_hold_in_exact_arithmetic(regime):
    """The paper defaults with each coefficient kept, zeroed or redrawn
    log-uniform over the float range, and (free half point) momentum-free
    sets with alpha / eta up to 1e300: every feasible certificate's lines
    hold on its floats in exact arithmetic, so none rests on a line whose
    float evaluation overflowed."""
    rng = random.Random(13)
    feasible = 0
    for _ in range(3000):
        mu = 10.0 ** rng.uniform(-6.0, 6.0)
        lip = mu * 10.0 ** rng.uniform(0.0, 6.0)
        base = C.default_params(regime, mu, lip)
        p = va.ViParams(*(rng.choice((
            getattr(base, k), getattr(base, k), 0.0,
            10.0 ** rng.uniform(-300.0, 300.0))) for k in VI_KEYS))
        if regime == C.REGIME_VI_UNRESTRICTED and rng.random() < 0.5:
            p = va.ViParams(alpha=base.alpha,
                            eta=base.alpha / 10.0 ** rng.uniform(0.0, 300.0))
        cert = C.certify(regime, mu, lip, p)
        if cert.feasible:
            feasible += 1
            assert all(_exact_lines(regime, mu, lip, p)), (mu, lip, p)
    assert feasible >= 100


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
    assert cert.theta_lo == 0.008242647282203044
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
    with pytest.raises(ValueError, match="unknown regime 'saddle'"):
        C.default_params("saddle", mu, lip)


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


def _pinned_sets(rng):
    """(regime, mu, lip, params): the paper defaults at random constants,
    half of them with coefficients scaled by factors in [0.5, 2], then the
    grid values of the README id test. No line of these overflows."""
    for _ in range(3000):
        regime = rng.choice(va.REGIMES)
        mu = 10.0 ** rng.uniform(-6.0, 6.0)
        lip = mu * 10.0 ** rng.uniform(0.0, 8.0)
        p = C.default_params(regime, mu, lip)
        spread = rng.random() < 0.5

        def scale(v):
            return v * rng.uniform(0.5, 2.0) if spread and rng.random() < 0.5 else v
        if regime == va.REGIME_OPT:
            p = va.OptParams(t=[scale(v) for v in p.t],
                             theta=min(1.0, scale(p.theta)), c=scale(p.c))
        else:
            p = va.ViParams(*(scale(getattr(p, k)) for k in VI_KEYS))
        yield regime, mu, lip, p
    for _ in range(1500):
        regime = rng.choice(va.REGIMES)
        if regime == va.REGIME_OPT:
            grid = (0.0, 0.25, 0.5, 1.0, 2.0)
            p = va.OptParams(t=[rng.choice(grid) for _ in range(9)],
                             theta=rng.choice((0.25, 1.0)),
                             c=rng.choice((0.5, 2.0)))
        else:
            grid = (0.0, 1e-3, 0.1, 0.5, 1.0, 2.0)
            p = va.ViParams(*(rng.choice(grid) for _ in VI_KEYS))
        yield regime, 1.0, rng.choice((1.0, 16.0)), p


def test_certificates_keep_their_bits():
    """4,500 certificates, feasible and not, print the text whose digest
    is recorded here, bit for bit."""
    text = "".join(C.certify(*case).to_text()
                   for case in _pinned_sets(random.Random(2024)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6dea091c4536a89b2caa3b758c19e783ba914fb8fea6cf7da4fbcb1b35116e45"


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


def test_iteration_bound_past_the_float_range_is_the_exact_ceiling():
    # a margin a - theta of about 5e-311 makes the float quotient infinite
    cert = va.certify_vi_unrestricted(1.0, 1.0, va.ViParams(alpha=1e-310,
                                                           eta=1e-12))
    assert cert.feasible
    log_ratio = math.log(1.0 + cert.theta_default) - math.log(0.5)
    log_rate = -math.log1p(-(cert.a - cert.theta_default))
    assert log_ratio / log_rate == math.inf
    k = va.iteration_bound(cert, 1.0, 0.5)
    assert k == math.ceil(fractions.Fraction(log_ratio)
                          / fractions.Fraction(log_rate))
    assert len(str(k)) == 311


def test_iteration_bound_is_the_exact_ceiling_where_the_float_quotient_rounds_down():
    # the float quotient of the two logs rounds down onto an integer here,
    # so its ceiling would undercount by one
    mu, lip = 1.0, 91827435.45112802
    gap, tol = 1960948580.2818284, 1.1266912759391233e-15
    cert = C.certify(C.REGIME_VI_RESTRICTED, mu, lip,
                     _defaults(C.REGIME_VI_RESTRICTED, mu, lip))
    log_ratio = math.log(1.0 + cert.theta_default) + math.log(gap) - math.log(tol)
    log_rate = -math.log1p(-(cert.a - cert.theta_default))
    assert math.ceil(log_ratio / log_rate) == 131211703050
    exact = math.ceil(fractions.Fraction(log_ratio) / fractions.Fraction(log_rate))
    assert va.iteration_bound(cert, gap, tol) == exact == 131211703051


def test_iteration_bound_input_validation():
    cert = _manual_cert(0.9)
    with pytest.raises(ValueError):
        va.iteration_bound(cert, 0.0, 1e-3)
    with pytest.raises(ValueError):
        va.iteration_bound(cert, 1.0, 0.0)
    for gap in (math.inf, math.nan):
        with pytest.raises(ValueError, match="initial_gap finite"):
            va.iteration_bound(cert, gap, 1e-8)
    infeasible = va.certify_vi_unrestricted(1.0, 10.0, va.ViParams(alpha=0.025))
    with pytest.raises(ValueError):
        va.iteration_bound(infeasible, 1.0, 1e-3)

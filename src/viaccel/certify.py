"""Parameter-feasibility certificates and contraction rates.

Each certify_* operation computes its intermediates, then builds one table
that maps every constraint id to whether that line holds, in the order the
ids are reported. Feasible parameters earn a certificate with a two-term
distance recursion

    ||z^{k+1} - z*||^2 + theta ||z^k - z*||^2
        <= rate * (||z^k - z*||^2 + theta ||z^{k-1} - z*||^2)

whose coefficients (a, b) and admissible theta window are reported; both
variational-inequality regimes draw that conclusion from their table in one
place, _vi_verdict. The optimization regime certifies the one-term potential
f(x) - f* + c ||v - x*||^2 instead, so its certificate carries b = 0 and a
zero momentum weight.

Comparison policy: strict inequalities are evaluated exactly on the given
floats; equality constraints and non-strict inequalities get a relative
grace of EQ_RTOL so that parameter choices sitting exactly on a boundary in
real arithmetic are not rejected for a one-ulp rounding excess. A line with
a side that overflowed gets no grace and does not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import ProblemInstance, format_float
from .solvers import OptParams, ViParams

REGIME_VI_UNRESTRICTED = "vi-unrestricted"
REGIME_VI_RESTRICTED = "vi-restricted"
REGIME_OPT = "opt"

REGIMES = (REGIME_VI_UNRESTRICTED, REGIME_VI_RESTRICTED, REGIME_OPT)

# Relative tolerance for equality constraints and for boundary contact on
# non-strict inequalities.
EQ_RTOL = 1e-12


@dataclass(frozen=True)
class RateCertificate:
    """Outcome of a feasibility check.

    When ``feasible`` is true, (a, b) are the recursion coefficients,
    [theta_lo, theta_hi) is the admissible momentum-weight window,
    theta_default the midpoint choice (a + b) / 2, and
    rate = 1 - (a - theta_default) the certified per-iteration contraction
    of the associated potential. ``violated`` lists the identifiers of the
    failed constraint lines otherwise. The restricted regime additionally
    reports its intermediates s, t, u.

    A run carrying the certified potential V has f_k - f* <= V_k <= rate^k V_0
    (opt) or ||z_k - z*||^2 <= V_k <= rate^k V_0 (VI): the one endpoint rule
    check_contraction applies, from rate and the run's own V_0.
    """

    regime: str
    feasible: bool
    a: float
    b: float
    theta_lo: float
    theta_hi: float
    theta_default: float
    rate: float
    violated: tuple = ()
    s: Optional[float] = None
    t: Optional[float] = None
    u: Optional[float] = None

    def to_text(self) -> str:
        """Render as stable ``key = value`` lines."""
        lines = [f"regime = {self.regime}",
                 f"feasible = {'true' if self.feasible else 'false'}"]
        lines += [f"{k} = {format_float(getattr(self, k))}" for k in
                  ("a", "b", "theta_lo", "theta_hi", "theta_default", "rate")]
        lines.append(f"violated = {','.join(self.violated)}")
        if self.s is not None:
            lines += [f"{k} = {format_float(getattr(self, k))}"
                      for k in ("s", "t", "u")]
        return "\n".join(lines) + "\n"


def _eq(x: float, y: float) -> bool:
    return _finite(x, y) and abs(x - y) <= EQ_RTOL * max(1.0, abs(x), abs(y))


def _le(x: float, y: float) -> bool:
    # non-strict comparison with boundary grace
    return _finite(x, y) and x <= y + EQ_RTOL * max(1.0, abs(x), abs(y))


def _finite(x: float, y: float) -> bool:
    # a side that overflowed (or is nan) would get an infinite grace; such
    # a line is not decided by the floats, so it does not hold
    return math.isfinite(x) and math.isfinite(y)


# The constants the certificates take: inside this range the paper defaults,
# down to mu / (64 lip^2), are normal floats, so no divisor the certifiers
# and iteration_bound form from them rounds to zero.
CONSTANT_RANGE = (1e-100, 1e100)


def _check_constants(mu: float, lip: float) -> None:
    ProblemInstance.check_constants(mu, lip)
    lo, hi = CONSTANT_RANGE
    outside = [f"{name} = {format_float(value)}"
               for name, value in (("mu", mu), ("lip", lip))
               if not lo <= value <= hi]
    if outside:
        raise ValueError(f"{' and '.join(outside)} outside [{lo:g}, {hi:g}], "
                         "where the paper defaults stay normal floats")


def theta_interval(a: float, b: float) -> tuple:
    """Admissible momentum-weight window [lo, hi) for coefficients (a, b).

    The window collects every theta with b <= theta * (1 - (a - theta)),
    intersected with [0, a). The lower endpoint is the nonnegative root of
    theta^2 + (1-a) theta - b, taken in the form
    2b / (sqrt((1-a)^2 + 4b) + (1-a)), which does not cancel when b is
    small and is +0.0 at b = +0.0, so the window for b = 0 is [0, a).

    Raises ValueError unless 0 <= b < a < 1.
    """
    if not (0.0 <= b < a < 1.0):
        raise ValueError(f"need 0 <= b < a < 1, got a={a}, b={b}")
    lo = 2.0 * b / (math.sqrt((1.0 - a) ** 2 + 4.0 * b) + (1.0 - a))
    return lo, a


def _vi_verdict(regime: str, lines: dict, a: float, b: float, fallback: str,
                **aux) -> RateCertificate:
    """Conclude a VI regime from its table of lines (id -> holds).

    Any line that fails makes the certificate infeasible. So does a
    derived pair (a, b) outside 0 <= b < a < 1 that the lines let through,
    which can only be float disagreement with the leading line ``fallback``,
    and an empty momentum window (``theta-window``). Otherwise theta_default
    is the midpoint (a + b) / 2 and rate = 1 - (a - theta_default). The
    regime's auxiliaries ride along either way.
    """
    violated = [name for name, holds in lines.items() if not holds]
    if not violated and not 0.0 <= b < a < 1.0:
        violated = [fallback]
    if not violated:
        lo, hi = theta_interval(a, b)
        if b > 0.0 and not b < lo:
            # impossible in real arithmetic when 0 < b < a < 1, but kept as
            # a float-level guard so the window is honest about rounding
            violated = ["theta-window"]
    if violated:
        return _infeasible(regime, violated, a=a, b=b, **aux)
    theta = 0.5 * (a + b)
    return RateCertificate(regime=regime, feasible=True, a=a, b=b, theta_lo=lo,
                           theta_hi=hi, theta_default=theta, rate=1.0 - (a - theta),
                           **aux)


def _infeasible(regime: str, violated, a=math.nan, b=math.nan, **aux):
    return RateCertificate(
        regime=regime, feasible=False, a=a, b=b,
        theta_lo=math.nan, theta_hi=math.nan, theta_default=math.nan,
        rate=math.nan, violated=tuple(violated), **aux,
    )


def certify_vi_unrestricted(mu: float, lip: float, params: ViParams) -> RateCertificate:
    """Certify the free-half-point scheme on a whole-space problem.

    Evaluates the seven-line constraint system (identifiers ``epc-line-1``
    through ``epc-line-7``; a zero eta is reported as ``eta-positive``) and,
    when all lines hold, returns the recursion coefficients

        a = alpha mu - 3 gamma - tau L (3 + 2 tau L + 2 alpha/eta + 2 alpha L)
            - 2 e^2 - |...|,
        b = 2 e^2 + gamma + 2 tau L (1 + tau L + alpha/eta + alpha L) + |...|

    with e = gamma - alpha beta / eta and the absolute term
    |-2 alpha beta / eta - (2 alpha / eta) e|.
    """
    _check_constants(mu, lip)
    L = lip
    al, be, ga, eta, ta = params.alpha, params.beta, params.gamma, params.eta, params.tau
    if eta <= 0.0:
        return _infeasible(REGIME_VI_UNRESTRICTED, ["eta-positive"])

    # alpha^2 / eta^2 is r * r: eta * eta underflows to zero for eta < 1e-162,
    # and r * (r * beta) stays 0 at beta = 0 when r * r overflows
    r = al / eta
    e = ga - al * be / eta
    abs2 = abs(-2.0 * al * be / eta - 2.0 * r * e)
    a = al * mu - 3.0 * ga - ta * L * (3.0 + 2.0 * ta * L + 2.0 * r + 2.0 * al * L) \
        - 2.0 * e * e - abs2
    b = 2.0 * e * e + ga + 2.0 * ta * L * (1.0 + ta * L + r + al * L) + abs2
    line1 = al * mu - 4.0 * ga - ta * L * (5.0 + 4.0 * ta * L + 4.0 * r + 4.0 * al * L) \
        - 4.0 * e * e - 4.0 * abs(-al * be / eta - al * ga / eta + r * (r * be))
    line3 = al * al * L * L + r * r + al * ta * L / eta - 2.0 * r \
        + 2.0 * al * mu + al * ta * L * L + abs(-al * be / eta - r * e)
    # line 7 (nonnegativity, eta > 0) is enforced by the parameter type and
    # the early eta check above.
    return _vi_verdict(REGIME_VI_UNRESTRICTED, {
        "epc-line-1": line1 > 0.0,
        "epc-line-2": a < 1.0,
        "epc-line-3": _le(line3, 0.0),
        "epc-line-4": _le(0.0, -2.0 * al + 2.0 * al * al / eta),
        "epc-line-5": _le(0.0, 2.0 * ta * e),
        "epc-line-6": _eq((ga * eta - al * be) * al, 0.0),
    }, a, b, "epc-line-1")


def certify_vi_restricted(mu: float, lip: float, params: ViParams) -> RateCertificate:
    """Certify the projected-half-point scheme on a constrained problem.

    Requires eta = alpha (identifier ``eta-equals-alpha``) and the six-line
    system ``exp2-line-1`` .. ``exp2-line-4`` plus nonnegativity. With

        u = tau L,
        s = alpha mu - 4 gamma - 2 |gamma - beta| - 2 tau L,
        t = 2 gamma + 2 |gamma - beta| + 2 tau L,

    the recursion coefficients are a = (s - u) / (1 - u), b = t / (1 - u).
    """
    _check_constants(mu, lip)
    L = lip
    al, be, ga, eta, ta = params.alpha, params.beta, params.gamma, params.eta, params.tau
    u = ta * L
    s = al * mu - 4.0 * ga - 2.0 * abs(ga - be) - 2.0 * ta * L
    t = 2.0 * ga + 2.0 * abs(ga - be) + 2.0 * ta * L
    a, b = ((s - u) / (1.0 - u), t / (1.0 - u)) if u < 1.0 else (math.nan, math.nan)
    return _vi_verdict(REGIME_VI_RESTRICTED, {
        "eta-equals-alpha": _eq(eta, al),
        "exp2-line-1": u < s < 1.0,
        "exp2-line-2": t < s - u,
        "exp2-line-3": _le(al * L + abs(ga - be) - 1.0, 0.0),
        "exp2-line-4": _le(al * L + 2.0 * al * mu + ta * L + 2.0 * ga - 1.0, 0.0),
    }, a, b, "exp2-line-2", s=s, t=t, u=u)


def certify_opt(mu: float, lip: float, params: OptParams) -> RateCertificate:
    """Certify the nine-coefficient scheme for strongly convex minimization.

    Checks the eight lines of the table below, which tie the coefficients
    t1..t9 to the potential weight c and to theta = 2 t9 c, the contraction
    amount they imply. ``oec-t9-curvature`` reads

        t9^2 c <= (2 t4 (1-t3) - (1+t3)^2 t4^2 + 2 t3 (t6 - t5)) / (2 lip).

    Feasible certificates carry rate = 1 - theta on the potential
    f(x) - f* + c ||v - x*||^2 (one-term, so b = 0 and the default momentum
    weight is zero).
    """
    _check_constants(mu, lip)
    t1, t2, t3, t4, t5, t6, t7, t8, t9 = params.t
    c = params.c
    th = 2.0 * t9 * c
    d = 1.0 - 2.0 * t8 * t9 * c
    # (1 + t3)^2 as a product, which overflows to inf rather than raising
    curv = (2.0 * t4 * (1.0 - t3) - (1.0 + t3) * (1.0 + t3) * t4 * t4
            + 2.0 * t3 * (t6 - t5)) / (2.0 * lip)
    lines = {
        "theta-range": 0.0 < th < 1.0,
        "oec-t1": _eq(t1 * d, 1.0 - th),
        "oec-t2": _eq(t2 * d, 2.0 * t7 * t9 * c),
        "oec-t3-lt-1": t3 < 1.0,
        "oec-t7-bound": _le(t7, 1.0 - th),
        "t7-t8-sum": _eq(t7 + t8, 1.0),
        "oec-t8c": _le(t8 * c, mu * th / 2.0),
        "oec-t9-curvature": _le(t9 * t9 * c, curv),
    }
    violated = [name for name, holds in lines.items() if not holds]
    if violated:
        return _infeasible(REGIME_OPT, violated, a=th, b=0.0)
    return RateCertificate(regime=REGIME_OPT, feasible=True, a=th, b=0.0, theta_lo=0.0,
                           theta_hi=th, theta_default=0.0, rate=1.0 - th)


def certify(regime: str, mu: float, lip: float, params) -> RateCertificate:
    """Dispatch to the certifier for ``regime``."""
    if regime == REGIME_VI_UNRESTRICTED:
        return certify_vi_unrestricted(mu, lip, params)
    if regime == REGIME_VI_RESTRICTED:
        return certify_vi_restricted(mu, lip, params)
    if regime == REGIME_OPT:
        return certify_opt(mu, lip, params)
    raise ValueError(f"unknown regime {regime!r}")


def default_params(regime: str, mu: float, lip: float, delta: float = 0.5):
    """Published default parameters for a regime at constants (mu, lip).

    vi-unrestricted: alpha = eta = 1/(4L), beta = gamma = sigma/64,
    tau = sigma/(128 L). vi-restricted: alpha = eta = 1/(4L),
    beta = gamma = mu/(64 L), tau = mu/(64 L^2). opt: with
    theta = sqrt(sigma), the t-coefficients parameterized by delta in
    (0, 1), which is t3, the inner gradient-step length; t9 = 1/sqrt(mu L),
    c = mu/2, so the certified theta = 2 t9 c is sqrt(sigma) up to rounding.

    The variational-inequality defaults certify feasible for condition
    numbers lip / mu from 1 to 1e12, the range the tests cover; from about
    8e14 on, 1 - rate falls below the float resolution at 1 and the
    theta-window guard refuses them. The optimization default requires
    mu < lip (at mu = lip it degenerates to theta = 1, outside the
    certifiable range, although the stepper itself still works there).
    """
    _check_constants(mu, lip)
    L = lip
    sigma = mu / L
    if regime == REGIME_VI_UNRESTRICTED:
        return ViParams(alpha=1.0 / (4.0 * L), beta=sigma / 64.0,
                        gamma=sigma / 64.0, eta=1.0 / (4.0 * L),
                        tau=sigma / (128.0 * L))
    if regime == REGIME_VI_RESTRICTED:
        return ViParams(alpha=1.0 / (4.0 * L), beta=mu / (64.0 * L),
                        gamma=mu / (64.0 * L), eta=1.0 / (4.0 * L),
                        tau=mu / (64.0 * L * L))
    if regime == REGIME_OPT:
        if not (0.0 < delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        th = math.sqrt(sigma)
        den = (1.0 + delta) ** 2
        return OptParams(
            t=(1.0 / (1.0 + th), th / (1.0 + th), delta,
               (1.0 - delta) / den, 1.0 / den, 3.0 / den,
               1.0 - th, th, 1.0 / math.sqrt(mu * L)),
            c=mu / 2.0)
    raise ValueError(f"unknown regime {regime!r}")


def iteration_bound(cert: RateCertificate, initial_gap: float, tol: float) -> int:
    """Smallest k guaranteed to bring the certified potential below tol.

    The certificate contracts V_k <= rate^k * V_0 and, with the standard
    two-history start, V_0 = (1 + theta_default) * initial_gap where
    initial_gap is the initial squared distance (for the optimization regime
    theta_default is zero and initial_gap is the initial potential itself).
    Returns ceil(ln(scale * gap / tol) / ln(1 / rate)), or 0 when the start
    already satisfies the tolerance. The logarithms are taken apart, so a
    ratio gap / tol beyond the float range still gives its bound, and
    ln(1 / rate) is -log1p(-m) with m = a - theta_default, the 1 - rate that
    rounding to rate would lose when m is below the float resolution at 1.
    The bound is the exact ceiling of the quotient of the two logarithms.
    """
    if not cert.feasible:
        raise ValueError("iteration_bound requires a feasible certificate")
    if not (0.0 < initial_gap < math.inf and tol > 0.0):
        raise ValueError("initial_gap and tol must be positive, initial_gap finite")
    scale = 1.0 + cert.theta_default
    if tol >= scale * initial_gap:
        return 0
    log_ratio = math.log(scale) + math.log(initial_gap) - math.log(tol)
    log_rate = -math.log1p(-(cert.a - cert.theta_default))
    (p, q), (r, s) = log_ratio.as_integer_ratio(), log_rate.as_integer_ratio()
    return -(-p * s // (q * r))

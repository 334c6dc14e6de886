"""Parameter-feasibility certificates and contraction rates.

Each certify_* operation evaluates a printed list of constraint lines on the
given parameters and constants. Feasible parameters earn a certificate with
a two-term distance recursion

    ||z^{k+1} - z*||^2 + theta ||z^k - z*||^2
        <= rate * (||z^k - z*||^2 + theta ||z^{k-1} - z*||^2)

whose coefficients (a, b) and admissible theta window are reported. The
optimization regime certifies the one-term potential
f(x) - f* + c ||v - x*||^2 instead, so its certificate carries b = 0 and a
zero momentum weight.

Comparison policy: strict inequalities are evaluated exactly on the given
floats; equality constraints and non-strict inequalities get a relative
grace of EQ_RTOL so that parameter choices sitting exactly on a boundary in
real arithmetic are not rejected for a one-ulp rounding excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .core import format_float
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
    failed constraint lines otherwise. ``guideline_flags`` carries
    informational (non-normative) screening results. The restricted regime
    additionally reports its intermediates s, t, u.
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
    guideline_flags: tuple = ()
    s: Optional[float] = None
    t: Optional[float] = None
    u: Optional[float] = None

    def to_text(self) -> str:
        """Render as stable ``key = value`` lines."""
        lines = [f"regime = {self.regime}",
                 f"feasible = {'true' if self.feasible else 'false'}"]
        lines += [f"{k} = {format_float(getattr(self, k))}" for k in
                  ("a", "b", "theta_lo", "theta_hi", "theta_default", "rate")]
        lines += [f"violated = {','.join(self.violated)}",
                  f"guideline_flags = {','.join(self.guideline_flags)}"]
        if self.s is not None:
            lines += [f"{k} = {format_float(getattr(self, k))}"
                      for k in ("s", "t", "u")]
        return "\n".join(lines) + "\n"


def _eq(x: float, y: float) -> bool:
    return abs(x - y) <= EQ_RTOL * max(1.0, abs(x), abs(y))


def _le(x: float, y: float) -> bool:
    # non-strict comparison with boundary grace
    return x <= y + EQ_RTOL * max(1.0, abs(x), abs(y))


# The constants the certificates take: inside this range the paper defaults,
# down to mu / (64 lip^2), are normal floats, so no divisor the certifiers
# and iteration_bound form from them rounds to zero.
CONSTANT_RANGE = (1e-100, 1e100)


def _check_constants(mu: float, lip: float) -> None:
    if not (0 < mu <= lip) or not math.isfinite(lip):
        raise ValueError("need 0 < mu <= lip < inf")
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
    intersected with [0, a). For b = 0 the window is [0, a); otherwise the
    lower endpoint is the positive root of theta^2 + (1-a) theta - b, taken
    in the form 2b / (sqrt((1-a)^2 + 4b) + (1-a)), which does not cancel
    when b is small.

    Raises ValueError unless 0 <= b < a < 1.
    """
    if not (0.0 <= b < a < 1.0):
        raise ValueError(f"need 0 <= b < a < 1, got a={a}, b={b}")
    if b == 0.0:
        return 0.0, a
    lo = 2.0 * b / (math.sqrt((1.0 - a) ** 2 + 4.0 * b) + (1.0 - a))
    return lo, a


def _finish_feasible(regime: str, a: float, b: float, flags, s=None, t=None, u=None):
    lo, hi = theta_interval(a, b)
    if b > 0.0 and not b < lo:
        # impossible in real arithmetic when 0 < b < a < 1, but kept as a
        # float-level guard so the window is honest about rounding
        return _infeasible(regime, ["theta-window"], a=a, b=b, flags=flags,
                           s=s, t=t, u=u)
    theta = 0.5 * (a + b)
    rate = 1.0 - (a - theta)
    return RateCertificate(
        regime=regime, feasible=True, a=a, b=b,
        theta_lo=lo, theta_hi=hi, theta_default=theta, rate=rate,
        violated=(), guideline_flags=tuple(flags), s=s, t=t, u=u,
    )


def _infeasible(regime: str, violated, a=math.nan, b=math.nan, flags=(), s=None, t=None, u=None):
    return RateCertificate(
        regime=regime, feasible=False, a=a, b=b,
        theta_lo=math.nan, theta_hi=math.nan, theta_default=math.nan,
        rate=math.nan, violated=tuple(violated), guideline_flags=tuple(flags),
        s=s, t=t, u=u,
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

    r = al / eta
    e = ga - al * be / eta
    abs1 = abs(-al * be / eta - r * e)
    abs2 = abs(-2.0 * al * be / eta - 2.0 * r * e)

    a = al * mu - 3.0 * ga - ta * L * (3.0 + 2.0 * ta * L + 2.0 * r + 2.0 * al * L) \
        - 2.0 * e * e - abs2
    b = 2.0 * e * e + ga + 2.0 * ta * L * (1.0 + ta * L + r + al * L) + abs2

    violated = []
    line1 = al * mu - 4.0 * ga - ta * L * (5.0 + 4.0 * ta * L + 4.0 * r + 4.0 * al * L) \
        - 4.0 * e * e \
        - 4.0 * abs(-al * be / eta - al * ga / eta + al * al * be / (eta * eta))
    if not line1 > 0.0:
        violated.append("epc-line-1")
    if not a < 1.0:
        violated.append("epc-line-2")
    line3 = al * al * L * L + al * al / (eta * eta) + al * ta * L / eta - 2.0 * r \
        + 2.0 * al * mu + al * ta * L * L + abs1
    if not _le(line3, 0.0):
        violated.append("epc-line-3")
    if not _le(0.0, -2.0 * al + 2.0 * al * al / eta):
        violated.append("epc-line-4")
    if not _le(0.0, 2.0 * ta * e):
        violated.append("epc-line-5")
    if not _eq((ga * eta - al * be) * al, 0.0):
        violated.append("epc-line-6")
    # line 7 (nonnegativity, eta > 0) is enforced by the parameter type and
    # the early eta check above.

    flags = []
    if not (0.0 < a < 1.0):
        flags.append("guideline-a-range")
    if not (0.0 <= b < a):
        flags.append("guideline-b-window")

    if violated:
        return _infeasible(REGIME_VI_UNRESTRICTED, violated, a=a, b=b, flags=flags)
    if not (0.0 <= b < a < 1.0):
        # float disagreement between line 1 and the derived pair; treat as
        # the same failure mode
        return _infeasible(REGIME_VI_UNRESTRICTED, ["epc-line-1"], a=a, b=b, flags=flags)
    return _finish_feasible(REGIME_VI_UNRESTRICTED, a, b, flags)


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

    violated = []
    if not _eq(eta, al):
        violated.append("eta-equals-alpha")

    u = ta * L
    s = al * mu - 4.0 * ga - 2.0 * abs(ga - be) - 2.0 * ta * L
    t = 2.0 * ga + 2.0 * abs(ga - be) + 2.0 * ta * L

    if not (u < s < 1.0):
        violated.append("exp2-line-1")
    if not t < s - u:
        violated.append("exp2-line-2")
    if not _le(al * L + abs(ga - be) - 1.0, 0.0):
        violated.append("exp2-line-3")
    if not _le(al * L + 2.0 * al * mu + ta * L + 2.0 * ga - 1.0, 0.0):
        violated.append("exp2-line-4")

    if u < 1.0:
        a = (s - u) / (1.0 - u)
        b = t / (1.0 - u)
    else:
        a = math.nan
        b = math.nan

    flags = []
    if not (0.0 < a < 1.0):
        flags.append("guideline-a-range")
    if not (0.0 <= b < a):
        flags.append("guideline-b-window")

    if violated:
        return _infeasible(REGIME_VI_RESTRICTED, violated, a=a, b=b, flags=flags,
                           s=s, t=t, u=u)
    if not (0.0 <= b < a < 1.0):
        return _infeasible(REGIME_VI_RESTRICTED, ["exp2-line-1"], a=a, b=b,
                           flags=flags, s=s, t=t, u=u)
    return _finish_feasible(REGIME_VI_RESTRICTED, a, b, flags, s=s, t=t, u=u)


def certify_opt(mu: float, lip: float, params: OptParams) -> RateCertificate:
    """Certify the nine-coefficient scheme for strongly convex minimization.

    Checks the eight constraint lines (identifiers below) tying the
    coefficients t1..t9 to theta and the potential weight c:

    - ``oec-theta-def``     theta = 2 t9 c
    - ``theta-range``       0 < theta < 1
    - ``oec-t1``            t1 (1 - 2 t8 t9 c) = 1 - theta
    - ``oec-t2``            t2 (1 - 2 t8 t9 c) = 2 t7 t9 c
    - ``oec-t3-lt-1``       t3 < 1
    - ``oec-t7-bound``      t7 <= 1 - theta
    - ``t7-t8-sum``         t7 + t8 = 1
    - ``oec-t8c``           t8 c <= mu theta / 2
    - ``oec-t9-curvature``  t9^2 c <= (2 t4 (1-t3) - (1+t3)^2 t4^2
                            + 2 t3 (t6 - t5)) / (2 lip)

    Feasible certificates carry rate = 1 - theta on the potential
    f(x) - f* + c ||v - x*||^2 (one-term, so b = 0 and the default momentum
    weight is zero).
    """
    _check_constants(mu, lip)
    t1, t2, t3, t4, t5, t6, t7, t8, t9 = params.t
    th, c = params.theta, params.c

    violated = []
    if not _eq(th, 2.0 * t9 * c):
        violated.append("oec-theta-def")
    if not (0.0 < th < 1.0):
        violated.append("theta-range")
    d = 1.0 - 2.0 * t8 * t9 * c
    if not _eq(t1 * d, 1.0 - th):
        violated.append("oec-t1")
    if not _eq(t2 * d, 2.0 * t7 * t9 * c):
        violated.append("oec-t2")
    if not t3 < 1.0:
        violated.append("oec-t3-lt-1")
    if not _le(t7, 1.0 - th):
        violated.append("oec-t7-bound")
    if not _eq(t7 + t8, 1.0):
        violated.append("t7-t8-sum")
    if not _le(t8 * c, mu * th / 2.0):
        violated.append("oec-t8c")
    curv = (2.0 * t4 * (1.0 - t3) - (1.0 + t3) ** 2 * t4 * t4
            + 2.0 * t3 * (t6 - t5)) / (2.0 * lip)
    if not _le(t9 * t9 * c, curv):
        violated.append("oec-t9-curvature")

    if violated:
        return _infeasible(REGIME_OPT, violated, a=th, b=0.0)
    return RateCertificate(
        regime=REGIME_OPT, feasible=True, a=th, b=0.0,
        theta_lo=0.0, theta_hi=th, theta_default=0.0, rate=1.0 - th,
        violated=(), guideline_flags=(),
    )


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
    beta = gamma = mu/(64 L), tau = mu/(64 L^2). opt: theta = sqrt(sigma),
    the t-coefficients parameterized by delta in (0, 1), which is t3, the
    inner gradient-step length; t9 = 1/sqrt(mu L), c = mu/2.

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
            theta=th, c=mu / 2.0)
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
    """
    if not cert.feasible:
        raise ValueError("iteration_bound requires a feasible certificate")
    if not (initial_gap > 0.0 and tol > 0.0):
        raise ValueError("initial_gap and tol must be positive")
    scale = 1.0 + cert.theta_default
    if tol >= scale * initial_gap:
        return 0
    log_ratio = math.log(scale) + math.log(initial_gap) - math.log(tol)
    return math.ceil(log_ratio / -math.log1p(-(cert.a - cert.theta_default)))

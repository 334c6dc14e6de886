"""The three benchmark workloads and the per-pass bookkeeping they share.

One pass of a workload builds its instances (set-up), runs every solver to
its stopping rule, and checks each result. Every instance seed is derived
from the workload seed: workload seed 0 gives the instances named below, and
workload seed s adds 1000 * s to each of them.

table-n20        linear VIs at n = 20 (3.2 KB matrix, in L1) under the tuned
                 table presets, mirroring ``viaccel compare``; each iteration
                 is mostly run-loop and projection overhead.
certified-n1000  certified runs on a 1000-dimensional bilinear saddle (8 MB
                 matrix, larger than L2) and a 500-dimensional quadratic;
                 each iteration is mostly dense matrix-vector products.
generate-sweep   instance generation, write/read round trips and constant
                 estimation, mirroring ``viaccel generate`` followed by
                 ``viaccel solve --problem``; the fixed-length solves on
                 read-back instances are short next to generation.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from viaccel import certify as C
from viaccel import harness as H
from viaccel import presets as PR
from viaccel import problems as P
from viaccel import solvers as S
from viaccel.core import MonotoneProblem, SmoothObjective, gradient_problem

# Library functions the workloads call, by the span name they get when traced.
LIB_FUNCTIONS = {
    "solvers.run": S.run,
    "problems.gen_linear_vi": P.gen_linear_vi,
    "problems.gen_quadratic": P.gen_quadratic,
    "problems.gen_bilinear_saddle": P.gen_bilinear_saddle,
    "problems.gen_logistic": P.gen_logistic,
    "problems.write_problem": P.write_problem,
    "problems.read_problem": P.read_problem,
    "problems.estimate_constants": P.estimate_constants,
    "harness.check_contraction": H.check_contraction,
    "harness.write_trace_csv": H.write_trace_csv,
    "certify.certify": C.certify,
    "certify.default_params": C.default_params,
}

# Functions that viaccel.problems looks up in its own namespace.
PROBLEMS_LOOKUPS = {
    "power_iteration_norm": "harness.power_iteration_norm",
    "solve_linear_reference": "problems.solve_linear_reference",
}

# Spans of the per-instance callables.
ORACLES = ("problems.operator", "problems.gradient", "problems.value",
           "core.project", "harness.potential")

VI_METHODS = ("vanilla", "heavy-ball", "extra-gradient", "nesterov", "ogda",
              "extra-point")

SEED_STRIDE = 1000


@dataclass
class RunRecord:
    """One solver run as seen by the benchmark."""

    label: str
    method: str
    preset: str
    iterations: int
    terminated_by: str
    iter_ns: np.ndarray
    digest: str
    matrix_bytes: int
    oracle_bytes: int
    cert_rate: Optional[float] = None
    worst_ratio: Optional[float] = None
    max_violation: Optional[float] = None
    iteration_bound: Optional[int] = None
    spans: Optional[tuple] = None  # tracer marks around the run() call
    counts: Optional[dict] = None  # span name -> (calls, ns), when traced


@dataclass
class PassResult:
    total_ns: int = 0
    step_ns: dict = field(default_factory=dict)  # (phase, step) -> ns
    runs: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (label, ok)
    instances: dict = field(default_factory=dict)  # label -> instance
    texts: dict = field(default_factory=dict)  # label -> serialized text
    constants: dict = field(default_factory=dict)  # label -> recorded/estimated
    spans: Optional[tuple] = None  # tracer marks around the pass
    span_sums: dict = field(default_factory=dict)  # name -> (calls, ns)
    probe_us: float = 0.0  # host probe after the pass (see run.host_probe_us)


class Context:
    """Calls into the library for one pass, traced or not, and records."""

    def __init__(self, tracer, tmpdir: str):
        self.tracer = tracer
        self.tmpdir = tmpdir
        self.result = PassResult()
        if tracer is None:
            self.lib = SimpleNamespace(**{k.split(".")[1]: f for k, f
                                          in LIB_FUNCTIONS.items()})
        else:
            self.lib = SimpleNamespace(**{k.split(".")[1]: tracer.wrap(k, f)
                                          for k, f in LIB_FUNCTIONS.items()})
        self._clock = time.perf_counter_ns

    @contextlib.contextmanager
    def step(self, phase: str, key: str):
        """Time one step of a phase (setup, solve, verify or io). A step
        has the same key in every pass, so passes can be compared step by
        step."""
        t0 = self._clock()
        try:
            yield
        finally:
            k = (phase, key)
            self.result.step_ns[k] = self.result.step_ns.get(k, 0) \
                + self._clock() - t0

    def check(self, label: str, ok: bool) -> None:
        self.result.checks.append((label, bool(ok)))

    def keep(self, label: str, obj) -> None:
        self.result.instances[label] = obj

    def instrument(self, target):
        """Wrap the instance's callables in spans when tracing."""
        tr = self.tracer
        if tr is None:
            return target
        if isinstance(target, SmoothObjective):
            slots = ((target, "gradient", "problems.gradient"),
                     (target, "value", "problems.value"))
        else:
            op = "problems.gradient" if target.kind.startswith("gradient-of-") \
                else "problems.operator"
            slots = ((target, "operator", op),
                     (target.feasible_set, "project", "core.project"))
        for obj, attr, span in slots:
            fn = getattr(obj, attr)
            if not hasattr(fn, "__wrapped__"):  # already wrapped via its objective
                setattr(obj, attr, tr.wrap(span, fn))
        return target

    def potential(self, phi):
        return phi if self.tracer is None else \
            self.tracer.wrap("harness.potential", phi)

    def solve(self, label: str, target, method: str, params, preset: str,
              stop: S.StopRule, *, potential=None, cert=None, atol=0.0,
              bound: Optional[int] = None, dist_tol: Optional[float] = None):
        """Run one method, check it, write its trace, and record it."""
        start = start_point(target)
        first = self.tracer.mark() if self.tracer else 0
        key = run_key(label, method, preset)
        with self.step("solve", key):
            try:
                trace = self.lib.run(target, method, params, start, stop,
                                     potential=potential)
                diverged = False
            except H.DivergenceError as err:
                trace, diverged = err.trace, True
        spans = (first, self.tracer.mark()) if self.tracer else None
        name = f"{label} {method}"
        report = None
        with self.step("verify", key):
            reached = trace.terminated_by == "tolerance" \
                if stop.residual_tol > 0.0 else trace.terminated_by == "max-iter"
            self.check(f"{name}: reached its stopping rule",
                       not diverged and reached)
            if cert is not None:
                report = self.lib.check_contraction(trace, cert, rtol=1e-9,
                                                    atol=atol)
                self.check(f"{name}: contraction report ok", report.ok)
            if bound is not None:
                self.check(f"{name}: iterations within iteration_bound",
                           trace.iterations <= bound)
            ref = reference_point(target)
            if dist_tol is not None and ref is not None:
                d = float(np.linalg.norm(trace.final_point - ref))
                self.check(f"{name}: final point within {dist_tol:.3g} of "
                           "the reference", d <= dist_tol)
            self.lib.write_trace_csv(
                trace, os.path.join(self.tmpdir, f"{len(self.result.runs)}.csv"))
        pot = np.array([np.nan if v is None else v
                        for v in trace.column("potential")])
        worst = None
        if pot.size > 1 and not np.all(np.isnan(pot)):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = pot[1:] / pot[:-1]
            ratios = ratios[np.isfinite(ratios)]
            worst = float(ratios.max()) if ratios.size else None
        self.result.runs.append(RunRecord(
            label=label, method=method, preset=preset,
            iterations=trace.iterations, terminated_by=trace.terminated_by,
            iter_ns=np.diff(np.asarray(trace.column("elapsed_ns"),
                                       dtype=np.int64)),
            digest=trace_digest(trace),
            matrix_bytes=matrix_bytes(target),
            oracle_bytes=oracle_bytes(target),
            cert_rate=None if cert is None else float(cert.rate),
            worst_ratio=worst,
            max_violation=None if report is None else report.max_violation,
            iteration_bound=bound, spans=spans))
        return trace


# ---------------------------------------------------------------------------
# helpers shared by the workloads

def run_key(label: str, method: str, preset: str) -> str:
    return f"{label} | {method} | {preset}"


def start_point(target) -> np.ndarray:
    """The CLI's start point: all ones, projected onto the feasible set."""
    if isinstance(target, SmoothObjective):
        return np.ones(target.dimension)
    return target.feasible_set.project(np.ones(target.dimension))


def reference_point(target):
    if isinstance(target, SmoothObjective):
        return target.minimizer
    return target.solution


def vi_regime(problem: MonotoneProblem) -> str:
    if problem.domain_restricted or \
            not problem.feasible_set.unbounded_whole_space:
        return C.REGIME_VI_RESTRICTED
    return C.REGIME_VI_UNRESTRICTED


def vi_dist_tol(problem: MonotoneProblem, residual_tol: float) -> float:
    """Distance to the solution implied by a natural-residual tolerance.

    For a mu-strongly monotone, L-Lipschitz operator the natural residual
    r(z) bounds ||z - z*|| <= (1 + L) / mu * r(z).
    """
    return (1.0 + problem.lip) / problem.mu * residual_tol


def vi_bound(cert, problem: MonotoneProblem, residual_tol: float) -> int:
    """iteration_bound for reaching the residual tolerance from the start.

    The natural residual is at most (2 + L) times the distance to the
    solution, so a squared-distance target of (tol / (2 + L))^2 implies it.
    """
    z0 = start_point(problem)
    gap = float((z0 - problem.solution) @ (z0 - problem.solution))
    return C.iteration_bound(cert, gap, (residual_tol / (2.0 + problem.lip)) ** 2)


def opt_bound(cert, objective: SmoothObjective, params, grad_tol: float) -> int:
    """iteration_bound for reaching a gradient-norm tolerance.

    ||grad f||^2 <= 2 L (f - f*) and f - f* is at most the potential, so a
    potential target of grad_tol^2 / (2 L) implies the tolerance.
    """
    x0 = start_point(objective)
    dv = x0 - objective.minimizer
    v0 = objective.value(x0) - objective.optimal_value + params.c * (dv @ dv)
    return C.iteration_bound(cert, float(v0), grad_tol ** 2 / (2.0 * objective.lip))


def ogda_certificate(problem: MonotoneProblem):
    """The past-gradient method's classical rate 1 / (1 + sigma) at
    alpha = 1 / (2 L), tau = alpha / (1 + sigma), as a certificate that
    check_contraction can compare a trace against."""
    rate = 1.0 / (1.0 + problem.sigma)
    return C.RateCertificate(regime="ogda-classical", feasible=True,
                             a=1.0 - rate, b=0.0, theta_lo=0.0,
                             theta_hi=1.0 - rate, theta_default=0.0, rate=rate)


def matrix_bytes(target) -> int:
    """Bytes of the dense array behind the instance's operator or gradient."""
    if target.kind in ("logistic", "gradient-of-logistic"):
        return 8 * target.meta["data"].size
    return 8 * target.dimension ** 2  # linear-vi, bilinear, quadratic


def oracle_bytes(target) -> int:
    """Computed bytes one operator or gradient call touches.

    Dense matrix entries read plus input, offset and output vectors; the
    logistic gradient reads its data twice (data @ x and data.T @ s). These
    are computed from array sizes, not measured, and ignore cache misses.
    """
    n = target.dimension
    if target.kind in ("logistic", "gradient-of-logistic"):
        rows = target.meta["data"].shape[0]
        return 2 * matrix_bytes(target) + 8 * (3 * n + 2 * rows)
    return matrix_bytes(target) + 8 * 3 * n


def trace_digest(trace) -> str:
    """SHA-256 over every trace column except elapsed_ns, plus the end state."""
    h = hashlib.sha256()
    for name in ("k", "merit_primary", "merit_aux", "dist_sq", "potential"):
        col = np.array([np.nan if v is None else v for v in trace.column(name)],
                       dtype=np.float64)
        h.update(col.tobytes())
    h.update(trace.terminated_by.encode())
    if trace.final_point is not None:
        h.update(np.ascontiguousarray(trace.final_point).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads

def table_n20(ctx: Context, seed: int) -> None:
    lib = ctx.lib
    tol = 1e-6
    off = SEED_STRIDE * seed
    linear = []
    for s in (101 + off, 202 + off):
        for constrained in (False, True):
            label = f"linear-vi n=20 seed={s} " + \
                ("orthant" if constrained else "free")
            with ctx.step("setup", label):
                prob, _ = lib.gen_linear_vi(20, s, 1e-2, constrained=constrained)
                regime = vi_regime(prob)
                params = lib.default_params(regime, prob.mu, prob.lip)
                cert = lib.certify(regime, prob.mu, prob.lip, params)
            ctx.check(f"{label}: paper-default certificate feasible",
                      cert.feasible)
            ctx.keep(label, prob)
            linear.append((label, ctx.instrument(prob), params, cert))
    qlabel = f"quadratic n=20 seed={77 + off}"
    with ctx.step("setup", qlabel):
        quad = lib.gen_quadratic(20, 77 + off, 0.0024)
        gprob = gradient_problem(quad)
    ctx.keep(qlabel, quad)
    ctx.instrument(quad)
    ctx.instrument(gprob)

    for label, prob, params, cert in linear:
        dtol = vi_dist_tol(prob, tol)
        for m in VI_METHODS:
            ctx.solve(label, prob, m, PR.table_preset(m, prob), PR.TABLE,
                      S.StopRule(max_iter=20000, residual_tol=tol),
                      dist_tol=dtol)
        if cert.feasible:
            bound = vi_bound(cert, prob, tol)
            phi = ctx.potential(H.vi_distance_potential(prob, cert.theta_default))
            ctx.solve(label, prob, "extra-point", params, PR.PAPER_DEFAULT,
                      S.StopRule(max_iter=bound, residual_tol=tol),
                      potential=phi, cert=cert, bound=bound, dist_tol=dtol)

    # Fixed-length runs, as in the tuned benchmark table: each must get
    # within 1e-6 of the minimizer inside 6000 iterations.
    fixed = S.StopRule(max_iter=6000)
    for m in ("vanilla", "heavy-ball", "nesterov"):
        ctx.solve(qlabel, gprob, m, PR.table_preset(m, quad), PR.TABLE, fixed,
                  dist_tol=1e-6)
    ctx.solve(qlabel, quad, "opt-extra-point",
              PR.table_preset("opt-extra-point", quad), PR.TABLE, fixed,
              dist_tol=1e-6)


def certified_n1000(ctx: Context, seed: int) -> None:
    lib = ctx.lib
    off = SEED_STRIDE * seed
    vi_tol, grad_tol = 1e-6, 1e-8
    slabel = f"bilinear-saddle 500x500 seed={11 + off}"
    with ctx.step("setup", slabel):
        sad = lib.gen_bilinear_saddle(500, 500, 11 + off)
        regime = vi_regime(sad)
        ep_params = lib.default_params(regime, sad.mu, sad.lip)
        ep_cert = lib.certify(regime, sad.mu, sad.lip, ep_params)
    ctx.check(f"{slabel}: paper-default certificate feasible", ep_cert.feasible)
    qlabel = f"quadratic n=500 seed={12 + off}"
    with ctx.step("setup", qlabel):
        quad = lib.gen_quadratic(500, 12 + off, 1e-2)
        opt_params = lib.default_params(C.REGIME_OPT, quad.mu, quad.lip)
        opt_cert = lib.certify(C.REGIME_OPT, quad.mu, quad.lip, opt_params)
    ctx.check(f"{qlabel}: paper-default certificate feasible",
              opt_cert.feasible)
    ctx.keep(slabel, sad)
    ctx.keep(qlabel, quad)
    ctx.instrument(sad)
    ctx.instrument(quad)

    L, dtol = sad.lip, vi_dist_tol(sad, vi_tol)
    bound = vi_bound(ep_cert, sad, vi_tol)
    ctx.solve(slabel, sad, "extra-point", ep_params, PR.PAPER_DEFAULT,
              S.StopRule(max_iter=bound, residual_tol=vi_tol),
              potential=ctx.potential(
                  H.vi_distance_potential(sad, ep_cert.theta_default)),
              cert=ep_cert, bound=bound, dist_tol=dtol)
    ctx.solve(slabel, sad, "extra-gradient",
              S.ViParams(alpha=1.0 / (4.0 * L), eta=1.0 / (4.0 * L)), "1/(4L)",
              S.StopRule(max_iter=20000, residual_tol=vi_tol), dist_tol=dtol)
    alpha = 1.0 / (2.0 * L)
    phi = H.ogda_potential(sad)
    # The potential contracts up to float noise that is absolute in its
    # starting value, so the floor is anchored there.
    og_atol = 1e-9 * phi(S.vi_state(sad, start_point(sad)))
    ctx.solve(slabel, sad, "ogda",
              S.ViParams(alpha=alpha, tau=alpha / (1.0 + sad.sigma)),
              "1/(2L)", S.StopRule(max_iter=20000, residual_tol=vi_tol),
              potential=ctx.potential(phi), cert=ogda_certificate(sad),
              atol=og_atol, dist_tol=dtol)
    bound = opt_bound(opt_cert, quad, opt_params, grad_tol)
    ctx.solve(qlabel, quad, "opt-extra-point", opt_params, PR.PAPER_DEFAULT,
              S.StopRule(max_iter=bound, residual_tol=grad_tol),
              potential=ctx.potential(H.opt_potential(quad, opt_params.c)),
              cert=opt_cert, atol=1e-12 * (1.0 + abs(quad.optimal_value)),
              bound=bound, dist_tol=grad_tol / quad.mu)


def _probe_equal(a, b, seed: int) -> bool:
    """Bit-identity of two instances' operator or gradient at probe points."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        x = rng.standard_normal(a.dimension)
        if isinstance(a, SmoothObjective):
            if not np.array_equal(a.gradient(x), b.gradient(x)):
                return False
        else:
            x = a.feasible_set.project(x)
            if not np.array_equal(a.operator(x), b.operator(x)):
                return False
    return True


def generate_sweep(ctx: Context, seed: int) -> None:
    lib = ctx.lib
    off = SEED_STRIDE * seed
    made = []
    for n in (20, 100, 200):
        for constrained in (False, True):
            label = f"linear-vi n={n} seed={101 + off} " + \
                ("orthant" if constrained else "free")
            with ctx.step("setup", label):
                prob, _ = lib.gen_linear_vi(n, 101 + off, 1e-2,
                                            constrained=constrained)
            made.append((label, prob))
    label = f"quadratic n=500 seed={77 + off}"
    with ctx.step("setup", label):
        made.append((label, lib.gen_quadratic(500, 77 + off, 1e-2)))
    label = f"bilinear-saddle 250x250 seed={11 + off}"
    with ctx.step("setup", label):
        made.append((label, lib.gen_bilinear_saddle(250, 250, 11 + off)))
    label = f"logistic n=200 samples=2000 seed={4 + off}"
    with ctx.step("setup", label):
        made.append((label, lib.gen_logistic(200, 2000, 0.005, 4 + off)))

    loaded = []
    for i, (label, obj) in enumerate(made):
        path = os.path.join(ctx.tmpdir, f"{i}.problem")
        with ctx.step("io", label):
            lib.write_problem(path, obj)
            back = lib.read_problem(path)
        with open(path) as fh:
            ctx.result.texts[label] = fh.read()
        with ctx.step("verify", label):
            ctx.check(f"{label}: write/read round trip is bit-identical",
                      _probe_equal(obj, back, i))
        ctx.keep(label, obj)
        target = ctx.instrument(back)
        if isinstance(back, SmoothObjective):
            target = ctx.instrument(gradient_problem(back))
        with ctx.step("io", label):
            mu_hat, lip_hat = lib.estimate_constants(target)
        # Sampled monotonicity ratios never fall below mu. The recorded lip
        # and lip_hat both come from power iteration, or lip is exact, and
        # power iteration can stop short of the norm when the top singular
        # values are close, so the two only have to agree to 1%; the record
        # keeps both.
        ctx.check(f"{label}: estimated constants agree with the recorded",
                  mu_hat >= back.mu * (1.0 - 1e-9)
                  and abs(lip_hat / back.lip - 1.0) <= 1e-2)
        ctx.result.constants[label] = {"mu": back.mu, "mu_hat": mu_hat,
                                       "lip": back.lip, "lip_hat": lip_hat}
        loaded.append((label, back))

    # ``viaccel solve --problem --preset paper-default --tol 0 --max-iter K``
    # on the read-back n=20 linear instances (K = 600, short of the float
    # floor of the distance potential) and the quadratic (K = 300). Fixed
    # lengths keep the solves a small share of the pass that does not change
    # with the seed, and keep the latency samples mostly n=20 iterations: a
    # mix of sizes would put the median at a boundary between size classes.
    for label, back in loaded:
        if back.kind == "quadratic":
            with ctx.step("setup", label):
                params = lib.default_params(C.REGIME_OPT, back.mu, back.lip)
                cert = lib.certify(C.REGIME_OPT, back.mu, back.lip, params)
            ctx.check(f"{label}: paper-default certificate feasible",
                      cert.feasible)
            ctx.solve(label, back, "opt-extra-point", params, PR.PAPER_DEFAULT,
                      S.StopRule(max_iter=300),
                      potential=ctx.potential(H.opt_potential(back, params.c)),
                      cert=cert, atol=1e-12 * (1.0 + abs(back.optimal_value)))
        elif back.kind == "linear-vi" and back.dimension == 20:
            with ctx.step("setup", label):
                regime = vi_regime(back)
                params = lib.default_params(regime, back.mu, back.lip)
                cert = lib.certify(regime, back.mu, back.lip, params)
            ctx.check(f"{label}: paper-default certificate feasible",
                      cert.feasible)
            ctx.solve(label, back, "extra-point", params, PR.PAPER_DEFAULT,
                      S.StopRule(max_iter=600),
                      potential=ctx.potential(
                          H.vi_distance_potential(back, cert.theta_default)),
                      cert=cert)


WORKLOADS = {
    "table-n20": table_n20,
    "certified-n1000": certified_n1000,
    "generate-sweep": generate_sweep,
}

#!/usr/bin/env python3
"""viaccel benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table-n20 --seed 0 --seconds 50 --trace 0

Workloads are defined in workloads.py. A run makes one warm-up pass of the
workload (set-up, solves, checks), then repeats timed passes until
``--seconds`` have passed, at least three times, and reports the median of
each figure over the timed passes (see end_to_end). With ``--trace 0``
nothing is wrapped and the end-to-end metrics are reported. With
``--trace 1`` untraced passes alternate with passes that wrap every layer
call in a span (see tracing.py); the per-layer metrics come from the traced
passes and the tracing overhead is traced minus untraced median solve time.

Every line before the last prints one metric or finding for people. The last
line is one JSON object with the keys correct, attempted, failed and metrics,
where metrics holds the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1)
metrics named in BENCHMARK.json. A fuller record (environment, every metric
including workload-specific ones, the per-run oracle table and the failed
checks) is written to .perfbench/<workload>-seed<seed>-trace<t>.json, and the
spans of a traced run to .perfbench/spans-<workload>.npz.

``--record-digests`` (seed 0 only) stores the instance and trace digests of
the run in digests.json, tagged with the recording host's numpy/BLAS/CPU
fingerprint; later seed-0 runs on a matching fingerprint must reproduce them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

# One BLAS thread: at most nproc, the same on every machine, and steadier on
# a shared host than two threads synchronising on a 0.5 ms matrix-vector
# product.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Timed passes per run at least, after one untimed warm-up pass: untraced
# runs report medians over three or more; traced runs alternate untraced
# and traced passes and need two traced passes to compare exact counts.
MIN_PASSES = 3
MIN_TRACED = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.record_digests and (args.seed != 0 or args.trace):
        ap.error("--record-digests needs --seed 0 --trace 0")
    return args


# ---------------------------------------------------------------------------
# environment

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without a dict-form build config
        blas = {}
    model = next((ln.split(":", 1)[1].strip()
                  for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        level = _read(f"{base}/index{i}/level")
        if not level:
            break
        kind = _read(f"{base}/index{i}/type")
        caches[f"L{level} {kind}"] = _read(f"{base}/index{i}/size")
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    features = sorted(k for k, v in
                      getattr(umath, "__cpu_features__", {}).items() if v)
    lines = {p.name: sum(1 for _ in p.open())
             for p in sorted((ROOT / "src" / "viaccel").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": model,
        "cpu_caches": caches,
        "cpu_features": features,
        "src_viaccel_lines": dict(lines, total=sum(lines.values())),
    }


def fingerprint(env: dict) -> dict:
    """What the bits of a run depend on: numpy, BLAS and the CPU."""
    return {
        "numpy": env["numpy"], "blas": env["blas"],
        "blas_threads": env["blas_threads"], "machine": env["machine"],
        "cpu_model": env["cpu_model"],
        "cpu_features": hashlib.sha256(
            " ".join(env["cpu_features"]).encode()).hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# passes

def host_probe_us(np) -> float:
    """Median time of a fixed small numpy loop that does not touch viaccel.

    Recorded with each pass and printed, but not a metric: on a shared host
    it shows how fast the CPU ran around that pass.
    """
    a = np.eye(20) * 0.5 + 0.01
    times = []
    for _ in range(11):
        x = np.ones(20)
        t0 = time.perf_counter_ns()
        for _ in range(200):
            x = a @ x
            x /= np.linalg.norm(x)
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times)) * 1e-3


def run_pass(W, workload, seed: int, tracer, tmpdir: str):
    ctx = W.Context(tracer, tmpdir)
    patch = tracer.patched(W.P, W.PROBLEMS_LOOKUPS) if tracer \
        else contextlib.nullcontext()
    first = tracer.mark() if tracer else 0
    with patch:
        t0 = time.perf_counter_ns()
        workload(ctx, seed)
        ctx.result.total_ns = time.perf_counter_ns() - t0
    if tracer:
        ctx.result.spans = (first, tracer.mark())
    ctx.result.probe_us = host_probe_us(W.np)
    return ctx.result


def attach_span_sums(np, tracer, cols, passes) -> None:
    """Per-name (calls, ns) of each traced pass and of each run in it."""
    names = tracer.names

    def sums(marks):
        lo, hi = np.searchsorted(cols["event"], marks)
        ids = cols["name_id"][lo:hi]
        calls = np.bincount(ids, minlength=len(names))
        ns = np.bincount(ids, weights=cols["dur_ns"][lo:hi], minlength=len(names))
        return {n: (int(calls[i]), int(ns[i])) for i, n in enumerate(names)}

    for p in passes:
        p.span_sums = sums(p.spans)
        for r in p.runs:
            r.counts = sums(r.spans)


def run_signature(res) -> list:
    return [(r.label, r.method, r.preset, r.iterations, r.digest)
            for r in res.runs]


def count_signature(res, oracles) -> list:
    return [[r.counts.get(n, (0, 0))[0] for n in oracles] for r in res.runs] + \
        [res.span_sums.get("harness.power_iteration_norm", (0, 0))[0]]


def geomean(np, values) -> float:
    return float(np.exp(np.mean(np.log(values))))


UNITS = {"setup_s": "s", "solve_s": "s", "total_s": "s", "iters_per_s": "1/s",
         "iter_us_p50": "us", "iter_us_p99": "us"}


def pass_figures(np, W, p) -> dict:
    """End-to-end figures of one pass.

    The rate and median latency weigh every solver run of the pass alike
    (geometric means over runs), so a seed whose instances need more
    iterations of one method than another's does not shift the mix of
    per-iteration costs they average.
    """
    phase = lambda name: sum(v for (q, _), v in p.step_ns.items() if q == name) * 1e-9
    solve_ns = np.array([p.step_ns[("solve", W.run_key(r.label, r.method, r.preset))]
                         for r in p.runs])
    iters = np.array([r.iterations for r in p.runs])
    pooled_us = np.concatenate([r.iter_ns for r in p.runs]) * 1e-3
    return {
        "setup_s": phase("setup"),
        "solve_s": phase("solve"),
        "total_s": p.total_ns * 1e-9,
        "iters_per_s": geomean(np, iters / (solve_ns * 1e-9)),
        "iter_us_p50": geomean(np, [np.median(r.iter_ns) * 1e-3 for r in p.runs]),
        "iter_us_p99": float(np.percentile(pooled_us, 99)),
        "host_probe_us": p.probe_us,
    }


def end_to_end(np, W, passes) -> tuple:
    """End-to-end metrics: each the median of its per-pass figures.

    On a shared host the CPU can run up to 2x slower for seconds at a
    time; the median over passes spread across the whole run is the figure
    such phases disturb least.
    """
    figs = [pass_figures(np, W, p) for p in passes]
    m = {k: (float(np.median([f[k] for f in figs])), u) for k, u in UNITS.items()}
    host_probe = float(np.median([f["host_probe_us"] for f in figs]))
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    notes = {"passes": figs,
             "iteration_latency_samples": int(sum(r.iter_ns.size for r in passes[0].runs)),
             "solver_runs": len(passes[0].runs), "host_probe_us": host_probe}
    return m, notes


# Workload-specific layer timings: reported only where the workload calls them.
SPECIFIC_MS = ("problems.gen_linear_vi", "problems.solve_linear_reference",
               "problems.gen_bilinear_saddle", "problems.gen_logistic",
               "problems.write_problem", "problems.read_problem",
               "problems.estimate_constants")


def per_layer(np, W, tracer, cols, traced, untraced) -> tuple:
    """Per-layer metrics over the traced passes, and why any do not apply."""
    n = len(traced)
    runs = [r for p in traced for r in p.runs]
    iters = sum(r.iterations for r in runs)

    def per_pass(name, i):  # i = 0 calls, 1 ns
        return sum(p.span_sums.get(name, (0, 0))[i] for p in traced) / n

    def oracle(name):
        used = [r for r in runs if r.counts.get(name, (0, 0))[0] > 0]
        calls = sum(r.counts[name][0] for r in used)
        ns = sum(r.counts[name][1] for r in used)
        denom = sum(r.iterations for r in used)
        return used, calls, ns, denom

    def ratio(a, b):
        return a / b if b else 0.0

    m, na = {}, {}
    run_self = int(cols["self_ns"][cols["name_id"] == tracer.names.index("solvers.run")].sum())
    m["solvers.run.self_ns_per_iter"] = (ratio(run_self, iters), "ns/iter")
    m["solvers.iterations"] = (iters / n, "count")
    m["solvers.oracle_calls"] = (sum(r.counts.get(o, (0, 0))[0] for r in runs
                                     for o in ("problems.operator", "problems.gradient")) / n,
                                 "count")
    used, calls, ns, denom = oracle("core.project")
    m["core.project.calls_per_iter"] = (ratio(calls, denom), "calls/iter")
    m["core.project.ns_per_call"] = (ratio(ns, calls), "ns")
    used, calls, ns, denom = oracle("problems.operator")
    nbytes = sum(r.counts["problems.operator"][0] * r.oracle_bytes for r in used)
    m["problems.operator.calls_per_iter"] = (ratio(calls, denom), "calls/iter")
    m["problems.operator.ns_per_call"] = (ratio(ns, calls), "ns")
    m["problems.operator.computed_bytes_per_call"] = (ratio(nbytes, calls), "B")
    m["problems.operator.computed_gb_per_s"] = (ratio(nbytes, ns), "GB/s")
    for name in ("problems.gradient", "problems.value"):
        used, calls, ns, denom = oracle(name)
        m[f"{name}.calls_per_iter"] = (ratio(calls, denom), "calls/iter")
    gens = [k for k in tracer.names if k.startswith("problems.gen_")]
    m["problems.generators.ms"] = (sum(per_pass(g, 1) for g in gens) * 1e-6, "ms")
    m["problems.gen_quadratic.ms"] = (per_pass("problems.gen_quadratic", 1) * 1e-6, "ms")
    for name in SPECIFIC_MS:
        if per_pass(name, 0):
            m[f"{name}.ms"] = (per_pass(name, 1) * 1e-6, "ms")
        else:
            na[f"{name}.ms"] = "this workload does not call it"
    m["harness.power_iteration_norm.calls"] = (per_pass("harness.power_iteration_norm", 0), "count")
    m["harness.power_iteration_norm.ms"] = (per_pass("harness.power_iteration_norm", 1) * 1e-6, "ms")
    used, calls, ns, denom = oracle("harness.potential")
    m["harness.potential.ns_per_call"] = (ratio(ns, calls), "ns")
    m["harness.check_contraction.ms"] = (per_pass("harness.check_contraction", 1) * 1e-6, "ms")
    m["harness.write_trace_csv.ms"] = (per_pass("harness.write_trace_csv", 1) * 1e-6, "ms")
    for name in ("certify.certify", "certify.default_params"):
        m[f"{name}.us_per_call"] = (ratio(per_pass(name, 1), per_pass(name, 0)) * 1e-3, "us")
    solve_s = lambda ps: end_to_end(np, W, ps)[0]["solve_s"][0]
    m["tracing.overhead_s"] = (solve_s(traced) - solve_s(untraced), "s")
    return m, na


def oracle_table(res) -> list:
    rows = []
    for r in res.runs:
        c = r.counts or {}
        rows.append({
            "instance": r.label, "method": r.method, "preset": r.preset,
            "iterations": r.iterations, "terminated_by": r.terminated_by,
            "operator_calls": c.get("problems.operator", (None,))[0],
            "gradient_calls": c.get("problems.gradient", (None,))[0],
            "value_calls": c.get("problems.value", (None,))[0],
            "projections": c.get("core.project", (None,))[0],
            "certified_rate": r.cert_rate,
            "worst_step_ratio": r.worst_ratio,
            "max_violation": r.max_violation,
            "iteration_bound": r.iteration_bound,
        })
    return rows


# ---------------------------------------------------------------------------
# digests

def instance_digests(first) -> dict:
    from viaccel import problems as P
    out = {}
    for label, obj in first.instances.items():
        text = first.texts.get(label)
        if text is None:
            text = P.serialize_problem(obj)
        out[label] = hashlib.sha256(text.encode()).hexdigest()
    return out


def trace_digests(first) -> dict:
    return {f"{r.label} | {r.method} | {r.preset}": r.digest for r in first.runs}


def check_digests(workload: str, seed: int, fp: dict, first) -> tuple:
    """(checks, status) against the stored seed-0 digests."""
    if seed != 0:
        return [], "unverified: digests are stored for seed 0 only"
    try:
        stored = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return [], "unverified: no stored digests"
    entry = stored.get("workloads", {}).get(workload)
    if entry is None:
        return [], "unverified: no stored digests for this workload"
    if stored.get("fingerprint") != fp:
        return [], "unverified: stored on another numpy/BLAS/CPU fingerprint"
    checks = []
    for kind, have in (("instance", instance_digests(first)),
                       ("trace", trace_digests(first))):
        want = entry[f"{kind}s"]
        for key in sorted(set(want) | set(have)):
            checks.append((f"{kind} digest {key}", want.get(key) == have.get(key)))
    return checks, "verified"


def record_digests(workload: str, fp: dict, first) -> None:
    try:
        stored = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        stored = {}
    if stored.get("fingerprint") != fp:
        stored = {"fingerprint": fp, "workloads": {}}
    stored["workloads"][workload] = {"instances": instance_digests(first),
                                     "traces": trace_digests(first)}
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "viaccel" / "__init__.py").is_file():
        print(f"error: no viaccel sources under {src}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads as W
    from tracing import Tracer

    workload = W.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(np)
    fp = fingerprint(env)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    untraced, traced = [], []

    def one_pass(tr):
        res = run_pass(W, workload, args.seed, tr, tmp)
        res.instances.clear()  # only the warm-up pass's instances are digested
        res.texts.clear()
        return res

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        deadline = time.perf_counter() + args.seconds
        first = run_pass(W, workload, args.seed, None, tmp)  # warm-up, untimed
        if tracer is None:
            while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
                untraced.append(one_pass(None))
        else:  # alternate, so both sides see the same host conditions
            while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
                untraced.append(one_pass(None))
                traced.append(one_pass(tracer))
    passes = [first] + untraced + traced
    if tracer:
        cols = tracer.table()
        attach_span_sums(np, tracer, cols, traced)

    checks = [c for p in passes for c in p.checks]
    # Steadiness: every repeat reproduces the first pass's iteration counts
    # and trace bits, traced or not; traced repeats reproduce the exact
    # oracle and power-iteration counts.
    sig = run_signature(first)
    for i, p in enumerate(passes[1:], start=1):
        checks.append((f"pass {i}: iterations and trace bits equal pass 0",
                       run_signature(p) == sig))
    for i, p in enumerate(traced[1:], start=1):
        checks.append((f"traced pass {i}: exact counts equal traced pass 0",
                       count_signature(p, W.ORACLES)
                       == count_signature(traced[0], W.ORACLES)))
    if args.record_digests:
        record_digests(args.workload, fp, first)
        digest_status = "recorded"
    else:
        digest_checks, digest_status = check_digests(args.workload, args.seed,
                                                     fp, first)
        checks += digest_checks

    e2e, e2e_notes = end_to_end(np, W, untraced)
    failed = [label for label, ok in checks if not ok]
    e2e["fail_ratio"] = (len(failed) / len(checks), "ratio")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "fingerprint": fp,
        "working_set_bytes": {r.label: r.matrix_bytes for r in first.runs},
        "estimated_constants": first.constants,
        "digests": digest_status,
        "attempted": len(checks), "failed_checks": failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_notes": e2e_notes,
    }
    if args.trace:
        layer, not_applicable = per_layer(np, W, tracer, cols, traced, untraced)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["per_layer_not_applicable"] = not_applicable
        record["traced_passes"] = len(traced)
        record["oracle_table"] = oracle_table(traced[0])
        tracer.save(OUT / f"spans-{args.workload}.npz", cols)
        shown, wanted = layer, [m["name"] for m in spec["per_layer"]]
    else:
        shown, wanted = e2e, [m["name"] for m in spec["end_to_end"]]
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}  "
          f"passes = 1 warm-up + {len(untraced)} untraced + {len(traced)} traced")
    print(f"environment = numpy {env['numpy']}, {env['blas']} x{BLAS_THREADS}, "
          f"nproc {env['nproc']}, {env['cpu_model']}, {env['cpu_caches']}")
    print(f"working_set = {max(record['working_set_bytes'].values())} bytes "
          "largest matrix")
    for k, (v, u) in e2e.items():
        print(f"{k} = {v:.6g} {u}")
    print(f"iteration_latency_samples = {e2e_notes['iteration_latency_samples']} "
          f"over {e2e_notes['solver_runs']} solver runs")
    print(f"host_probe = {e2e_notes['host_probe_us']:.6g} us (median over passes "
          "of a fixed numpy loop; not a metric)")
    if args.trace:
        for k, (v, u) in layer.items():
            print(f"{k} = {v:.6g} {u}")
        for k, why in not_applicable.items():
            print(f"{k} = n/a ({why})")
    print(f"digests = {digest_status}")
    for label in failed:
        print(f"FAILED {label}")
    print(f"record = {out_path.relative_to(ROOT)}")

    missing = [k for k in wanted if k not in shown]
    if missing:
        print(f"error: BENCHMARK.json names metrics this run does not "
              f"produce: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not failed, "attempted": len(checks), "failed": len(failed),
        "metrics": {k: {"value": shown[k][0], "unit": shown[k][1]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: generate, certify, solve, compare.

Exit codes are stable: 0 success, 2 usage or validation error, 3 infeasible
certificate, 4 certificate violation or divergence under --strict.

Experiment configs are flat ``key = value`` text with dotted sections
(problem.*, method.<i>.*, stop.*, output.*); parse -> serialize -> parse is
the identity on the parsed form. All randomness flows from explicit seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import certify as C
from . import harness as H
from . import presets as PR
from . import problems as P
from . import solvers as S
from .core import (MonotoneProblem, SmoothObjective, format_float,
                   gradient_problem)

VI_PARAM_KEYS = ("alpha", "beta", "gamma", "eta", "tau")
OPT_PARAM_KEYS = tuple(f"t{i}" for i in range(1, 10)) + ("theta", "c", "delta")
# the generator keys each problem kind takes beside problem.kind
KIND_KEYS = {
    "linear-vi": ("n", "seed", "target_sigma", "constrained"),
    "quadratic": ("n", "seed", "target_sigma"),
    "logistic": ("n", "num_samples", "lam", "seed"),
    "bilinear-saddle": ("nx", "ny", "seed", "mu_x", "mu_y"),
}
OPTIONAL_KIND_KEYS = ("constrained", "mu_x", "mu_y")
# the keys each flat config section takes; method.<i>.* is parsed apart
SECTION_KEYS = {
    "problem": ("file", "kind", *dict.fromkeys(
        key for keys in KIND_KEYS.values() for key in keys)),
    "stop": ("max_iter", "tol"),
    "output": ("directory", "formats", "thinning"),
}


# ---------------------------------------------------------------------------
# experiment config

@dataclass
class MethodSpec:
    name: str
    preset: Optional[str] = None
    params: dict = field(default_factory=dict)
    max_iter: Optional[int] = None
    tol: Optional[float] = None


@dataclass
class ExperimentConfig:
    problem: dict
    methods: list
    stop: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def parse_config(text: str) -> ExperimentConfig:
    sections = {name: {} for name in SECTION_KEYS}
    methods = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " = " not in line:
            raise ValueError(f"unparseable config line {line!r}")
        key, value = (part.strip() for part in line.split(" = ", 1))
        value = P._parse_scalar(value)
        parts = key.split(".")
        if len(parts) == 2 and parts[1] in SECTION_KEYS.get(parts[0], ()):
            sections[parts[0]][parts[1]] = value
        elif parts[0] == "method" and len(parts) == 3:
            idx = int(parts[1])
            spec = methods.setdefault(idx, MethodSpec(name=""))
            fld = parts[2]
            if fld == "name":
                spec.name = str(value)
            elif fld == "preset":
                spec.preset = str(value)
            elif fld == "max_iter":
                spec.max_iter = int(value)
            elif fld == "tol":
                spec.tol = float(value)
            elif fld in VI_PARAM_KEYS or fld in OPT_PARAM_KEYS:
                spec.params[fld] = float(value)
            else:
                raise ValueError(f"unknown method field {fld!r}")
        else:
            raise ValueError(f"unknown config key {key!r}")
    specs = [methods[i] for i in sorted(methods)]
    if not specs:
        raise ValueError("config needs at least one method.<i>.name entry")
    for spec in specs:
        if not spec.name:
            raise ValueError("every method entry needs a name")
    return ExperimentConfig(methods=specs, **sections)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []

    def emit(key, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = format_float(value)
        lines.append(f"{key} = {value}")

    for k in sorted(cfg.problem):
        emit(f"problem.{k}", cfg.problem[k])
    for i, spec in enumerate(cfg.methods, start=1):
        emit(f"method.{i}.name", spec.name)
        if spec.preset is not None:
            emit(f"method.{i}.preset", spec.preset)
        for k in sorted(spec.params):
            emit(f"method.{i}.{k}", spec.params[k])
        if spec.max_iter is not None:
            emit(f"method.{i}.max_iter", spec.max_iter)
        if spec.tol is not None:
            emit(f"method.{i}.tol", spec.tol)
    for k in sorted(cfg.stop):
        emit(f"stop.{k}", cfg.stop[k])
    for k in sorted(cfg.output):
        emit(f"output.{k}", cfg.output[k])
    return "\n".join(lines) + "\n"


def build_problem(spec: dict) -> Union[MonotoneProblem, SmoothObjective]:
    """Instantiate the problem section of a config: problem.file alone, or a
    kind with the keys its generator takes (all but the optional ones)."""
    kind = spec.get("kind")
    if "file" in spec:
        source, takes = "problem.file", ("file",)
    elif kind in KIND_KEYS:
        source, takes = f"problem kind {kind}", ("kind",) + KIND_KEYS[kind]
        for key in takes:
            if key not in spec and key not in OPTIONAL_KIND_KEYS:
                raise ValueError(f"config needs problem.{key}")
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    extra = sorted(set(spec) - set(takes))
    if extra:
        raise ValueError(f"{source} does not take "
                         f"{', '.join('problem.' + k for k in extra)}")

    if "file" in spec:
        return P.read_problem(str(spec["file"]))
    if kind == "linear-vi":
        problem, _ = P.gen_linear_vi(int(spec["n"]), int(spec["seed"]),
                                     float(spec["target_sigma"]),
                                     constrained=bool(spec.get("constrained",
                                                               False)))
        return problem
    if kind == "quadratic":
        return P.gen_quadratic(int(spec["n"]), int(spec["seed"]),
                               float(spec["target_sigma"]))
    if kind == "logistic":
        return P.gen_logistic(int(spec["n"]), int(spec["num_samples"]),
                              float(spec["lam"]), int(spec["seed"]))
    return P.gen_bilinear_saddle(int(spec["nx"]), int(spec["ny"]),
                                 int(spec["seed"]),
                                 mu_x=float(spec.get("mu_x", 1.0)),
                                 mu_y=float(spec.get("mu_y", 1.0)))


# ---------------------------------------------------------------------------
# method assembly

def _vi_regime(problem: MonotoneProblem) -> str:
    if problem.domain_restricted or not problem.feasible_set.unbounded_whole_space:
        return C.REGIME_VI_RESTRICTED
    return C.REGIME_VI_UNRESTRICTED


def assemble_params(regime: str, preset: Optional[str], params: dict,
                    mu: float, lip: float):
    """The one path from a preset token or coefficient entries to step
    parameters; returns (params, from_defaults).

    No step coefficients (opt may still pass delta) means the paper
    defaults. A preset takes no coefficients, except delta with
    paper-default in the opt regime. Explicit VI coefficients need alpha;
    explicit opt coefficients need t1..t9, theta and c, with delta
    defaulting to t3. The table preset resolves to None here: its entries
    depend on the method and the instance (presets.table_preset).
    """
    opt = regime == C.REGIME_OPT
    unknown = set(params) - set(OPT_PARAM_KEYS if opt else VI_PARAM_KEYS)
    if unknown:
        raise ValueError(f"the {regime} regime does not take "
                         f"{', '.join(sorted(unknown))}")
    if preset is not None and preset not in PR.PRESETS:
        raise ValueError(f"unknown preset {preset!r}; "
                         f"expected one of {PR.PRESETS}")
    steps = set(params) - {"delta"}
    taken = steps if preset == PR.PAPER_DEFAULT else params
    if preset is not None and taken:
        raise ValueError(f"preset {preset} takes no coefficients, got "
                         f"{', '.join(sorted(params))}")
    if preset == PR.TABLE:
        return None, False
    if not steps:
        return C.default_params(regime, mu, lip,
                                delta=params.get("delta", 0.5)), True
    if not opt:
        if "alpha" not in params:
            raise ValueError("explicit VI coefficients need --alpha "
                             "(or a preset)")
        return S.ViParams(**params), False
    missing = [k for k in OPT_PARAM_KEYS[:11] if k not in params]
    if missing:
        raise ValueError(f"explicit opt coefficients need t1..t9, theta, c "
                         f"(missing {', '.join(missing)}) or a preset")
    return S.OptParams(t=tuple(params[f"t{i}"] for i in range(1, 10)),
                       theta=params["theta"], c=params["c"],
                       delta=params.get("delta", params["t3"])), False


def build_method(spec: MethodSpec, target):
    """Resolve (run_target, params, certificate-regime) for one method.

    Operator methods on an objective run against its gradient problem.
    The returned regime is non-None only for extra-point and
    opt-extra-point runs at the paper defaults, which carry a provable
    certificate.
    """
    if spec.name not in S.METHODS:
        raise ValueError(f"unknown method {spec.name!r}; "
                         f"expected one of {S.METHODS}")
    if spec.name in S.OPT_METHODS:
        if not isinstance(target, SmoothObjective):
            raise ValueError(f"{spec.name} needs a smooth objective")
        run_target, regime = target, C.REGIME_OPT
    else:
        run_target = gradient_problem(target) \
            if isinstance(target, SmoothObjective) else target
        regime = _vi_regime(run_target)
    params, from_defaults = assemble_params(regime, spec.preset, spec.params,
                                            run_target.mu, run_target.lip)
    if params is None:
        params = PR.table_preset(spec.name, target)
    certified = from_defaults and spec.name in ("extra-point",) + S.OPT_METHODS
    return run_target, params, regime if certified else None


def _certified_potential(run_target, params, regime):
    """Certificate plus matching potential when provable, else (None, None)."""
    if regime is None:
        return None, None
    cert = C.certify(regime, run_target.mu, run_target.lip, params)
    if not cert.feasible:
        return cert, None
    if regime == C.REGIME_OPT:
        if run_target.minimizer is None or run_target.optimal_value is None:
            return cert, None
        return cert, H.opt_potential(run_target, params.c)
    if run_target.solution is None:
        return cert, None
    return cert, H.vi_distance_potential(run_target, cert.theta_default)


# ---------------------------------------------------------------------------
# commands

def _problem_spec(args) -> dict:
    """The config problem section that the problem flags describe."""
    if getattr(args, "problem", None):
        return {"file": args.problem}
    spec = {"kind": args.kind, "seed": args.seed}
    if args.kind == "linear-vi" or args.constrained:
        spec["constrained"] = args.constrained  # other kinds refuse it
    if args.kind in ("linear-vi", "quadratic"):
        spec.update(n=args.n, target_sigma=args.sigma)
    elif args.kind == "logistic":
        spec.update(n=args.n, num_samples=args.num_samples, lam=args.lam)
    else:
        spec.update(nx=args.nx, ny=args.ny, mu_x=args.mu_x, mu_y=args.mu_y)
    return spec


def cmd_generate(args) -> int:
    obj = build_problem(_problem_spec(args))

    out = args.out
    if out is None:
        out = f"{args.kind}-n{obj.dimension}-seed{args.seed}.problem"
    P.write_problem(out, obj)

    if isinstance(obj, SmoothObjective):
        mu_hat, lip_hat = P.estimate_constants(gradient_problem(obj))
    else:
        mu_hat, lip_hat = P.estimate_constants(obj)
    print(f"wrote {out}")
    print(f"          {'recorded':>14}  {'estimated':>14}")
    print(f"mu        {obj.mu:14.8g}  {mu_hat:14.8g}")
    print(f"lip       {obj.lip:14.8g}  {lip_hat:14.8g}")
    print(f"sigma     {obj.sigma:14.8g}  {mu_hat / lip_hat:14.8g}")
    print(f"kappa     {obj.kappa:14.8g}  {lip_hat / mu_hat:14.8g}")
    return 0


def cmd_certify(args) -> int:
    params, _ = assemble_params(args.regime, args.preset, _flag_params(args),
                                args.mu, args.lip)
    cert = C.certify(args.regime, args.mu, args.lip, params)
    if cert.feasible and args.theta_default is not None:
        if args.regime == C.REGIME_OPT:
            raise ValueError("--theta-default only applies to the "
                             "variational-inequality regimes")
        td = args.theta_default
        if not (cert.theta_lo <= td < cert.theta_hi):
            raise ValueError(
                f"--theta-default {td:g} outside the certified window "
                f"[{cert.theta_lo:g}, {cert.theta_hi:g})")
        cert = replace(cert, theta_default=td, rate=1.0 - (cert.a - td))
    sys.stdout.write(cert.to_text())
    if cert.feasible and args.gap is not None and args.tol is not None:
        bound = C.iteration_bound(cert, args.gap, args.tol)
        print(f"iteration_bound = {bound}")
    return 0 if cert.feasible else 3


def _resolve(target, spec: MethodSpec, stop_defaults: dict) -> tuple:
    """Everything one configured method needs to run, checked before any
    method runs: (run_target, params, cert, potential, stop, atol)."""
    run_target, params, regime = build_method(spec, target)
    cert, potential = _certified_potential(run_target, params, regime)
    atol = 0.0
    if regime == C.REGIME_OPT and cert is not None and potential is not None:
        atol = 1e-12 * (1.0 + abs(run_target.optimal_value))
    max_iter = spec.max_iter if spec.max_iter is not None else \
        int(stop_defaults.get("max_iter", 20000))
    tol = spec.tol if spec.tol is not None else \
        float(stop_defaults.get("tol", 1e-6))
    return (run_target, params, cert, potential,
            S.StopRule(max_iter=max_iter, residual_tol=tol), atol)


def _run_one(name: str, run_target, params, cert, potential, stop, atol):
    """Run one resolved method; returns (trace, cert, report, error)."""
    try:
        trace = S.run(run_target, name, params, _start_point(run_target),
                      stop, potential=potential)
    except H.DivergenceError as err:
        return err.trace, cert, None, "diverged"
    report = None
    if cert is not None and cert.feasible and potential is not None:
        report = H.check_contraction(trace, cert, atol=atol)
    return trace, cert, report, None


def _start_point(target):
    if isinstance(target, SmoothObjective):
        return np.ones(target.dimension)
    return target.feasible_set.project(np.ones(target.dimension))


TRACE_WRITERS = {"csv": H.write_trace_csv, "jsonl": H.write_trace_jsonl}


def _output_plan(output: dict) -> tuple:
    """(directory, formats, thinning) of an output section, validated."""
    formats = [f.strip() for f in str(output.get("formats", "csv")).split(",")]
    for fmt in formats:
        if fmt not in TRACE_WRITERS:
            raise ValueError(f"unknown trace format {fmt!r}")
    thinning = int(output.get("thinning", 1))
    if thinning < 1:
        raise ValueError("thinning must be a positive integer")
    return str(output.get("directory", ".")), formats, thinning


def _summarize(results) -> bool:
    """Print the comparison table; True when any run diverged or broke
    its certificate (the --strict failure condition)."""
    print(f"{'method':<18} {'status':<10} {'iters@tol':>10} "
          f"{'merit_primary':>14} {'merit_aux':>14} {'max_violation':>14}")
    failed = False
    for name, trace, cert, report, error in results:
        status = error or trace.terminated_by
        failed |= error is not None
        iters = str(trace.iterations) if status == "tolerance" else ""
        viol = ""
        if report is not None:
            viol = f"{report.max_violation:.3e}"
            failed |= not report.ok
        elif cert is not None and not cert.feasible:
            status += "/uncert"
        aux = trace.column("merit_aux")[-1]
        aux = "" if aux is None else f"{aux:.6e}"
        print(f"{name:<18} {status:<10} {iters:>10} "
              f"{trace.column('merit_primary')[-1]:>14.6e} {aux:>14} "
              f"{viol:>14}")
    return failed


def _run_experiment(cfg: ExperimentConfig, strict: bool) -> int:
    """Build the problem and resolve every method and the output section,
    then run, write and summarize each method."""
    target = build_problem(cfg.problem)
    runs = [(spec.name, _resolve(target, spec, cfg.stop))
            for spec in cfg.methods]
    directory, formats, thinning = _output_plan(cfg.output)
    os.makedirs(directory, exist_ok=True)
    results = []
    for name, plan in runs:
        trace, cert, report, error = _run_one(name, *plan)
        for fmt in formats:
            TRACE_WRITERS[fmt](trace, os.path.join(directory, f"{name}.{fmt}"),
                               thinning=thinning)
        results.append((name, trace, cert, report, error))
    failed = _summarize(results)
    return 4 if strict and failed else 0


def _flag_config(args, problem: dict, methods: list) -> ExperimentConfig:
    return ExperimentConfig(
        problem=problem, methods=methods,
        stop={"max_iter": args.max_iter, "tol": args.tol},
        output={"directory": args.out_dir, "formats": args.formats,
                "thinning": args.thinning})


def cmd_solve(args) -> int:
    spec = MethodSpec(name=args.method, preset=args.preset,
                      params=_flag_params(args))
    return _run_experiment(_flag_config(args, {"file": args.problem}, [spec]),
                           args.strict)


def cmd_compare(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.out_dir != ".":
            cfg.output["directory"] = args.out_dir
    elif args.methods:
        cfg = _flag_config(args, _problem_spec(args),
                           [MethodSpec(name=m.strip(), preset=args.preset)
                            for m in args.methods.split(",")])
    else:
        raise ValueError("compare needs --config or --methods")
    return _run_experiment(cfg, args.strict)


def _flag_params(args) -> dict:
    """The coefficient flags as config entries; --t gives t1..t9."""
    params = {key: getattr(args, key)
              for key in VI_PARAM_KEYS + OPT_PARAM_KEYS[9:]
              if getattr(args, key) is not None}
    if args.t is not None:
        tvals = [float(v) for v in args.t.split(",")]
        if len(tvals) != 9:
            raise ValueError("--t needs nine comma-separated values")
        params.update((f"t{i}", v) for i, v in enumerate(tvals, start=1))
    return params


# ---------------------------------------------------------------------------
# argument parsing

def _add_problem_flags(sp):
    sp.add_argument("--kind", default="linear-vi",
                    choices=["linear-vi", "quadratic", "logistic",
                             "bilinear-saddle"])
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sigma", type=float, default=1e-2)
    sp.add_argument("--constrained", action="store_true")
    sp.add_argument("--num-samples", dest="num_samples", type=int, default=2)
    sp.add_argument("--lam", type=float, default=0.005)
    sp.add_argument("--nx", type=int, default=10)
    sp.add_argument("--ny", type=int, default=10)
    sp.add_argument("--mu-x", dest="mu_x", type=float, default=1.0)
    sp.add_argument("--mu-y", dest="mu_y", type=float, default=1.0)


def _add_vi_param_flags(sp):
    for key in VI_PARAM_KEYS:
        sp.add_argument(f"--{key}", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--t", type=str, default=None,
                    help="nine comma-separated opt coefficients")
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)


def _add_output_flags(sp):
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--formats", default="csv")
    sp.add_argument("--thinning", type=int, default=1)
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=20000)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--strict", action="store_true")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="viaccel",
        description="Certified first-order solvers for strongly monotone "
                    "problems: generate instances, certify parameters, run "
                    "and compare methods.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate and serialize an instance")
    _add_problem_flags(g)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    ce = sub.add_parser("certify", help="check parameter feasibility and rate")
    ce.add_argument("--regime", required=True, choices=list(C.REGIMES))
    ce.add_argument("--mu", type=float, required=True)
    ce.add_argument("--lip", type=float, required=True)
    ce.add_argument("--preset", default=None, choices=[PR.PAPER_DEFAULT])
    _add_vi_param_flags(ce)
    ce.add_argument("--theta-default", dest="theta_default", type=float,
                    default=None,
                    help="override the momentum weight inside the certified "
                         "window (VI regimes)")
    ce.add_argument("--gap", type=float, default=None)
    ce.add_argument("--tol", type=float, default=None)
    ce.set_defaults(func=cmd_certify)

    so = sub.add_parser("solve", help="run one method on a problem file")
    so.add_argument("--problem", required=True)
    so.add_argument("--method", required=True, choices=list(S.METHODS))
    so.add_argument("--preset", default=None, choices=list(PR.PRESETS))
    _add_vi_param_flags(so)
    _add_output_flags(so)
    so.set_defaults(func=cmd_solve)

    cp = sub.add_parser("compare", help="run several methods and summarize")
    cp.add_argument("--config", default=None)
    cp.add_argument("--problem", default=None,
                    help="problem file (overrides generator flags)")
    cp.add_argument("--methods", default=None,
                    help="comma-separated method names")
    cp.add_argument("--preset", default=None, choices=list(PR.PRESETS))
    _add_problem_flags(cp)
    _add_output_flags(cp)
    cp.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OverflowError, OSError,
            RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

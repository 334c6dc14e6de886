"""Command-line front end: generate, certify, solve, compare.

Exit codes are stable: 0 success, 2 usage or validation error, 3 infeasible
certificate, 4 certificate violation or divergence under --strict.

Experiment configs are flat ``key = value`` text with dotted sections
(problem.*, method.<i>.*, stop.*, output.*). All randomness flows from
explicit seeds.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import certify as C
from . import harness as H
from . import presets as PR
from . import problems as P
from . import solvers as S
from .core import (MonotoneProblem, SmoothObjective, gradient_problem,
                   norm2, typed)
from .problems import KINDS

EPS = float(np.finfo(np.float64).eps)
VI_PARAM_KEYS = ("alpha", "beta", "gamma", "eta", "tau")
OPT_PARAM_KEYS = tuple(f"t{i}" for i in range(1, 10)) + ("theta", "c", "delta")
# The value of a key that is not given. Stop and output keys default in
# configs and flags alike, problem keys only as flags (a config names its
# problem in full); a kind's key without an entry takes its generator's.
DEFAULTS = {"kind": "linear-vi", "n": 20, "seed": 0, "target_sigma": 1e-2,
            "num_samples": 2, "lam": 0.005, "nx": 10, "ny": 10,
            "max_iter": 20000, "tol": 1e-6,
            "directory": ".", "formats": "csv", "thinning": 1}
# the keys each flat config section takes; method.<i>.* is parsed apart
SECTION_KEYS = {
    "problem": ("file", "kind", *dict.fromkeys(
        key for _, types in KINDS.values() for key in types)),
    "stop": ("max_iter", "tol"),
    "output": ("directory", "formats", "thinning"),
}
# the type of each key's value where it is not text
KEY_TYPES = dict(max_iter=int, tol=float, thinning=int, **{
    key: typ for _, types in KINDS.values() for key, typ in types.items()})
# the flags whose option string is not --<config key>
OPTIONS = {"file": "--problem", "target_sigma": "--sigma",
           "directory": "--out-dir"}


def option(key: str) -> str:
    """The flag that sets a config key (or another argument dest)."""
    return OPTIONS.get(key, "--" + key.replace("_", "-"))


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


def _once(seen: set, key: str, ident: tuple) -> None:
    """Refuse a config key whose ident was already given."""
    if ident in seen:
        raise ValueError(f"config key {key} is given twice")
    seen.add(ident)


def parse_config(text: str) -> ExperimentConfig:
    sections = {name: {} for name in SECTION_KEYS}
    methods = {}
    seen = set()  # every key given so far, method indices read as integers
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " = " not in line:
            raise ValueError(f"unparseable config line {line!r}")
        key, value = (part.strip() for part in line.split(" = ", 1))
        parts = key.split(".")
        if len(parts) == 2 and parts[1] in SECTION_KEYS.get(parts[0], ()):
            _once(seen, key, tuple(parts))
            sections[parts[0]][parts[1]] = typed(
                key, value, KEY_TYPES.get(parts[1], str))
        elif parts[0] == "method" and len(parts) == 3:
            try:
                idx = int(parts[1])
            except ValueError:
                raise ValueError(f"{key}: the method index must be an "
                                 f"integer, got {parts[1]}") from None
            fld = parts[2]
            _once(seen, key, ("method", idx, fld))
            spec = methods.setdefault(idx, MethodSpec(name=""))
            if fld in ("name", "preset", "max_iter", "tol"):
                setattr(spec, fld, typed(key, value, KEY_TYPES.get(fld, str)))
            elif fld in VI_PARAM_KEYS or fld in OPT_PARAM_KEYS:
                spec.params[fld] = typed(key, value, float)
            else:
                raise ValueError(f"unknown method field {fld!r}")
        else:
            raise ValueError(f"unknown config key {key!r}")
    specs = [methods[i] for i in sorted(methods)]
    if not specs:
        raise ValueError("config needs at least one method.<i>.name entry")
    if not all(spec.name for spec in specs):
        raise ValueError("every method entry needs a name")
    return ExperimentConfig(methods=specs, **sections)


def build_problem(spec: dict) -> Union[MonotoneProblem, SmoothObjective]:
    """Instantiate the problem section of a config: problem.file alone, or a
    kind with the keys its generator takes (all but the optional ones)."""
    kind = spec.get("kind")
    if "file" in spec:
        source, takes = "problem.file", ("file",)
    elif kind in KINDS:
        gen, types = KINDS[kind]
        params = inspect.signature(gen).parameters
        for key in types:
            if key not in spec and params[key].default is params[key].empty:
                raise ValueError(f"config needs problem.{key}")
        source, takes = f"problem kind {kind}", ("kind", *types)
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    extra = sorted(set(spec) - set(takes))
    if extra:
        raise ValueError(f"{source} does not take "
                         f"{', '.join('problem.' + k for k in extra)}")

    if "file" in spec:
        return P.read_problem(spec["file"])
    made = gen(**{key: spec[key] for key in types if key in spec})
    # gen_linear_vi returns (problem, its operator matrix)
    return made[0] if isinstance(made, tuple) else made


# ---------------------------------------------------------------------------
# method assembly

def assemble_params(regime: str, preset: Optional[str], params: dict,
                    mu: float, lip: float):
    """The one path from a preset token or coefficient entries to step
    parameters; returns (params, from_defaults).

    No step coefficients (opt may still pass delta, which picks t3) means
    the paper defaults. A preset takes no coefficients, except delta with
    paper-default in the opt regime. Explicit VI coefficients need alpha;
    explicit opt coefficients need t1..t9, theta and c, and take no delta.
    The table preset resolves to None here: its entries depend on the
    method and the instance (presets.table_preset).
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
    if "delta" in params:
        raise ValueError("explicit opt coefficients take no delta: it only "
                         "picks t3 of the paper defaults")
    missing = [k for k in OPT_PARAM_KEYS[:11] if k not in params]
    if missing:
        raise ValueError(f"explicit opt coefficients need t1..t9, theta, c "
                         f"(missing {', '.join(missing)}) or a preset")
    return S.OptParams(t=tuple(params[f"t{i}"] for i in range(1, 10)),
                       theta=params["theta"], c=params["c"]), False


class Plan(NamedTuple):
    """One configured method: its run, checked and bound by check_run, its
    certificate, and its trace's contraction check (None without a potential)."""

    name: str
    run: Callable[[], H.IterateTrace]
    params: Union[S.ViParams, S.OptParams]
    cert: Optional[C.RateCertificate]
    check: Optional[Callable[[H.IterateTrace], H.ContractionReport]]


def build_method(spec: MethodSpec, target, stop: Optional[dict] = None) -> Plan:
    """One configured method's Plan, its run bound last by solvers.check_run.

    VI methods start at the projected all-ones point and run against an
    objective's gradient problem; opt-extra-point starts at all ones. A
    coefficient outside a named method's mask is an error. Only extra-point
    and opt-extra-point at the paper defaults carry a certificate, and a
    feasible one a potential if the target records its solution, or its
    minimizer and optimal value. Method stop entries override the section's.
    """
    if spec.name not in S.METHODS:
        raise ValueError(f"unknown method {spec.name!r}; "
                         f"expected one of {S.METHODS}")
    opt = spec.name in S.OPT_METHODS
    if opt:
        if not isinstance(target, SmoothObjective):
            raise ValueError(f"{spec.name} needs a smooth objective")
        run_target, regime = target, C.REGIME_OPT
        start = np.ones(target.dimension)
    else:
        mask = S.VI_MASKS[spec.name]
        outside = [k for k in VI_PARAM_KEYS if k in spec.params and k not in mask]
        if outside:
            raise ValueError(f"{spec.name} does not take {', '.join(outside)} "
                             f"(it takes {', '.join(mask)})")
        run_target = gradient_problem(target) \
            if isinstance(target, SmoothObjective) else target
        fset = run_target.feasible_set
        regime = C.REGIME_VI_RESTRICTED if run_target.domain_restricted or \
            not fset.unbounded_whole_space else C.REGIME_VI_UNRESTRICTED
        start = fset.project(np.ones(run_target.dimension))
    params, from_defaults = assemble_params(regime, spec.preset, spec.params,
                                            run_target.mu, run_target.lip)
    if params is None:
        params = PR.table_preset(spec.name, target)
    cert = potential = None
    if from_defaults and spec.name in ("extra-point",) + S.OPT_METHODS:
        cert = C.certify(regime, run_target.mu, run_target.lip, params)
        if cert.feasible and opt:
            if run_target.minimizer is not None and \
                    run_target.optimal_value is not None:
                potential = H.opt_potential(run_target, params.c)
                atol = 1e-12 * (1.0 + abs(run_target.optimal_value))
        elif cert.feasible and run_target.solution is not None:
            potential = H.vi_distance_potential(run_target, cert.theta_default)
            # The potential cannot resolve distances below how far the
            # stored z* may sit from the exact solution: its rounding,
            # 4 eps (1 + ||z*||), plus the error bound (1 + L) / mu times
            # its natural residual. Below that floor a converged run only
            # shows rounding noise.
            zs = run_target.solution
            err = 4.0 * EPS * (1.0 + norm2(zs)) + \
                (1.0 + run_target.lip) / run_target.mu * \
                H.merit(run_target, zs)[1]
            atol = (1.0 + cert.theta_default) * err * err
    stop = {**DEFAULTS, **(stop or {}), **_given(spec, SECTION_KEYS["stop"])}
    try:
        stop = S.StopRule(max_iter=stop["max_iter"], residual_tol=stop["tol"])
    except ValueError as exc:  # StopRule names its field: name the key
        field_, rest = str(exc).split(" ", 1)
        key = "tol" if field_ == "residual_tol" else field_
        named = f"the {key} of method {spec.name}" \
            if getattr(spec, key) is not None else f"{option(key)} / stop.{key}"
        raise ValueError(f"{named} {rest}, got {stop[key]}") from None
    run = S.check_run(run_target, spec.name, params, start, stop, potential)
    check = potential and partial(H.check_contraction, cert=cert, atol=atol)
    return Plan(spec.name, run, params, cert, check)


# ---------------------------------------------------------------------------
# commands

def _given(args, keys) -> dict:
    """The attributes among keys that are set (flags that were given), as
    config entries."""
    return {key: getattr(args, key) for key in keys
            if getattr(args, key, None) is not None}


def _problem_spec(args) -> dict:
    """The config problem section of the problem flags given; the kind's
    keys not given take their flag defaults."""
    spec = _given(args, SECTION_KEYS["problem"])
    if "file" in spec:
        return spec
    types = KINDS[spec.setdefault("kind", DEFAULTS["kind"])][1]
    return {**{key: DEFAULTS[key] for key in types if key in DEFAULTS}, **spec}


def cmd_generate(args) -> int:
    obj = build_problem(_problem_spec(args))

    out = args.out
    if out is None:
        out = f"{obj.kind}-n{obj.dimension}-seed{obj.seed}.problem"
    P.write_problem(out, obj)

    mu_hat, lip_hat = P.estimate_constants(
        gradient_problem(obj) if isinstance(obj, SmoothObjective) else obj)
    print(f"wrote {out}")
    print(f"          {'recorded':>14}  {'estimated':>14}")
    print(f"mu        {obj.mu:14.8g}  {mu_hat:14.8g}")
    print(f"lip       {obj.lip:14.8g}  {lip_hat:14.8g}")
    print(f"sigma     {obj.sigma:14.8g}  {mu_hat / lip_hat:14.8g}")
    print(f"kappa     {obj.kappa:14.8g}  {lip_hat / mu_hat:14.8g}")
    return 0


def cmd_certify(args) -> int:
    if (args.gap is None) != (args.tol is None):
        raise ValueError("--gap and --tol go together")
    if not all(0.0 < v < math.inf for v in (args.gap, args.tol)
               if v is not None):
        raise ValueError("--gap and --tol must be positive and finite")
    if args.theta_default is not None and args.regime == C.REGIME_OPT:
        raise ValueError("--theta-default only applies to the "
                         "variational-inequality regimes")
    params, _ = assemble_params(args.regime, args.preset, _flag_params(args),
                                args.mu, args.lip)
    cert = C.certify(args.regime, args.mu, args.lip, params)
    if cert.feasible and args.theta_default is not None:
        td = args.theta_default
        if not (cert.theta_lo <= td < cert.theta_hi):
            raise ValueError(
                f"--theta-default {td:g} outside the certified window "
                f"[{cert.theta_lo:g}, {cert.theta_hi:g})")
        cert = replace(cert, theta_default=td, rate=1.0 - (cert.a - td))
    text = cert.to_text()  # printed whole, so an error prints none of it
    if cert.feasible and args.gap is not None:
        bound = C.iteration_bound(cert, args.gap, args.tol)
        text += f"iteration_bound = {bound}\n"
    sys.stdout.write(text)
    unused = _given(args, ("theta_default", "gap", "tol"))
    if unused and not cert.feasible:
        print(f"note: {', '.join(map(option, unused))} unused: the "
              f"certificate is infeasible", file=sys.stderr)
    return 0 if cert.feasible else 3


TRACE_WRITERS = {"csv": H.write_trace_csv, "jsonl": H.write_trace_jsonl}


def _output_plan(output: dict) -> tuple:
    """(directory, formats, thinning) of an output section, validated."""
    output = {**DEFAULTS, **output}
    formats = [f.strip() for f in output["formats"].split(",")]
    for fmt in formats:
        if fmt not in TRACE_WRITERS:
            raise ValueError(f"unknown trace format {fmt!r}")
    if output["thinning"] < 1:
        raise ValueError("thinning must be a positive integer")
    return output["directory"], formats, output["thinning"]


def _summarize(results) -> bool:
    """Print the comparison table; True when any run diverged or broke
    its certificate (the --strict failure condition)."""
    failed, rows = False, [("method", "status", "iters@tol", "merit_primary",
                            "merit_aux", "max_violation")]
    for label, plan, trace, report, error in results:
        status = error or trace.terminated_by
        failed |= error is not None
        iters = str(trace.iterations) if status == "tolerance" else ""
        viol = ""
        if report is not None:
            viol = f"{report.max_violation:.3e}"
            failed |= not report.ok
        elif plan.cert is not None and not plan.cert.feasible:
            status += "/uncert"
        aux = trace.column("merit_aux")[-1]
        aux = "" if aux is None else f"{aux:.6e}"
        rows.append((label, status, iters,
                     f"{trace.column('merit_primary')[-1]:.6e}", aux, viol))
    width = max(10, *(len(row[1]) for row in rows))
    for label, status, iters, primary, aux, viol in rows:
        print(f"{label:<18} {status:<{width}} {iters:>10} {primary:>14} "
              f"{aux:>14} {viol:>14}")
    return failed


def _run_experiment(cfg: ExperimentConfig, strict: bool) -> int:
    """Build the problem and resolve every method and the output section,
    then run, write and summarize each method: as <name>, or <name>.<i>
    when the name repeats, i its position in the experiment."""
    target = build_problem(cfg.problem)
    plans = [build_method(spec, target, cfg.stop) for spec in cfg.methods]
    directory, formats, thinning = _output_plan(cfg.output)
    os.makedirs(directory, exist_ok=True)
    names = [plan.name for plan in plans]
    results = []
    for i, plan in enumerate(plans, start=1):
        label = f"{plan.name}.{i}" if names.count(plan.name) > 1 else plan.name
        report = error = None
        try:
            trace = plan.run()
        except H.DivergenceError as err:
            trace, error = err.trace, "diverged"
        if plan.check is not None and error is None:
            report = plan.check(trace)
        for fmt in formats:
            TRACE_WRITERS[fmt](trace, os.path.join(
                directory, f"{label}.{fmt}"), thinning=thinning)
        results.append((label, plan, trace, report, error))
    failed = _summarize(results)
    return 4 if strict and failed else 0


def _flag_config(args, methods: list) -> ExperimentConfig:
    return ExperimentConfig(problem=_problem_spec(args), methods=methods,
                            stop=_given(args, SECTION_KEYS["stop"]),
                            output=_given(args, SECTION_KEYS["output"]))


def cmd_solve(args) -> int:
    spec = MethodSpec(name=args.method, preset=args.preset,
                      params=_flag_params(args))
    return _run_experiment(_flag_config(args, [spec]), args.strict)


def cmd_compare(args) -> int:
    if args.config is None:
        if args.methods is None:
            raise ValueError("compare needs --config or --methods")
        return _run_experiment(
            _flag_config(args, [MethodSpec(name=m.strip(), preset=args.preset)
                                for m in args.methods.split(",")]),
            args.strict)
    others = _given(args, ("methods", "preset", *SECTION_KEYS["problem"],
                           *SECTION_KEYS["stop"], *SECTION_KEYS["output"][1:]))
    if others:
        raise ValueError(f"--config takes only --out-dir and --strict, not "
                         f"{', '.join(map(option, others))}")
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    if args.directory is not None:
        cfg.output["directory"] = args.directory
    return _run_experiment(cfg, args.strict)


def _flag_params(args) -> dict:
    """The coefficient flags as config entries; --t gives t1..t9."""
    params = _given(args, VI_PARAM_KEYS + OPT_PARAM_KEYS[9:])
    if args.t is not None:
        tvals = [float(v) for v in args.t.split(",")]
        if len(tvals) != 9:
            raise ValueError("--t needs nine comma-separated values")
        params.update((f"t{i}", v) for i, v in enumerate(tvals, start=1))
    return params


# ---------------------------------------------------------------------------
# argument parsing

def _add_key_flags(sp, keys):
    """One flag per config key, unset unless given; help names the kinds
    that take it and its default."""
    for key in keys:
        kinds = [kind for kind, (_, types) in KINDS.items() if key in types]
        text = "default: " + str(DEFAULTS.get(key, "the generator's"))
        typ = KEY_TYPES.get(key, str)
        kw = {"action": "store_true"} if typ is bool else {"type": typ}
        if key == "kind":
            kw["choices"] = list(KINDS)
        sp.add_argument(option(key), dest=key, default=None, **kw,
                        help=f"{', '.join(kinds)}; {text}" if kinds else text)


def _add_vi_param_flags(sp):
    for key in VI_PARAM_KEYS + OPT_PARAM_KEYS[9:]:
        sp.add_argument(f"--{key}", type=float)
    sp.add_argument("--t", help="nine comma-separated opt coefficients")


def _add_output_flags(sp):
    _add_key_flags(sp, SECTION_KEYS["output"] + SECTION_KEYS["stop"])
    sp.add_argument("--strict", action="store_true")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="viaccel",
        description="Certified first-order solvers for strongly monotone "
                    "problems: generate instances, certify parameters, run "
                    "and compare methods.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate and serialize an instance")
    _add_key_flags(g, SECTION_KEYS["problem"][1:])
    g.add_argument("--out", help="default: <kind>-n<n>-seed<seed>.problem")
    g.set_defaults(func=cmd_generate)

    ce = sub.add_parser("certify", help="check parameter feasibility and rate")
    ce.add_argument("--regime", required=True, choices=list(C.REGIMES))
    ce.add_argument("--mu", type=float, required=True)
    ce.add_argument("--lip", type=float, required=True)
    ce.add_argument("--preset", choices=[PR.PAPER_DEFAULT])
    _add_vi_param_flags(ce)
    ce.add_argument("--theta-default", type=float,
                    help="override the momentum weight inside the certified "
                         "window (VI regimes)")
    ce.add_argument("--gap", type=float,
                    help="with --tol: print iteration_bound")
    ce.add_argument("--tol", type=float, help="with --gap")
    ce.set_defaults(func=cmd_certify)

    so = sub.add_parser("solve", help="run one method on a problem file")
    so.add_argument("--problem", dest="file", required=True)
    so.add_argument("--method", required=True, choices=list(S.METHODS))
    so.add_argument("--preset", choices=list(PR.PRESETS))
    _add_vi_param_flags(so)
    _add_output_flags(so)
    so.set_defaults(func=cmd_solve)

    cp = sub.add_parser("compare", help="run several methods and summarize")
    cp.add_argument("--config", help="takes only --out-dir and --strict")
    cp.add_argument("--problem", dest="file",
                    help="problem file; takes no generator flags")
    cp.add_argument("--methods", help="comma-separated method names")
    cp.add_argument("--preset", choices=list(PR.PRESETS))
    _add_key_flags(cp, SECTION_KEYS["problem"][1:])
    _add_output_flags(cp)
    cp.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OverflowError, OSError, RuntimeError,
            MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

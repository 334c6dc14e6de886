"""Command-line surface: exit codes, outputs, and experiment configs."""

import dataclasses
import decimal
import inspect
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import viaccel as va
from viaccel import certify as C
from viaccel.cli import (DEFAULTS, KEY_TYPES, KINDS, SECTION_KEYS,
                         ExperimentConfig, MethodSpec, build_method,
                         build_problem, main, option, parse_config,
                         serialize_config)
from viaccel.solvers import VI_MASKS

CONFIG_TEXT = """\
# comparison on a constrained instance
problem.kind = linear-vi
problem.n = 8
problem.seed = 1
problem.target_sigma = 0.05
problem.constrained = true

method.1.name = vanilla
method.1.preset = table
method.2.name = extra-point
method.2.preset = paper-default

stop.max_iter = 3000
stop.tol = 1e-06
output.formats = csv
"""


def _gen(tmp_path, name="prob.txt", sigma="0.05"):
    path = tmp_path / name
    rc = main(["generate", "--kind", "linear-vi", "--n", "8", "--seed", "1",
               "--sigma", sigma, "--out", str(path)])
    assert rc == 0
    return path


# --- exit codes ---------------------------------------------------------------

def test_missing_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_method_choice_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "x.txt", "--method", "steepest"])
    assert info.value.code == 2


def test_validation_error_returns_two(tmp_path, capsys):
    rc = main(["generate", "--sigma", "2.0",
               "--out", str(tmp_path / "p.txt")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert "target_sigma" in captured.err


def test_missing_problem_file_returns_two(capsys):
    rc = main(["solve", "--problem", "/nonexistent/prob.txt",
               "--method", "vanilla", "--alpha", "0.1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_problem_path_that_is_a_directory_returns_two(tmp_path, capsys):
    rc = main(["solve", "--problem", str(tmp_path),
               "--method", "vanilla", "--alpha", "0.1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_problem_file_missing_a_block_returns_two(tmp_path, capsys):
    text = _gen(tmp_path).read_text()
    start = text.index("begin meta.diag")
    end = text.index("end meta.diag") + len("end meta.diag")
    broken = tmp_path / "broken.txt"
    broken.write_text(text[:start] + text[end:])
    capsys.readouterr()
    rc = main(["solve", "--problem", str(broken),
               "--method", "vanilla", "--alpha", "0.1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "meta.diag" in err


@pytest.mark.parametrize("entry, error", [
    ("domain_restricted = no", "domain_restricted must be true or false, "
                               "got no"),
    ("domain_restricted = 1", "domain_restricted must be true or false, got 1"),
    ("seed = banana", "seed must be an integer, got banana"),
    ("seed = 1.5", "seed must be an integer, got 1.5"),
    ("seed = true", "seed must be an integer, got true")])
def test_problem_file_keys_of_the_wrong_type_return_two(entry, error, tmp_path,
                                                        capsys):
    key = entry.split(" = ")[0]
    text = _gen(tmp_path).read_text()
    assert f"\n{key} = " in text
    broken = tmp_path / "broken.txt"
    broken.write_text("".join(entry + "\n" if line.startswith(f"{key} = ")
                              else line for line in text.splitlines(True)))
    capsys.readouterr()
    rc = main(["solve", "--problem", str(broken), "--method", "vanilla",
               "--alpha", "0.1", "--out-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_problem_file_domain_restricted_reads_true():
    text = va.serialize_problem(va.gen_linear_vi(4, 1, 0.05)[0])
    assert "domain_restricted = false" in text
    back = va.parse_problem(text.replace("domain_restricted = false",
                                         "domain_restricted = true"))
    assert back.domain_restricted is True
    assert va.parse_problem(text).domain_restricted is False


@pytest.mark.parametrize("entry, error", [
    ("optimal_value = true", "optimal_value must be a number, got true"),
    ("optimal_value = low", "optimal_value must be a number, got low"),
    ("optimal_value = nan", "optimal_value must be finite, got nan"),
    ("optimal_value = 1", "optimal_value 1 is not the value ")])
def test_problem_file_optimal_value_must_be_the_minimum(entry, error,
                                                        tmp_path, capsys):
    path = tmp_path / "quad.txt"
    assert main(["generate", "--kind", "quadratic", "--n", "4", "--seed", "2",
                 "--out", str(path)]) == 0
    text = path.read_text()
    assert va.read_problem(path).optimal_value < 0.0
    broken = tmp_path / "broken.txt"
    broken.write_text(re.sub(r"(?m)^optimal_value = .*$", entry, text))
    capsys.readouterr()
    rc = main(["solve", "--problem", str(broken), "--method", "opt-extra-point",
               "--max-iter", "50", "--out-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_infeasible_certificate_returns_three(capsys):
    rc = main(["certify", "--regime", "vi-unrestricted", "--mu", "1",
               "--lip", "10", "--alpha", "0", "--eta", "0.025"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "feasible = false" in out
    assert "epc-line-1" in out


# --- generate -------------------------------------------------------------------

def test_generate_writes_a_parseable_deterministic_file(tmp_path, capsys):
    p1 = _gen(tmp_path, "a.txt")
    capsys.readouterr()
    p2 = _gen(tmp_path, "b.txt")
    out = capsys.readouterr().out
    assert "estimated" in out  # empirical constants are reported next to recorded
    assert p1.read_bytes() == p2.read_bytes()
    prob = va.read_problem(p1)
    assert prob.kind == "linear-vi"
    # the generator caps sigma at 98% of what the sampled shape admits
    assert prob.sigma == pytest.approx(0.98 * 0.05, rel=1e-6)


def test_generate_other_kinds(tmp_path):
    for kind, extra in (("quadratic", ["--n", "6"]),
                        ("logistic", ["--n", "6", "--num-samples", "2",
                                      "--lam", "0.005"]),
                        ("bilinear-saddle", ["--nx", "3", "--ny", "4"])):
        path = tmp_path / f"{kind}.txt"
        rc = main(["generate", "--kind", kind, "--seed", "0",
                   "--out", str(path), *extra])
        assert rc == 0
        assert va.read_problem(path).kind == kind


# --- certify --------------------------------------------------------------------

def test_certify_defaults_feasible_with_bound(capsys):
    rc = main(["certify", "--regime", "vi-unrestricted", "--mu", "1",
               "--lip", "10", "--gap", "1.0", "--tol", "1e-8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "feasible = true" in out
    assert "rate = 0.99765747070312505" in out
    assert "iteration_bound = " in out


def test_certify_opt_regime_reference_rate(capsys):
    rc = main(["certify", "--regime", "opt", "--mu", "1", "--lip", "16",
               "--gap", "1.0", "--tol", "1e-8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rate = 0.75" in out
    assert "iteration_bound = 65" in out  # ceil(ln(1e8) / ln(4/3))


@pytest.mark.parametrize("regime, lip, gap, tol", [
    ("vi-unrestricted", "10", "1e300", "1e-300"),  # gap / tol overflows
    ("opt", "1e33", "1", "1e-6")])  # 1 - rate is below the float resolution
def test_certify_bound_past_the_float_range_of_its_inputs(regime, lip, gap,
                                                          tol, capsys):
    rc = main(["certify", "--regime", regime, "--mu", "1", "--lip", lip,
               "--gap", gap, "--tol", tol])
    out = capsys.readouterr().out
    assert rc == 0
    text = dict(line.split(" = ") for line in out.splitlines())
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, theta = (decimal.Decimal(float(text[k]))
                    for k in ("a", "theta_default"))
        ratio = (1 + theta) * decimal.Decimal(gap) / decimal.Decimal(tol)
        want = ratio.ln() / -(1 - (a - theta)).ln()
    # exact up to the float rounding of a quotient near 4e17
    assert abs(int(text["iteration_bound"]) - want) <= 1 + want.scaleb(-14)


@pytest.mark.parametrize("mu, lip, named", [
    ("1e-236", "3e207", "mu = 1e-236 and lip = 2.9999999999999998e+207"),
    ("1e-101", "1", "mu = 1.0000000000000001e-101"),
    ("1", "2e100", "lip = 2e+100")])
def test_certify_refuses_constants_outside_its_range(mu, lip, named, capsys):
    rc = main(["certify", "--regime", "opt", "--mu", mu, "--lip", lip])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"error: {named} outside [1e-100, 1e+100]" in captured.err


@pytest.mark.parametrize("bound_flags", [
    ["--gap", "1.0"], ["--tol", "1e-8"], ["--gap", "-1", "--tol", "1e-6"],
    ["--gap", "inf", "--tol", "1e-6"], ["--gap", "1.0", "--tol", "0"],
    ["--gap", "1.0", "--tol", "nan"]])
def test_certify_gap_and_tol_go_together(bound_flags, capsys):
    rc = main(["certify", "--regime", "opt", "--mu", "1", "--lip", "16",
               *bound_flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and "--gap and --tol" in captured.err


def test_certify_momentum_weight_override(capsys):
    rc = main(["certify", "--regime", "vi-unrestricted", "--mu", "1",
               "--lip", "10", "--theta-default", "0.01"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "theta_default = 0.01" in out
    base = va.certify_vi_unrestricted(
        1.0, 10.0, va.default_params(va.REGIME_VI_UNRESTRICTED, 1.0, 10.0))
    assert f"rate = {1.0 - (base.a - 0.01):.17g}" in out


def test_certify_rejects_weight_outside_window(capsys):
    rc = main(["certify", "--regime", "vi-unrestricted", "--mu", "1",
               "--lip", "10", "--theta-default", "0.02"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "outside the certified window" in err


@pytest.mark.parametrize("regime, coefficients", [
    ("vi-unrestricted", ["--alpha", "0", "--eta", "0.025"]),
    ("vi-restricted", ["--alpha", "0.5", "--eta", "0.5"]),
    ("opt", ["--t", "0.9,0.1,0.5,0.03,6,7,0.8,0.2,0.05", "--theta", "0.05",
             "--c", "0.5"])])
@pytest.mark.parametrize("flags, named", [
    (["--theta-default", "0.5"], "--theta-default"),
    (["--gap", "1", "--tol", "1e-3"], "--gap, --tol"),
    (["--theta-default", "0.5", "--gap", "1", "--tol", "1e-3"],
     "--theta-default, --gap, --tol")])
def test_certify_names_the_flags_an_infeasible_certificate_leaves_unused(
        regime, coefficients, flags, named, capsys):
    argv = ["certify", "--regime", regime, "--mu", "1", "--lip", "10",
            *coefficients]
    assert main(argv) == 3
    printed = capsys.readouterr()
    assert printed.err == ""
    rc = main(argv + flags)
    captured = capsys.readouterr()
    if regime == "opt" and "--theta-default" in flags:
        assert rc == 2 and captured.out == ""  # refused before certifying
        return
    assert rc == 3 and captured.out == printed.out  # the certificate, whole
    assert captured.err == (f"note: {named} unused: the certificate is "
                            "infeasible\n")


@pytest.mark.parametrize("lip", ["1", "16"])  # infeasible, then feasible
def test_certify_refuses_momentum_weight_in_the_opt_regime(lip, capsys):
    rc = main(["certify", "--regime", "opt", "--mu", "1", "--lip", lip,
               "--preset", "paper-default", "--theta-default", "0.1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "--theta-default only applies to the variational-inequality" \
        in captured.err


@pytest.mark.parametrize("mu,lip,eta,violated", [
    ("0.01", "4", "1e-155", "epc-line-3"),
    ("1", "10", "1e-200", "epc-line-2,epc-line-3")])
def test_certify_counts_an_overflowing_line_as_violated(mu, lip, eta,
                                                        violated, capsys):
    # alpha / eta beyond 1e154 overflows alpha^2 / eta^2 in epc-line-3, and
    # eta * eta underflows to zero below 1e-162
    rc = main(["certify", "--regime", "vi-unrestricted", "--mu", mu,
               "--lip", lip, "--alpha", "1", "--eta", eta])
    out = capsys.readouterr().out
    assert rc == 3
    assert f"violated = {violated}\n" in out


def test_certify_restricted_regime(capsys):
    rc = main(["certify", "--regime", "vi-restricted", "--mu", "1",
               "--lip", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rate = 0.9996093139553055" in out
    assert "u = 0.00015625" in out


# --- solve ----------------------------------------------------------------------

def test_solve_writes_traces_and_summary(tmp_path, capsys):
    prob_path = _gen(tmp_path, sigma="0.3")
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_path), "--method", "extra-point",
               "--preset", "paper-default", "--max-iter", "3000",
               "--tol", "1e-8", "--formats", "csv,jsonl",
               "--out-dir", str(tmp_path / "runs")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "extra-point" in out
    assert "tolerance" in out
    csv_path = tmp_path / "runs" / "extra-point.csv"
    jsonl_path = tmp_path / "runs" / "extra-point.jsonl"
    assert csv_path.exists() and jsonl_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "k,merit_primary,merit_aux,dist_sq,potential,elapsed_ns"
    # certified preset runs report their measured contraction margin
    assert "e-0" in out or "e+0" in out


def test_solve_explicit_params_need_alpha(tmp_path, capsys):
    prob_path = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_path), "--method", "vanilla",
               "--beta", "0.1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


def test_solve_divergence_is_reported_and_gated_by_strict(tmp_path, capsys):
    prob_path = _gen(tmp_path)
    capsys.readouterr()
    base = ["solve", "--problem", str(prob_path), "--method", "vanilla",
            "--alpha", "10.0", "--max-iter", "500",
            "--out-dir", str(tmp_path / "div")]
    rc = main(base)
    out = capsys.readouterr().out
    assert rc == 0
    assert "diverged" in out
    rc_strict = main(base + ["--strict"])
    capsys.readouterr()
    assert rc_strict == 4


def _converged_solve(tmp_path, flags):
    """A certified extra-point run that reaches its fixed point long before
    it stops, checked under --tol 0 --strict."""
    path = tmp_path / f"p{len(flags)}.txt"
    assert main(["generate", "--kind", "linear-vi", "--n", "6", "--seed", "1",
                 "--sigma", "0.5", *flags, "--out", str(path)]) == 0
    return main(["solve", "--problem", str(path), "--method", "extra-point",
                 "--preset", "paper-default", "--max-iter", "2000", "--tol",
                 "0", "--strict", "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("flags", [[], ["--constrained"]])
def test_a_converged_run_passes_strict_at_zero_tol(tmp_path, capsys, flags):
    # the distance potential settles at rounding level (about 1.7e-32 on
    # the free instance, 1.2e-26 on the orthant, whose stored solution has
    # a natural residual near 1e-12); steps there are not violations
    rc = _converged_solve(tmp_path, flags)
    out = capsys.readouterr().out
    assert rc == 0, out


def test_strict_still_flags_an_alpha_too_large_for_the_certificate(
        tmp_path, capsys, monkeypatch):
    # run at 10.8 times the certified alpha: the run converges, but more
    # slowly than the certificate's rate, from the first steps on
    real = va.solvers.run

    def run(target, method, params, *args, **kwargs):
        fast = dataclasses.replace(params, alpha=10.8 * params.alpha)
        return real(target, method, fast, *args, **kwargs)

    monkeypatch.setattr(va.solvers, "run", run)
    rc = _converged_solve(tmp_path, [])
    out = capsys.readouterr().out
    assert rc == 4
    assert "max-iter" in out and "diverged" not in out


def test_solve_zero_iterations_yields_single_record(tmp_path, capsys):
    prob_path = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_path), "--method", "vanilla",
               "--alpha", "0.02", "--max-iter", "0",
               "--out-dir", str(tmp_path / "zero")])
    capsys.readouterr()
    assert rc == 0
    rows = (tmp_path / "zero" / "vanilla.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus the start record
    assert rows[1].split(",")[0] == "0"


# --- compare --------------------------------------------------------------------

def test_compare_runs_named_methods_with_table_preset(tmp_path, capsys):
    rc = main(["compare", "--kind", "linear-vi", "--n", "8", "--seed", "1",
               "--sigma", "0.05", "--methods", "vanilla,extra-point",
               "--preset", "table", "--max-iter", "3000", "--tol", "1e-6",
               "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("method")
    assert "vanilla" in out and "extra-point" in out
    assert (tmp_path / "vanilla.csv").exists()
    assert (tmp_path / "extra-point.csv").exists()


def test_compare_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT + f"output.directory = {tmp_path / 'out'}\n")
    rc = main(["compare", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "vanilla" in out and "extra-point" in out
    assert (tmp_path / "out" / "vanilla.csv").exists()


def test_compare_without_methods_or_config_fails(capsys):
    rc = main(["compare", "--kind", "linear-vi"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


LIN8 = ["--kind", "linear-vi", "--n", "8", "--seed", "1", "--sigma", "0.05"]


@pytest.mark.parametrize("args, message", [
    (LIN8 + ["--methods", "vanilla,opt-extra-point", "--preset", "table"],
     "opt-extra-point needs a smooth objective"),
    (LIN8 + ["--methods", "vanilla,extra-point", "--preset", "table",
             "--formats", "csv,bogus"], "unknown trace format 'bogus'"),
    (LIN8 + ["--methods", "vanilla,extra-point", "--preset", "table",
             "--thinning", "0"], "thinning must be a positive integer"),
    # refused by run's own preconditions, checked when the plan is made
    (["--problem", "dr.problem", "--methods", "vanilla,nesterov", "--preset",
      "table"], "domain-restricted problems need the projected half point"),
    (["--config", "exp.cfg"], "extra-gradient needs a positive half-step eta"),
])
def test_compare_validates_the_whole_experiment_before_running(
        args, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--kind", "linear-vi", "--n", "4", "--seed", "1",
                 "--constrained", "--out", "p.problem"]) == 0
    Path("dr.problem").write_text(Path("p.problem").read_text().replace(
        "domain_restricted = false", "domain_restricted = true"))
    Path("exp.cfg").write_text(
        "problem.file = p.problem\nmethod.1.name = vanilla\n"
        "method.1.preset = table\nmethod.2.name = extra-gradient\n"
        "method.2.alpha = 0.01\n")
    capsys.readouterr()
    rc = main(["compare", *args, "--out-dir", "out"])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not Path("out").exists()  # no method ran, so no trace was written


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "bilinear-saddle"])
@pytest.mark.parametrize("command", ["generate", "compare"])
def test_constrained_flag_on_another_kind_returns_two(command, kind, tmp_path,
                                                      capsys):
    rc = main([command, "--kind", kind, "--n", "4", "--constrained",
               *(["--out", str(tmp_path / "p.txt")] if command == "generate"
                 else ["--methods", "vanilla", "--out-dir", str(tmp_path)])])
    assert rc == 2
    assert "problem.constrained" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --- experiment configs ------------------------------------------------------------

def test_config_round_trip_is_identity():
    cfg = parse_config(CONFIG_TEXT)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert cfg.problem["kind"] == "linear-vi"
    assert cfg.problem["constrained"] is True
    assert [m.name for m in cfg.methods] == ["vanilla", "extra-point"]
    assert cfg.methods[0].preset == "table"
    assert cfg.stop["max_iter"] == 3000 and isinstance(cfg.stop["max_iter"], int)


def test_config_parsing_errors():
    with pytest.raises(ValueError):
        parse_config("problem.kind = linear-vi\n")  # no methods
    with pytest.raises(ValueError):
        parse_config("method.1.name = vanilla\njunk-line\n")
    with pytest.raises(ValueError):
        parse_config("method.1.name = vanilla\nmethod.1.step = 2\n")
    with pytest.raises(ValueError):
        parse_config("unknown.section = 1\nmethod.1.name = vanilla\n")


def test_config_serialization_formats_floats_stably():
    cfg = ExperimentConfig(problem={"kind": "quadratic", "n": 6, "seed": 0,
                                    "target_sigma": 0.05},
                           methods=[MethodSpec(name="vanilla",
                                               params={"alpha": 1.0 / 3.0})],
                           stop={"max_iter": 10},
                           output={})
    text = serialize_config(cfg)
    assert "method.1.alpha = 0.33333333333333331" in text
    assert parse_config(text).methods[0].params["alpha"] == 1.0 / 3.0


def test_runtime_error_from_a_reference_solve_returns_two(tmp_path, monkeypatch,
                                                          capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("complementarity reference solve did not converge")

    monkeypatch.setattr(va.problems, "solve_linear_reference", fail)
    rc = main(["generate", "--kind", "linear-vi", "--n", "4", "--constrained",
               "--out", str(tmp_path / "p.txt")])
    assert rc == 2
    assert "error: complementarity reference solve" in capsys.readouterr().err


def _table_row(out, method):
    header, *rows = out.splitlines()
    return next(dict(zip(header.split(), r.split())) for r in rows
                if r.split()[0] == method)


def test_compare_iters_at_tol_follows_the_opt_stop_rule(tmp_path, capsys):
    rc = main(["compare", "--kind", "quadratic", "--n", "8", "--seed", "2",
               "--sigma", "0.05", "--methods", "opt-extra-point",
               "--preset", "table", "--tol", "1e-8", "--out-dir", str(tmp_path)])
    row = _table_row(capsys.readouterr().out, "opt-extra-point")
    last = (tmp_path / "opt-extra-point.csv").read_text().splitlines()[-1]
    assert rc == 0 and row["status"] == "tolerance"
    assert row["iters@tol"] == last.split(",")[0]


def test_compare_iters_at_tol_reads_each_method_tolerance(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "problem.kind = linear-vi\nproblem.n = 8\nproblem.seed = 1\n"
        "problem.target_sigma = 0.05\nmethod.1.name = extra-point\n"
        "method.1.preset = table\nmethod.1.tol = 0.001\n"
        "method.2.name = vanilla\nmethod.2.preset = table\n"
        "method.2.max_iter = 5\n")
    rc = main(["compare", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    row = _table_row(out, "extra-point")
    assert rc == 0 and row["status"] == "tolerance"
    assert row["iters@tol"] == "189"
    vanilla = next(ln for ln in out.splitlines() if ln.startswith("vanilla "))
    assert vanilla.split()[1] == "max-iter"
    assert vanilla[30:40].strip() == ""  # blank unless stopped by tolerance


def test_compare_iters_at_tol_is_filled_on_logistic_instances(tmp_path, capsys):
    rc = main(["compare", "--kind", "logistic", "--n", "5", "--seed", "3",
               "--num-samples", "20", "--methods", "opt-extra-point",
               "--preset", "table", "--tol", "1e-8", "--out-dir", str(tmp_path)])
    row = _table_row(capsys.readouterr().out, "opt-extra-point")
    assert rc == 0 and row["status"] == "tolerance"
    assert row["iters@tol"].isdigit()


def test_table_opt_row_names_its_limit_on_mu(tmp_path, capsys):
    path = tmp_path / "p.txt"
    gen = ["generate", "--kind", "logistic", "--n", "4", "--num-samples", "3",
           "--seed", "1", "--out", str(path)]
    solve = ["solve", "--problem", str(path), "--method", "opt-extra-point",
             "--preset", "table", "--max-iter", "50", "--out-dir", str(tmp_path)]
    assert main(gen + ["--lam", "0.05"]) == 0
    capsys.readouterr()
    assert main(solve) == 2
    assert capsys.readouterr().err == (
        "error: the table preset of opt-extra-point on logistic instances "
        "sets theta = 71.6115 mu, so it needs mu at most 1/71.6115; this "
        "instance has mu = 0.05\n")
    assert not (tmp_path / "opt-extra-point.csv").exists()
    assert main(gen) == 0  # the default --lam 0.005
    assert main(solve) == 0


@pytest.mark.parametrize("flags, error", [
    (["--tol", "nan"], "--tol / stop.tol must be nonnegative and finite, "
                       "got nan"),
    (["--tol=-1e-3"], "--tol / stop.tol must be nonnegative and finite, "
                      "got -0.001"),
    (["--max-iter", "-1"], "--max-iter / stop.max_iter must be nonnegative, "
                           "got -1"),
])
def test_stop_flags_out_of_range_are_named_as_written(flags, error, tmp_path,
                                                      capsys):
    prob_path = _gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["solve", "--problem", str(prob_path), "--method", "vanilla",
               *flags, "--out-dir", str(out)])
    assert rc == 2 and capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("entry, error", [
    ("stop.tol = inf", "--tol / stop.tol must be nonnegative and finite, "
                       "got inf"),
    ("stop.max_iter = -2", "--max-iter / stop.max_iter must be nonnegative, "
                           "got -2"),
    ("method.2.max_iter = -3", "the max_iter of method extra-point must be "
                               "nonnegative, got -3"),
])
def test_stop_config_entries_out_of_range_are_named(entry, error, tmp_path,
                                                    capsys):
    key = entry.split(" = ")[0]
    text = re.sub(rf"(?m)^{re.escape(key)} = .*\n", "", CONFIG_TEXT)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text + entry + "\n")
    rc = main(["compare", "--config", str(cfg_path), "--out-dir",
               str(tmp_path / "out")])
    assert rc == 2 and capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


# --- parameter resolution -----------------------------------------------------------

OPT_T = (0.8, 0.2, 0.5, 0.2, 0.4, 1.3, 0.75, 0.25, 0.25)
EXPLICIT = {
    "vi": {"alpha": 0.01, "beta": 0.02, "eta": 0.004, "tau": 0.003},
    "opt": {**{f"t{i}": v for i, v in enumerate(OPT_T, start=1)},
            "theta": 0.25, "c": 0.5},
}


@pytest.fixture(scope="module")
def resolver_targets():
    return {
        "free": va.gen_linear_vi(4, 1, 0.05)[0],
        "orthant": va.gen_linear_vi(4, 1, 0.05, constrained=True)[0],
        "quadratic": va.gen_quadratic(4, 2, 0.05),
    }


@pytest.mark.parametrize("case", ["table", "paper-default", "none", "explicit"])
@pytest.mark.parametrize("method", va.METHODS)
def test_build_method_resolves_presets_defaults_and_coefficients(
        method, case, resolver_targets):
    opt = method == "opt-extra-point"
    cases = [("quadratic", va.REGIME_OPT)] if opt else [
        ("free", va.REGIME_VI_UNRESTRICTED), ("orthant", va.REGIME_VI_RESTRICTED)]
    for kind, regime in cases:
        target = resolver_targets[kind]
        # explicit VI coefficients are those of the method's mask
        explicit = EXPLICIT["opt"] if opt else {
            k: v for k, v in EXPLICIT["vi"].items() if k in VI_MASKS[method]}
        spec = MethodSpec(name=method,
                          preset=case if case in va.PRESETS else None,
                          params=dict(explicit) if case == "explicit" else {})
        plan = build_method(spec, target)
        params, got_regime = plan.params, plan.cert and plan.cert.regime
        if case == "table":
            want, want_regime = va.table_preset(method, target), None
        elif case == "explicit":
            want_regime = None
            want = va.OptParams(t=OPT_T, theta=0.25, c=0.5) \
                if opt else va.ViParams(**explicit)
        else:
            want = va.default_params(regime, target.mu, target.lip)
            certified = method in ("extra-point", "opt-extra-point")
            want_regime = regime if certified else None
        assert params == want, (kind, case)
        assert got_regime == want_regime, (kind, case)


def test_opt_paper_default_takes_delta(resolver_targets):
    target = resolver_targets["quadratic"]
    for preset in (None, "paper-default"):
        spec = MethodSpec(name="opt-extra-point", preset=preset,
                          params={"delta": 0.3})
        plan = build_method(spec, target)
        params, regime = plan.params, plan.cert and plan.cert.regime
        assert params == va.default_params(va.REGIME_OPT, target.mu,
                                           target.lip, delta=0.3)
        assert regime == va.REGIME_OPT


def test_explicit_opt_coefficients_take_no_delta(tmp_path, capsys):
    prob_path = tmp_path / "q.txt"
    assert main(["generate", "--kind", "quadratic", "--n", "4",
                 "--out", str(prob_path)]) == 0
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_path), "--method",
               "opt-extra-point", "--t", ",".join(map(str, OPT_T)),
               "--theta", "0.25", "--c", "0.5", "--delta", "0.9",
               "--out-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert "error: explicit opt coefficients take no delta" in \
        capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("method, flags, outside", [
    ("vanilla", ["--alpha", "0.01", "--tau", "5", "--beta", "3"], "beta, tau"),
    ("nesterov", ["--alpha", "0.01", "--beta", "0.1", "--gamma", "0.9"],
     "gamma"),
    ("extra-gradient", ["--alpha", "0.01", "--eta", "0.01", "--tau", "0.1"],
     "tau"),
    ("ogda", ["--alpha", "0.01", "--tau", "0.001", "--gamma", "0.1"], "gamma"),
    ("heavy-ball", ["--alpha", "0.01", "--gamma", "0.1", "--eta", "0.1"],
     "eta")])
def test_coefficients_outside_a_methods_mask_return_two(method, flags, outside,
                                                        tmp_path, capsys):
    prob_path = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["solve", "--problem", str(prob_path), "--method", method,
               *flags, "--out-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert f"error: {method} does not take {outside} " \
        f"(it takes {', '.join(VI_MASKS[method])})" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT.replace(
        "method.1.preset = table", "method.1.alpha = 0.01\nmethod.1.tau = 5"))
    rc = main(["compare", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert "error: vanilla does not take tau (it takes alpha)" in \
        capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv", [
    ["--regime", "opt", "--theta", "0.5"],
    ["--regime", "opt", "--alpha", "0.01"],
    ["--regime", "vi-unrestricted", "--t", "1,2,3,4,5,6,7,8,9"],
    ["--regime", "vi-unrestricted", "--delta", "0.3"],
    ["--regime", "vi-unrestricted", "--beta", "0.01"],
    ["--regime", "vi-restricted", "--preset", "paper-default",
     "--alpha", "0.01"],
    ["--regime", "opt", "--preset", "paper-default",
     "--t", ",".join(map(str, OPT_T)), "--theta", "0.25", "--c", "0.5"],
    ["--regime", "opt", "--t", ",".join(map(str, OPT_T)), "--theta", "0.25",
     "--c", "0.5", "--delta", "0.5"],
])
def test_certify_rejects_coefficients_it_would_not_use(argv, capsys):
    rc = main(["certify", "--mu", "1", "--lip", "16", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and "error:" in captured.err


def test_preset_with_coefficients_returns_two(tmp_path, capsys):
    prob_path = _gen(tmp_path)
    capsys.readouterr()
    for preset in ("table", "paper-default"):
        rc = main(["solve", "--problem", str(prob_path), "--method",
                   "extra-point", "--preset", preset, "--alpha", "0.01",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "takes no coefficients" in capsys.readouterr().err
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT + "method.1.alpha = 0.01\n")
    assert main(["compare", "--config", str(cfg_path)]) == 2


def _csv_without_elapsed(path):
    return [row.rsplit(",", 1)[0] for row in path.read_text().splitlines()]


def test_solve_without_coefficients_runs_certified_paper_default(tmp_path,
                                                                 capsys):
    prob_path = _gen(tmp_path, sigma="0.3")
    outputs = {}
    for name, preset in (("bare", []), ("preset", ["--preset", "paper-default"])):
        capsys.readouterr()
        rc = main(["solve", "--problem", str(prob_path), "--method",
                   "extra-point", *preset, "--max-iter", "300", "--strict",
                   "--out-dir", str(tmp_path / name)])
        assert rc == 0
        outputs[name] = (capsys.readouterr().out,
                         _csv_without_elapsed(tmp_path / name / "extra-point.csv"))
    assert outputs["bare"] == outputs["preset"]
    assert "e-" in outputs["bare"][0].splitlines()[1].split()[-1]  # certified


def test_compare_without_preset_runs_paper_default(tmp_path, capsys):
    rc = main(["compare", "--n", "6", "--methods", "vanilla,extra-point",
               "--max-iter", "50", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "vanilla.csv").exists()


@pytest.mark.xfail(strict=True, reason=(
    "the paper-default opt run from x0 = v0 = 1 with y = p contracts the "
    "potential by 0.972 at step 0 against the certified rate 0.9"))
def test_opt_paper_default_certificate_holds_on_quadratic_n12_seed2(tmp_path,
                                                                   capsys):
    path = tmp_path / "quad.txt"
    va.write_problem(path, va.gen_quadratic(12, 2, 1e-2))
    rc = main(["solve", "--problem", str(path), "--method", "opt-extra-point",
               "--preset", "paper-default", "--max-iter", "200", "--strict",
               "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0


# --- config keys ----------------------------------------------------------------------

def test_config_missing_a_generator_key_returns_two(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT.replace("problem.n = 8\n", ""))
    rc = main(["compare", "--config", str(cfg_path)])
    assert rc == 2
    assert "problem.n" in capsys.readouterr().err
    for kind, need in (("quadratic", "target_sigma"), ("logistic", "lam"),
                       ("bilinear-saddle", "nx")):
        with pytest.raises(ValueError, match=f"problem.{need}"):
            build_problem({"kind": kind, "n": 3, "seed": 0, "num_samples": 2})


def test_config_with_another_kinds_problem_keys_returns_two(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT + "problem.lam = 0.3\nproblem.nx = 4\n")
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(cfg_path), "--out-dir", str(out)])
    assert rc == 2
    assert "problem.lam, problem.nx" in capsys.readouterr().err
    assert not out.exists()
    for spec in ({"kind": "quadratic", "n": 3, "seed": 0, "target_sigma": 0.1,
                  "constrained": False},
                 {"kind": "logistic", "n": 3, "seed": 0, "num_samples": 2,
                  "lam": 0.1, "mu_x": 1.0},
                 {"file": "p.txt", "kind": "linear-vi"}):
        with pytest.raises(ValueError, match="does not take"):
            build_problem(spec)


@pytest.mark.parametrize("key", ["stop.tolerance", "output.dir",
                                 "problem.size", "problem.sigma"])
def test_config_rejects_unknown_section_keys(key):
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(f"method.1.name = vanilla\n{key} = 1\n")


@pytest.mark.parametrize("entry", [
    "problem.n = 4.7", "problem.n = true", "problem.seed = one",
    "problem.constrained = no", "problem.constrained = 1",
    "problem.target_sigma = true", "problem.target_sigma = small",
    "stop.max_iter = 2.9", "stop.max_iter = false", "stop.tol = tight",
    "stop.tol = true", "output.thinning = 1.5", "method.1.max_iter = 2.9",
    "method.1.tol = false", "method.1.alpha = true", "method.2.t1 = x"])
def test_config_values_of_the_wrong_type_return_two(entry, tmp_path, capsys):
    key = entry.split(" = ")[0]
    lines = [line for line in CONFIG_TEXT.splitlines()
             if not line.startswith(key + " =")]
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("\n".join(lines + [entry]) + "\n")
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(cfg_path), "--out-dir", str(out)])
    assert rc == 2
    assert f"error: {key} must be " in capsys.readouterr().err
    assert not out.exists()


def test_config_float_keys_take_integers(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT.replace("stop.max_iter = 3000",
                                            "stop.max_iter = 20")
                        .replace("stop.tol = 1e-06", "stop.tol = 0")
                        .replace("problem.target_sigma = 0.05",
                                 "problem.target_sigma = 1"))
    assert main(["compare", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "vanilla.csv").read_text().splitlines()
    assert len(rows) == 22  # the header and iterations 0..20
    assert build_problem({"kind": "quadratic", "n": 3, "seed": 0,
                          "target_sigma": 1}).sigma == 1.0


@pytest.mark.parametrize("directory", ["007", "true", "1e3", "-0"])
def test_config_text_keys_keep_their_text(directory, tmp_path, monkeypatch,
                                          capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(
        CONFIG_TEXT.replace("stop.max_iter = 3000", "stop.max_iter = 20")
        + f"output.directory = {directory}\n")
    cfg = parse_config((tmp_path / "exp.cfg").read_text())
    assert cfg.output["directory"] == directory
    assert main(["compare", "--config", "exp.cfg"]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {directory, "exp.cfg"}
    assert (tmp_path / directory / "vanilla.csv").exists()


@pytest.mark.parametrize("key", ["method.x.name", "method.1e0.tol",
                                 "method..name"])
def test_config_method_index_must_be_an_integer(key, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT + f"{key} = vanilla\n")
    assert main(["compare", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert f"error: {key}" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("lines, key", [
    ("stop.max_iter = 5\nstop.max_iter = 7\n", "stop.max_iter"),
    ("stop.max_iter = 3000\n", "stop.max_iter"),  # the same value again
    ("problem.n = 8\n", "problem.n"),
    ("method.2.preset = table\n", "method.2.preset"),
    ("method.3.name = ogda\nmethod.3.alpha = 0.1\nmethod.3.alpha = 0.2\n",
     "method.3.alpha"),
    ("method.01.name = ogda\n", "method.01.name")])  # index 01 is index 1
def test_config_key_given_twice_returns_two(lines, key, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT + lines)
    with pytest.raises(ValueError, match=f"^config key {key} is given twice$"):
        parse_config(cfg_path.read_text())
    assert main(["compare", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert f"error: config key {key} is given twice" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_readme_config_example_parses_to_what_it_says():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### compare"):]
    start = section.index("```text\n") + len("```text\n")
    cfg = parse_config(section[start:section.index("```", start)])
    assert cfg.stop == {"max_iter": 3000, "tol": 1e-6}
    assert cfg.output == {"directory": "runs", "formats": "csv"}
    assert [(m.name, m.preset) for m in cfg.methods] == [
        ("vanilla", "table"), ("extra-point", "paper-default")]


def test_compare_config_honours_out_dir_even_when_it_is_the_cwd(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(CONFIG_TEXT.replace(
        "stop.max_iter = 3000", "stop.max_iter = 20") + "output.directory = cfg\n")
    assert main(["compare", "--config", "exp.cfg", "--out-dir", "."]) == 0
    assert (tmp_path / "vanilla.csv").exists()
    assert not (tmp_path / "cfg").exists()


# --- README contract ------------------------------------------------------------------

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_commands():
    """Each viaccel command of the README's sh blocks, with the exit code its
    comment documents: 3 where the comment says it exits 3, else 0."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        comment = ""
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("#"):
                comment += line
            elif line.startswith("viaccel "):
                commands.append((shlex.split(line)[1:],
                                 3 if "exits 3" in comment else 0))
                comment = ""
    return commands


def test_readme_cli_examples_give_their_documented_exit_codes(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    section = README[README.index("### compare"):]
    start = section.index("```text\n") + len("```text\n")
    (tmp_path / "experiment.txt").write_text(
        section[start:section.index("```", start)])
    commands = _readme_commands()
    assert {argv[0] for argv, _ in commands} == {
        "generate", "certify", "solve", "compare"}
    assert 3 in {code for _, code in commands}
    for argv, code in commands:
        assert main(argv) == code, argv


def test_readme_names_each_kinds_flags_and_defaults():
    sentence = README.split("Kinds: ")[1].split(". ")[0]
    flags = {kind: re.findall(r"`(--[a-z-]+)`", group)
             for kind, group in re.findall(r"`([a-z-]+)` \(([^)]*)\)",
                                           sentence)}
    assert flags == {kind: [option(key) for key in types]
                     for kind, (_, types) in KINDS.items()}
    documented = {}
    for listing in re.findall(r"takes (?:its|the same) default: (.*?)(?:;|\.\s)",
                              README, re.S):
        documented.update(re.findall(r"`(--[a-z-]+) ([^`]+)`", listing))
    assert documented == {option(key): str(value)
                          for key, value in DEFAULTS.items()}


def test_readme_config_value_types_are_the_key_types():
    paragraph = " ".join(README[README.index("Values are typed."):]
                         .split("\n\n")[0].split())
    for name, typ in (("integer", int), ("boolean", bool), ("number", float)):
        listing = re.search(rf"{name} keys? \(([^)]*)\)", paragraph).group(1)
        assert set(re.findall(r"`(\w+)`", listing)) == \
            {key for key, t in KEY_TYPES.items() if t is typ}, name


def test_readme_config_keys_are_the_tables_keys():
    paragraph = README[README.index("Each section takes only its own keys"):]
    paragraph = " ".join(paragraph[:paragraph.index("\n\n")].split())
    generator = paragraph.split("the generator keys ")[1].split(";")[0]
    assert tuple(re.findall(r"`(\w+)`", generator)) == \
        SECTION_KEYS["problem"][1:]
    for section in ("stop", "output"):
        assert tuple(re.findall(rf"`{section}\.(\w+)`", paragraph)) == \
            SECTION_KEYS[section]
    listing = paragraph.split("its generator's keys (")[1].split(")")[0]
    for entry in listing.split("; "):
        kind, keys = entry.split(": ")
        required, _, optional = keys.partition("optional ")
        gen, types = KINDS[kind.strip("`")]
        defaults = {key: param.default is not param.empty for key, param in
                    zip(types, inspect.signature(gen).parameters.values())}
        assert re.findall(r"`(\w+)`", required) == \
            [k for k in types if not defaults[k]]
        assert re.findall(r"`(\w+)`", optional) == \
            [k for k in types if defaults[k]]


def test_readme_lists_the_ids_certify_prints(monkeypatch):
    """Every id a certifier prints under violated or guideline_flags, over
    a seeded sweep of parameters (theta-window by an emptied window), is
    the README's list for its regime, and no other id is listed."""
    section = README[README.index("The constraint ids each regime prints"):]
    listed = {regime: set(re.findall(r"`([a-z0-9-]+)`", ids)) for regime, ids
              in re.findall(r"^- `([a-z-]+)`: ((?:.|\n  )*)", section, re.M)}
    guideline = section[section.index("under\n`guideline_flags`"):]
    guideline = set(re.findall(r"`(guideline-[a-z-]+)`", guideline))

    def printed(cert, field):
        line = next(ln for ln in cert.to_text().splitlines()
                    if ln.startswith(f"{field} = "))
        return set(filter(None, line.split(" = ")[1].split(",")))

    rng = np.random.default_rng(0)
    vi_values = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0])
    violated = {regime: set() for regime in va.REGIMES}
    flags = {regime: set() for regime in va.REGIMES}
    for regime in va.REGIMES:
        for _ in range(500):
            if regime == va.REGIME_OPT:
                params = va.OptParams(
                    t=rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], 9),
                    theta=rng.choice([0.25, 1.0]), c=rng.choice([0.5, 2.0]))
            else:
                params = va.ViParams(*rng.choice(vi_values, 5))
            cert = C.certify(regime, 1.0, rng.choice([1.0, 16.0]), params)
            violated[regime] |= printed(cert, "violated")
            flags[regime] |= printed(cert, "guideline_flags")
    monkeypatch.setattr(C, "theta_interval", lambda a, b: (b, a))
    for regime in (va.REGIME_VI_UNRESTRICTED, va.REGIME_VI_RESTRICTED):
        cert = C.certify(regime, 1.0, 16.0, va.default_params(regime, 1.0, 16.0))
        violated[regime] |= printed(cert, "violated")
    assert violated == listed
    assert flags == {va.REGIME_VI_UNRESTRICTED: guideline,
                     va.REGIME_VI_RESTRICTED: guideline, va.REGIME_OPT: set()}

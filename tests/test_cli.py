"""Command-line surface: exit codes, outputs, and experiment configs."""

import numpy as np
import pytest

import viaccel as va
from viaccel.cli import (ExperimentConfig, MethodSpec, main, parse_config,
                         serialize_config)

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
    for kind, extra in (("quadratic", []),
                        ("logistic", ["--num-samples", "2", "--lam", "0.005"]),
                        ("bilinear-saddle", ["--nx", "3", "--ny", "4"])):
        path = tmp_path / f"{kind}.txt"
        rc = main(["generate", "--kind", kind, "--n", "6", "--seed", "0",
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
    header = csv_path.open().readline().strip()
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


def test_compare_iters_at_tol_is_filled_on_logistic_instances(tmp_path, capsys):
    rc = main(["compare", "--kind", "logistic", "--n", "5", "--seed", "3",
               "--num-samples", "20", "--methods", "opt-extra-point",
               "--preset", "table", "--tol", "1e-8", "--out-dir", str(tmp_path)])
    row = _table_row(capsys.readouterr().out, "opt-extra-point")
    assert rc == 0 and row["status"] == "tolerance"
    assert row["iters@tol"].isdigit()

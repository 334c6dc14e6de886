"""A pin on everything the CLI shows: one SHA-256 over a fixed corpus of
commands, each hashed with its argv, exit code, stdout, stderr and the bytes
of every file it writes.

Each command runs in a fresh directory of its own and names every path
relative to it, so no absolute path reaches the hash; the problem files the
first commands generate are shared with the later ones as ../p/<name>. The
wall-clock elapsed_ns field is dropped from written traces. The traces are
float bits, so the digest holds for the numpy build and CPU it was recorded
on (numpy 2 on x86-64). When it moves, compare command_digests() before and
after a change to find the commands whose output moved.

Commands whose output a change means to move stay out of the corpus and get
tests of their own: an infeasible certificate with --theta-default or
--gap/--tol, an experiment whose later method is refused by run's
preconditions, a stop flag out of range, the table preset of
opt-extra-point on an instance whose mu is too large for it, and an
experiment that names one method twice (MOVED).
"""

import contextlib
import hashlib
import io
import re
from pathlib import Path

from viaccel.cli import main
from viaccel.solvers import METHODS, VI_METHODS

DIGEST = "d33f6b8186bf532a53f9406b4eb7bfc26c47b54dbca8dac52f615629e32d0f41"

PROBLEMS = {  # shared file -> the generate flags that make it
    "lin": ["--kind", "linear-vi", "--n", "6", "--seed", "1", "--sigma", "0.05"],
    "orth": ["--kind", "linear-vi", "--n", "6", "--seed", "1", "--sigma",
             "0.05", "--constrained"],
    "quad": ["--kind", "quadratic", "--n", "6", "--seed", "2", "--sigma", "0.05"],
    "logi": ["--kind", "logistic", "--n", "4", "--num-samples", "3", "--seed",
             "1", "--lam", "0.05"],
    "bil": ["--kind", "bilinear-saddle", "--nx", "3", "--ny", "3", "--seed", "1"],
}
STOP = ["--max-iter", "60", "--tol", "1e-8"]
EXPLICIT = {  # coefficients of each mask, for solve with explicit flags
    "vanilla": ["--alpha", "0.02"],
    "extra-gradient": ["--alpha", "0.03", "--eta", "0.03"],
    "ogda": ["--alpha", "0.02", "--tau", "0.01"],
    "heavy-ball": ["--alpha", "0.015", "--gamma", "0.03"],
    "nesterov": ["--alpha", "0.01", "--beta", "0.2"],
    "extra-point": ["--alpha", "0.03", "--beta", "0.1", "--gamma", "0.1",
                    "--eta", "0.03", "--tau", "0.005"],
    "opt-extra-point": ["--t", "0.9,0.1,0.5,0.03,6,7,0.8,0.2,0.05",
                        "--theta", "0.05", "--c", "0.5"],
}
CONFIG = """\
problem.kind = linear-vi
problem.n = 5
problem.seed = 3
problem.target_sigma = 0.05
problem.constrained = true
method.1.name = vanilla
method.1.preset = table
method.2.name = extra-point
method.3.name = ogda
method.3.alpha = 0.01
method.3.tau = 0.001
method.3.max_iter = 40
method.4.name = heavy-ball
method.4.preset = table
method.4.tol = 1e-3
stop.max_iter = 80
stop.tol = 1e-06
output.directory = out
output.formats = csv,jsonl
output.thinning = 3
"""
OPT_CONFIG = """\
problem.file = ../p/quad.problem
method.1.name = opt-extra-point
method.2.name = opt-extra-point
method.2.t1 = 0.9
method.2.t2 = 0.1
method.2.t3 = 0.5
method.2.t4 = 0.03
method.2.t5 = 6
method.2.t6 = 7
method.2.t7 = 0.8
method.2.t8 = 0.2
method.2.t9 = 0.05
method.2.theta = 0.05
method.2.c = 0.5
method.3.name = extra-gradient
method.3.preset = table
stop.max_iter = 50
"""


def _certify_commands():
    cmds = []
    for regime in ("vi-unrestricted", "vi-restricted", "opt"):
        base = ["certify", "--regime", regime]
        for mu, lip in (("1", "10"), ("0.01", "1"), ("1", "1000"),
                        ("1e-3", "1e5")):
            cmds.append(base + ["--mu", mu, "--lip", lip, "--preset",
                                "paper-default"])
            cmds.append(base + ["--mu", mu, "--lip", lip])
            cmds.append(base + ["--mu", mu, "--lip", lip, "--gap", "1",
                                "--tol", "1e-8"])
        mulip = ["--mu", "1", "--lip", "10"]
        cmds += [base + mulip + ["--gap", "1"],
                 base + mulip + ["--gap", "-1", "--tol", "1e-3"],
                 base + ["--mu", "1e-200", "--lip", "10"],
                 base + mulip + ["--preset", "paper-default", "--alpha", "0.1"]]
        if regime == "opt":
            cmds += [base + mulip + ["--delta", "0.3"],
                     base + mulip + ["--preset", "paper-default", "--delta",
                                     "0.3", "--gap", "10", "--tol", "1e-6"],
                     base + ["--mu", "1", "--lip", "16"] + EXPLICIT[
                         "opt-extra-point"],
                     base + mulip + EXPLICIT["opt-extra-point"] + [
                         "--delta", "0.3"],
                     base + mulip + ["--t", "1,2,3"],
                     base + mulip + ["--alpha", "0.1"],
                     base + mulip + ["--theta-default", "0.1"]]
        else:
            cmds += [base + mulip + ["--theta-default", "0.0001"],
                     base + mulip + ["--theta-default", "0.01"],
                     base + mulip + ["--theta-default", "0.01", "--gap",
                                     "1", "--tol", "1e-8"],
                     base + mulip + ["--theta-default", "5"],
                     base + mulip + ["--alpha", "0.0125", "--eta", "0.0125"],
                     base + mulip + ["--alpha", "0.0125", "--eta", "0.0125",
                                     "--gap", "2", "--tol", "1e-4"],
                     base + mulip + ["--alpha", "0.5", "--eta", "0.5"],
                     base + mulip + ["--alpha", "1", "--eta", "1e-155"],
                     base + mulip + ["--eta", "0.1"],
                     base + mulip + ["--theta", "0.1"]]
    return cmds


def _solve_commands():
    cmds = []
    for name in PROBLEMS:
        problem = ["--problem", f"../p/{name}.problem"]
        for method in METHODS:
            for preset in ([], ["--preset", "paper-default"],
                           ["--preset", "table"]):
                cmds.append(["solve", *problem, "--method", method, *preset,
                             *STOP])
            if name in ("lin", "quad"):
                cmds.append(["solve", *problem, "--method", method,
                             *EXPLICIT[method], *STOP])
    lin = ["solve", "--problem", "../p/lin.problem"]
    cmds += [
        lin + ["--method", "extra-point", "--formats", "csv,jsonl",
               "--thinning", "7", "--out-dir", "runs/a"] + STOP,
        lin + ["--method", "ogda", "--formats", "jsonl", "--max-iter", "0"],
        lin + ["--method", "extra-point", "--preset", "paper-default",
               "--strict", "--max-iter", "300", "--tol", "1e-12"],
        lin + ["--method", "vanilla", "--alpha", "5", "--strict"],
        lin + ["--method", "vanilla", "--alpha", "5"],
        lin + ["--method", "extra-point", "--tol", "0", "--max-iter", "30"],
        lin + ["--method", "extra-point"],
        lin + ["--method", "extra-gradient", "--alpha", "0.01"],
        lin + ["--method", "vanilla", "--alpha", "0.01", "--beta", "3"],
        lin + ["--method", "vanilla", "--preset", "table", "--alpha", "0.1"],
        lin + ["--method", "vanilla", "--formats", "xml"],
        lin + ["--method", "vanilla", "--thinning", "0"],
        lin + ["--method", "nope"],
        ["solve", "--problem", "missing.problem", "--method", "vanilla"],
        ["solve", "--problem", "../p/quad.problem", "--method",
         "opt-extra-point", "--delta", "0.3"] + STOP,
        ["solve", "--problem", "../p/quad.problem", "--method",
         "opt-extra-point", "--preset", "paper-default", "--strict"] + STOP,
        ["solve", "--problem", "../p/dr.problem", "--method", "nesterov",
         "--alpha", "0.01", "--beta", "0.2"],
        ["solve", "--problem", "../p/dr.problem", "--method", "nesterov",
         "--alpha", "0.01"] + STOP,
        ["solve", "--problem", "../p/dr.problem", "--method", "extra-point"]
        + STOP,
        ["solve", "--problem", "../p/dr.problem", "--method", "nesterov",
         "--preset", "table"] + STOP,
    ]
    return cmds


def _compare_commands():
    vi = ",".join(VI_METHODS)
    lin = ["--kind", "linear-vi", "--n", "5", "--seed", "2", "--sigma", "0.05"]
    cmds = []
    for flags in (lin, lin + ["--constrained"], ["--problem", "../p/lin.problem"],
                  ["--problem", "../p/orth.problem"],
                  ["--problem", "../p/bil.problem"]):
        for preset in ([], ["--preset", "paper-default"], ["--preset", "table"]):
            cmds.append(["compare", *flags, "--methods", vi, *preset, *STOP])
    for flags in (["--kind", "quadratic", "--n", "5", "--seed", "4"],
                  ["--problem", "../p/quad.problem"],
                  ["--problem", "../p/logi.problem"]):
        for preset in ([], ["--preset", "paper-default"], ["--preset", "table"]):
            cmds.append(["compare", *flags, "--methods", ",".join(METHODS),
                         *preset, *STOP])
    cmds += [
        ["compare", *lin, "--methods", "vanilla,extra-point", "--formats",
         "csv,jsonl", "--thinning", "4", "--out-dir", "o"] + STOP,
        ["compare", *lin, "--methods", "extra-point,ogda", "--preset",
         "table", "--strict", "--max-iter", "2000"],
        ["compare", "--kind", "quadratic", "--n", "12", "--seed", "2",
         "--methods", "opt-extra-point", "--preset", "paper-default",
         "--max-iter", "30"],
        ["compare", "--kind", "quadratic", "--n", "12", "--seed", "2",
         "--methods", "opt-extra-point", "--preset", "paper-default",
         "--max-iter", "30", "--strict"],
        ["compare", "--kind", "bilinear-saddle", "--nx", "2", "--ny", "3",
         "--mu-x", "0.5", "--methods", "extra-point,ogda", *STOP],
        ["compare", "--kind", "logistic", "--n", "3", "--lam", "0.1",
         "--methods", "opt-extra-point,vanilla", *STOP],
        ["compare", *lin, "--methods", "vanilla,opt-extra-point", "--preset",
         "table", "--out-dir", "o"],
        ["compare", *lin, "--methods", "vanilla,nope", "--out-dir", "o"],
        ["compare", "--kind", "bilinear-saddle", "--methods", "vanilla",
         "--preset", "table", "--out-dir", "o"],
        ["compare", *lin, "--methods", "vanilla", "--formats", "csv,xml"],
        ["compare", "--kind", "quadratic", "--n", "4", "--constrained",
         "--methods", "vanilla"],
        ["compare", "--problem", "../p/lin.problem", "--n", "4", "--methods",
         "vanilla"],
        ["compare", *lin],
        ["compare", "--methods", "vanilla", "--kind", "linear-vi", "--n", "3",
         "--max-iter", "5"],
        ["compare", "--problem", "../p/dr.problem", "--methods",
         "extra-point,ogda,vanilla", "--preset", "table", *STOP],
        ["compare", "--problem", "../p/dr.problem", "--methods",
         "nesterov,vanilla", "--preset", "table", "--out-dir", "o"],
        ["compare", "--config", "exp.cfg"],
        ["compare", "--config", "exp.cfg", "--out-dir", "elsewhere", "--strict"],
        ["compare", "--config", "exp.cfg", "--max-iter", "5"],
        ["compare", "--config", "opt.cfg"],
        ["compare", "--config", "bad.cfg"],
        ["compare", "--config", "twice.cfg"],
        ["compare", "--config", "missing.cfg"],
    ]
    return cmds


def _generate_commands():
    cmds = [["generate", *flags, "--out", f"{name}.problem"]
            for name, flags in PROBLEMS.items()]
    cmds += [
        ["generate", "--kind", "quadratic", "--n", "3", "--seed", "5"],
        ["generate", "--kind", "bilinear-saddle", "--nx", "2", "--ny", "4",
         "--mu-x", "0.3", "--mu-y", "2", "--seed", "7", "--out", "b.txt"],
        ["generate", "--kind", "logistic", "--n", "3", "--out", "l.txt"],
        ["generate", "--n", "4", "--seed", "9", "--sigma", "0.2",
         "--constrained", "--out", "c.txt"],
        ["generate"],
        ["generate", "--kind", "bilinear-saddle", "--n", "50"],
        ["generate", "--kind", "logistic", "--n", "5", "--sigma", "0.5"],
        ["generate", "--kind", "quadratic", "--constrained"],
        ["generate", "--kind", "nope"],
        ["generate", "--n", "3", "--out", "missing/dir/x.problem"],
    ]
    return cmds


# commands the loops above make whose output moved on purpose
MOVED = (["solve", "--problem", "../p/logi.problem", "--method",
          "opt-extra-point", "--preset", "table", *STOP],
         ["compare", "--config", "opt.cfg"])


def corpus():
    """Every command's argv, in run order: the generate commands first, as
    the others read the problem files they write."""
    return [argv for argv in _generate_commands() + _certify_commands()
            + _solve_commands() + _compare_commands() if argv not in MOVED]


INPUTS = {"exp.cfg": CONFIG, "opt.cfg": OPT_CONFIG,
          "bad.cfg": CONFIG + "method.5.step = 2\n",
          "twice.cfg": CONFIG + "stop.max_iter = 7\n"}


def _file_bytes(path: Path) -> bytes:
    """A written file's bytes, less the wall-clock elapsed_ns field."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        return b"".join(line.rsplit(b",", 1)[0] + b"\n"
                        for line in data.splitlines())
    if path.suffix == ".jsonl":
        return re.sub(rb', "elapsed_ns": \d+', b"", data)
    return data


def _run(argv, cwd: Path, monkeypatch) -> bytes:
    """One command's record: argv, exit code, stdout, stderr and the files
    it wrote, as bytes."""
    cwd.mkdir()
    for name, text in INPUTS.items():
        (cwd / name).write_text(text)
    monkeypatch.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    parts = [repr(argv).encode(), str(code).encode(),
             out.getvalue().encode(), err.getvalue().encode()]
    for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
        if path.name not in INPUTS:
            parts += [str(path.relative_to(cwd)).encode(), _file_bytes(path)]
    return b"\0".join(parts)


def command_digests(root: Path, monkeypatch) -> list:
    """Run the corpus under root; the SHA-256 of each command's record."""
    shared = root / "p"
    shared.mkdir()
    digests = []
    for i, argv in enumerate(corpus()):
        cwd = root / f"c{i}"
        digests.append(hashlib.sha256(_run(argv, cwd, monkeypatch)).hexdigest())
        if argv[0] == "generate" and argv[-1].endswith(".problem"):
            if (cwd / argv[-1]).exists():
                (shared / argv[-1]).write_bytes((cwd / argv[-1]).read_bytes())
        if argv[-1] == "orth.problem":
            text = (shared / "orth.problem").read_text()
            (shared / "dr.problem").write_text(text.replace(
                "domain_restricted = false", "domain_restricted = true"))
    return digests


def test_corpus_is_large_and_covers_every_command():
    cmds = corpus()
    assert len(cmds) >= 200
    assert {argv[0] for argv in cmds} == {"generate", "certify", "solve",
                                          "compare"}


def test_cli_output_matches_the_recorded_digest(tmp_path, monkeypatch):
    total = hashlib.sha256()
    for digest in command_digests(tmp_path, monkeypatch):
        total.update(digest.encode())
    assert total.hexdigest() == DIGEST


def test_a_repeated_method_keeps_each_run_under_its_position(tmp_path,
                                                              monkeypatch):
    """opt.cfg names opt-extra-point twice: each of its runs writes
    opt-extra-point.<i>.csv, i its position, with the bytes a solve of that
    method writes; the method named once keeps its plain file name."""
    shared = tmp_path / "p"
    shared.mkdir()
    _run(["generate", *PROBLEMS["quad"], "--out", "../p/quad.problem"],
         tmp_path / "g", monkeypatch)
    record = _run(["compare", "--config", "opt.cfg"], tmp_path / "cfg",
                  monkeypatch)
    assert record.split(b"\0")[1] == b"0"
    runs = {"opt-extra-point.1.csv": [],
            "opt-extra-point.2.csv": EXPLICIT["opt-extra-point"],
            "extra-gradient.csv": ["--preset", "table"]}
    assert sorted(p.name for p in (tmp_path / "cfg").iterdir()
                  if p.name not in INPUTS) == sorted(runs)
    for i, (name, flags) in enumerate(runs.items()):
        method = name.split(".")[0]
        _run(["solve", "--problem", "../p/quad.problem", "--method", method,
              *flags, "--max-iter", "50"], tmp_path / f"s{i}", monkeypatch)
        assert _file_bytes(tmp_path / "cfg" / name) == \
            _file_bytes(tmp_path / f"s{i}" / f"{method}.csv"), name
    table = record.split(b"\0")[2].decode().splitlines()
    assert [row.split()[0] for row in table[1:]] == \
        ["opt-extra-point.1", "opt-extra-point.2", "extra-gradient"]

"""A pin on everything the CLI shows: one SHA-256 per command of a fixed
corpus, over its argv, exit code, stdout, stderr and the bytes of every
file it writes, checked against a committed table (cli_pin.json) keyed by
the command line.

Each command runs in a fresh directory of its own and names every path
relative to it, so no absolute path reaches the hash; the problem files the
first commands generate are shared with the later ones as ../p/<name>. The
wall-clock elapsed_ns field is dropped from written traces. The traces are
float bits, so the table holds for the numpy build and CPU it was recorded
on (numpy 2 on x86-64). A mismatch names every command whose output moved.

A change that moves output on purpose re-records only the entries it means
to move, and the table's diff shows which:

    PYTHONPATH=src python tests/test_cli_pin.py 'solve --problem ...' ...

re-records the named commands (each a key of the table, one shell word),
adds the corpus's commands the table lacks and drops entries no command
makes; run without names, it only adds and drops.
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from viaccel.cli import main
from viaccel.solvers import METHODS, VI_METHODS

TABLE = Path(__file__).with_name("cli_pin.json")

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
                        "--c", "0.5"],
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
method.2.c = 0.5
method.3.name = extra-gradient
method.3.preset = table
stop.max_iter = 50
"""

SMALL = """\
problem.kind = linear-vi
problem.n = 3
problem.seed = 1
problem.target_sigma = 0.1
method.1.name = vanilla
stop.max_iter = 5
"""
CONFIGS = {  # config file -> its text: SMALL with a comment, or one fault
    "comment.cfg": "# a comment, then a blank line\n\n" + SMALL,
    "line.cfg": SMALL + "stop.tol 1e-3\n",
    "index.cfg": SMALL + "method.x.name = ogda\n",
    "key.cfg": SMALL + "problem.colour = red\n",
    "nomethod.cfg": SMALL.replace("method.1.name = vanilla\n", ""),
    "noname.cfg": SMALL + "method.2.preset = table\n",
    "nokey.cfg": SMALL.replace("problem.seed = 1\n", ""),
    "kind.cfg": SMALL.replace("linear-vi", "nope"),
    "preset.cfg": SMALL + "method.1.preset = fancy\n",
    "type.cfg": SMALL.replace("max_iter = 5", "max_iter = 2.5"),
    "tol.cfg": SMALL + "method.1.tol = -1\n",
}
SADDLE = """\
vi-accel-problem v1
class = monotone-vi
kind = bilinear-saddle
n = 2
mu = 1
lip = 1.2
seed = 1
domain_restricted = false
feasible_set = whole-space
meta.mu_x = 1
meta.mu_y = 1
meta.nx = 1
meta.ny = 1
begin solution
0 0
end solution
begin meta.bilinear
0.5
end meta.bilinear
"""
QUADRATIC = """\
vi-accel-problem v1
class = smooth-objective
kind = quadratic
n = 3
mu = 1
lip = 2
begin minimizer
0 0
end minimizer
begin meta.hessian
1 0 0
0 2 0
0 0 1
end meta.hessian
begin meta.linear
0 0 0
end meta.linear
"""
PROBLEM_FILES = {  # problem file -> its text: SADDLE, or it with one fault
    "saddle.problem": SADDLE,
    "header.problem": SADDLE.split("\n", 1)[1],
    "word-row.problem": SADDLE.replace("0.5\n", "half\n"),
    "ragged.problem": SADDLE.replace("0 0\n", "0 0\n0\n"),
    "unterminated.problem": SADDLE.replace("end meta.bilinear\n", ""),
    "line.problem": SADDLE + "one more line\n",
    "twice.problem": SADDLE + "seed = 1\n",
    "kind.problem": SADDLE.replace("kind = bilinear-saddle", "kind = nope"),
    "entry.problem": SADDLE + "meta.colour = 1\n",
    "class.problem": SADDLE.replace("class = monotone-vi",
                                    "class = smooth-objective"),
    "set.problem": SADDLE.replace("whole-space", "ball"),
    "nolip.problem": SADDLE.replace("lip = 1.2\n", ""),
    "n0.problem": SADDLE.replace("n = 2", "n = 0"),
    "nan.problem": SADDLE.replace("mu = 1\n", "mu = nan\n"),
    "shape.problem": SADDLE.replace("0.5\n", "0.5 0.5\n"),
    "solution.problem": SADDLE.replace("0 0\n", "0 0 0\n"),
    "minimizer.problem": QUADRATIC,  # its minimizer has 2 of n = 3 numbers
}
WIDE_STATUS = [  # compare commands whose status column outgrows 10 wide
    ["compare", "--kind", "quadratic", "--n", "3", "--sigma", "1",
     "--methods", "opt-extra-point", "--max-iter", "5"],
    ["compare", "--kind", "quadratic", "--n", "3", "--sigma", "1",
     "--methods", "opt-extra-point,vanilla"],
]

# commands whose float arithmetic overflows on the way: a target below the
# scale floor, constants whose power iteration or estimate would overflow
# unscaled, and an iteration bound past the float range
OVERFLOWING_GENERATE = [
    ["generate", "--kind", "linear-vi", "--n", "3", "--seed", "0", "--sigma",
     "1e-200"],
    ["generate", "--kind", "logistic", "--n", "3", "--num-samples", "2",
     "--seed", "0", "--lam", "1e300"],
    ["generate", "--kind", "bilinear-saddle", "--nx", "2", "--ny", "2",
     "--seed", "0", "--mu-x", "1e300", "--mu-y", "1e-300"],
]
OVERFLOWING_BOUND = ["certify", "--regime", "vi-unrestricted", "--mu", "1",
                     "--lip", "1", "--alpha", "1e-310", "--eta", "1e-12",
                     "--gap", "1", "--tol", "0.5"]


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
    opt = ["certify", "--regime", "opt", "--mu", "1", "--lip", "10"]
    cmds += [opt + EXPLICIT["opt-extra-point"][:-2],  # all but --c
             opt + ["--delta", "1.5"],
             ["certify", "--regime", "vi-unrestricted", "--mu", "1", "--lip",
              "10", "--alpha", "0.5", "--eta", "0.5", "--gap", "1", "--tol",
              "1e-8"],
             OVERFLOWING_BOUND]
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
        lin + ["--method", "vanilla", "--max-iter", "-1"],
    ]
    cmds += [["solve", "--problem", name, "--method", "vanilla", "--max-iter",
              "5"] for name in PROBLEM_FILES]
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
        *WIDE_STATUS,
        *(["compare", "--config", name] for name in CONFIGS),
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
        ["generate", "--n", "1"],
        ["generate", "--sigma", "0"],
        ["generate", "--kind", "logistic", "--num-samples", "0"],
        ["generate", "--kind", "logistic", "--lam", "0"],
        ["generate", "--kind", "bilinear-saddle", "--nx", "0"],
        ["generate", "--kind", "bilinear-saddle", "--mu-x", "0"],
        *OVERFLOWING_GENERATE,
    ]
    return cmds


def corpus():
    """Every command's argv, in run order: the generate commands first, as
    the others read the problem files they write."""
    return (_generate_commands() + _certify_commands() + _solve_commands()
            + _compare_commands())


def key(argv) -> str:
    """A command's entry in the table: its command line."""
    return shlex.join(argv)


INPUTS = {"exp.cfg": CONFIG, "opt.cfg": OPT_CONFIG,
          "bad.cfg": CONFIG + "method.5.step = 2\n",
          "twice.cfg": CONFIG + "stop.max_iter = 7\n",
          **CONFIGS, **PROBLEM_FILES}


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


def command_digests(root: Path, monkeypatch) -> dict:
    """Run the corpus under root; each command's key -> the SHA-256 of its
    record, in run order."""
    shared = root / "p"
    shared.mkdir()
    digests = {}
    for i, argv in enumerate(corpus()):
        cwd = root / f"c{i}"
        digests[key(argv)] = hashlib.sha256(
            _run(argv, cwd, monkeypatch)).hexdigest()
        if argv[0] == "generate" and argv[-1].endswith(".problem"):
            if (cwd / argv[-1]).exists():
                (shared / argv[-1]).write_bytes((cwd / argv[-1]).read_bytes())
        if argv[-1] == "orth.problem":
            text = (shared / "orth.problem").read_text()
            (shared / "dr.problem").write_text(text.replace(
                "domain_restricted = false", "domain_restricted = true"))
    return digests


def record(names=()) -> None:
    """Re-record the table entries named (keys), add the corpus's commands
    the table lacks and drop entries no command makes; every other entry
    keeps its recorded digest."""
    table = json.loads(TABLE.read_text())
    unknown = set(names) - {key(argv) for argv in corpus()}
    if unknown:
        raise ValueError(f"no command in the corpus has key {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as root, \
            pytest.MonkeyPatch.context() as monkeypatch:
        digests = command_digests(Path(root), monkeypatch)
    table = {k: d if k in names or k not in table else table[k]
             for k, d in digests.items()}
    TABLE.write_text(json.dumps(table, indent=0) + "\n")


def test_corpus_is_large_and_covers_every_command():
    cmds = corpus()
    assert len(cmds) >= 200
    assert {argv[0] for argv in cmds} == {"generate", "certify", "solve",
                                          "compare"}
    assert len({key(argv) for argv in cmds}) == len(cmds)  # one entry each


def test_readme_gives_the_tables_size():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    count = re.search(r"runs a corpus of\s+(\d+) `generate`", readme).group(1)
    assert int(count) == len(json.loads(TABLE.read_text()))


def test_cli_output_matches_the_recorded_table(tmp_path, monkeypatch):
    table = json.loads(TABLE.read_text())
    digests = command_digests(tmp_path, monkeypatch)
    moved = [k for k, d in digests.items() if table.get(k, d) != d]
    missing = [k for k in digests if k not in table]
    stale = [k for k in table if k not in digests]
    assert not (moved or missing or stale), "\n".join(
        [f"{len(moved)} commands moved:", *moved,
         f"{len(missing)} commands have no entry:", *missing,
         f"{len(stale)} entries match no command:", *stale])


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


@pytest.mark.parametrize("argv", WIDE_STATUS, ids=key)
def test_summary_values_end_under_their_headers(argv, tmp_path, monkeypatch):
    """A status over 10 wide widens its column: each status starts under
    its header, and each right-aligned value ends where its header does."""
    out = _run(argv, tmp_path / "c", monkeypatch).split(b"\0")[2].decode()
    header, *rows = out.splitlines()
    ends = {m.end() for m in list(re.finditer(r"\S+", header))[2:]}
    assert rows
    for row in rows:
        words = list(re.finditer(r"\S+", row))
        assert words[1].start() == header.index("status"), row
        assert {m.end() for m in words[2:]} <= ends, row


@pytest.mark.parametrize("argv, code", [
    *zip(OVERFLOWING_GENERATE, (0, 0, 0)), (OVERFLOWING_BOUND, 0)],
    ids=[key(argv) for argv in (*OVERFLOWING_GENERATE, OVERFLOWING_BOUND)])
def test_an_overflow_on_the_way_keeps_the_documented_exit(argv, code,
                                                           tmp_path,
                                                           monkeypatch):
    """No traceback and no numpy warning (an error under pytest): the tiny
    target is floored, the lip of 1e300 is recorded and estimated finite,
    and the bound is printed in full."""
    record = _run(argv, tmp_path / "c", monkeypatch).split(b"\0")
    assert record[1] == str(code).encode()
    assert (b"need 0 < mu <= lip < inf" in record[3]) == (code == 2)


if __name__ == "__main__":
    record(sys.argv[1:])

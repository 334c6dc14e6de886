"""Seeded fuzzing of the config format and of the CLI's malformed inputs."""

import argparse
import math
import random
import re

import pytest

import oracles
import viaccel as va
import viaccel.certify as C
import viaccel.problems as P
from viaccel.core import format_float
from viaccel.cli import (DEFAULTS, KEY_TYPES, KINDS, OPT_PARAM_KEYS,
                         SECTION_KEYS, VI_PARAM_KEYS, ExperimentConfig,
                         MethodSpec, build_problem, main, make_parser, option,
                         parse_config)
from viaccel.solvers import VI_MASKS

# text values, some of which would read as a number or a boolean
WORDS = ("linear-vi", "quadratic", "csv,jsonl", "runs/out", "x_y", "007",
         "1e3", "true", "-0")
# small magnitudes only: a corrupted size must not ask for a huge instance
BAD_VALUES = ("", "nan", "inf", "-inf", "-1", "0", "0.5", "3", "1e-300",
              "true", "abc", "1,2")
EXIT_CODES = (0, 2, 3, 4)

CONFIG = """\
problem.kind = linear-vi
problem.n = 4
problem.seed = 1
problem.target_sigma = 0.05
problem.constrained = true
method.1.name = vanilla
method.1.preset = table
method.2.name = extra-point
method.3.name = ogda
method.3.alpha = 0.01
method.3.tau = 0.001
method.3.max_iter = 40
stop.max_iter = 60
stop.tol = 1e-06
output.directory = out
output.formats = csv,jsonl
output.thinning = 2
"""


def _number(rng):
    while True:
        value = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)
        if not value.is_integer():
            return value


def _value(rng, typ):
    """A random value of a config key's type."""
    if typ is int:
        return rng.randrange(-10 ** 6, 10 ** 6)
    if typ is float:
        return _number(rng)
    if typ is bool:
        return rng.random() < 0.5
    return rng.choice(WORDS)


def _random_config(rng):
    sections = {name: {k: _value(rng, KEY_TYPES.get(k, str)) for k in keys
                       if rng.random() < 0.5}
                for name, keys in SECTION_KEYS.items()}
    methods = [MethodSpec(
        name=rng.choice(va.METHODS),
        preset=rng.choice((None,) + va.PRESETS),
        params={k: _number(rng) for k in VI_PARAM_KEYS + OPT_PARAM_KEYS
                if rng.random() < 0.3},
        max_iter=rng.choice((None, rng.randrange(10 ** 6))),
        tol=rng.choice((None, abs(_number(rng)))))
        for _ in range(rng.randint(1, 4))]
    return ExperimentConfig(methods=methods, **sections)


@pytest.mark.parametrize("seed", range(200))
def test_parse_config_reads_back_random_configs(seed):
    cfg = _random_config(random.Random(seed))
    assert parse_config(oracles.config_text(cfg)) == cfg


@pytest.mark.parametrize("seed", range(40))
def test_configs_with_a_repeated_key_return_two(seed, tmp_path, monkeypatch,
                                                capsys):
    rng = random.Random(3000 + seed)
    cfg = _random_config(rng)
    lines = oracles.config_text(cfg).splitlines()
    key = rng.choice(lines).split(" = ")[0]
    field = key.split(".")[-1]
    value = _value(rng, float if field in VI_PARAM_KEYS + OPT_PARAM_KEYS
                   else KEY_TYPES.get(field, str))
    # the key again, with a value of its type as the config writer renders it
    lines.insert(rng.randrange(len(lines) + 1),
                 f"{key} = {oracles.value_text(value)}")
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError, match=f"^config key {key} is given twice$"):
        parse_config(text)
    monkeypatch.chdir(tmp_path)  # random output directories stay inside
    (tmp_path / "exp.cfg").write_text(text)
    assert main(["compare", "--config", "exp.cfg"]) == 2
    assert f"error: config key {key} is given twice" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def _corrupt(text, rng):
    """Delete, truncate or re-value one line, or insert a junk line."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    action = rng.randrange(4)
    if action == 0:
        del lines[i]
    elif action == 1:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    elif action == 2:
        words = lines[i].split(" ")
        words[rng.randrange(len(words))] = rng.choice(BAD_VALUES)
        lines[i] = " ".join(words)
    else:
        lines.insert(i, rng.choice(BAD_VALUES + ("a = b", "begin x")))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(60))
def test_corrupted_configs_exit_with_a_documented_code(seed, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # corrupted output directories stay inside
    path = tmp_path / "exp.cfg"
    path.write_text(_corrupt(CONFIG, random.Random(seed)))
    assert main(["compare", "--config", str(path)]) in EXIT_CODES


@pytest.mark.parametrize("key", ["problem.n", "method.3.max_iter",
                                 "stop.max_iter", "output.thinning"])
def test_infinite_integer_entries_return_two(key, tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{key} = inf\n" if line.startswith(f"{key} =")
                            else line for line in CONFIG.splitlines(True)))
    assert main(["compare", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


# a small instance of each problem kind, as its generator keys
SMALL = {"linear-vi": dict(n=4, seed=1, target_sigma=0.05, constrained=True),
         "quadratic": dict(n=4, seed=2, target_sigma=0.05),
         "logistic": dict(n=3, num_samples=2, lam=0.01, seed=0),
         "bilinear-saddle": dict(nx=2, ny=3, seed=1)}


@pytest.fixture(scope="module")
def problem_texts():
    return {kind: va.serialize_problem(build_problem({"kind": kind, **keys}))
            for kind, keys in SMALL.items()}


@pytest.mark.parametrize("kind", list(P.KINDS))
def test_problem_text_round_trip_is_identity_for_every_kind(kind,
                                                            problem_texts):
    text = problem_texts[kind]
    problem = P.parse_problem(text)
    assert P.serialize_problem(problem) == text
    # the generator records exactly the kind's meta entries, so all are written
    generated = build_problem({"kind": kind, **SMALL[kind]})
    assert {f"meta.{key}" for key in generated.meta} == \
        {name for name in P.schema(kind) if name.startswith("meta.")}


def _entries(text):
    """A problem file's entries after its header line: each `name = value`
    line, or each block from begin to end, as a list of lines."""
    lines, entries = text.splitlines()[1:], []
    while lines:
        head = lines[0]
        end = lines.index(f"end {head[len('begin '):]}") + 1 \
            if head.startswith("begin ") else 1
        entries.append(lines[:end])
        lines = lines[end:]
    return entries


@pytest.mark.parametrize("seed", range(40))
def test_problem_files_with_a_repeated_or_unknown_entry_return_two(
        seed, problem_texts, tmp_path, capsys):
    rng = random.Random(4000 + seed)
    kind = rng.choice(list(P.KINDS))
    entries = _entries(problem_texts[kind])
    action = rng.randrange(4)
    if action == 0:  # an entry again: a line with a value of its type, or a block
        entry = rng.choice(entries)
        name = entry[0].split(" = ")[0].removeprefix("begin ")
        form = P.schema(kind)[name]
        if len(entry) == 1:
            entry = [f"{name} = {oracles.value_text(_value(rng, form))}"]
        error = f"problem file entry {name} is given twice"
    else:
        name = rng.choice({1: ("mu_hat", "meta.lambda", "meta.n", "lower"),
                           2: ("lower", "center", "meta.other", "meta.lam_"),
                           3: ("domain_restrictd",)}[action])
        entry = [f"begin {name}", "1 2", f"end {name}"] if action == 2 else \
            [f"{name} = {rng.choice(('true', '1', '0.5', 'x'))}"]
        error = f"unknown entry {name} in a {kind} problem file"
    entries.insert(rng.randrange(len(entries) + 1), entry)
    text = "\n".join([P.FORMAT_HEADER, *(ln for e in entries for ln in e)])
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        P.parse_problem(text)
    path = tmp_path / "prob.txt"
    path.write_text(text + "\n")
    rc = main(["solve", "--problem", str(path), "--method", "extra-point",
               "--max-iter", "5", "--out-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("method, kind", [
    pytest.param("extra-point", "linear-vi", id="extra-point"),
    pytest.param("opt-extra-point", "quadratic", id="opt-extra-point"),
    pytest.param("extra-point", "bilinear-saddle",
                 id="extra-point-bilinear-saddle"),
    pytest.param("opt-extra-point", "logistic", id="opt-extra-point-logistic")])
def test_corrupted_problem_files_exit_with_a_documented_code(
        method, kind, seed, problem_texts, tmp_path, capsys):
    path = tmp_path / "prob.txt"
    path.write_text(_corrupt(problem_texts[kind], random.Random(seed)))
    rc = main(["solve", "--problem", str(path), "--method", method,
               "--max-iter", "60", "--strict", "--out-dir", str(tmp_path)])
    assert rc in EXIT_CODES


# small, well-conditioned values for every problem flag (None: a switch)
FLAG_VALUES = {"n": (2, 3, 5), "seed": (0, 7, 41), "target_sigma": (0.05, 0.3),
               "constrained": None, "num_samples": (2, 6), "lam": (0.01, 0.1),
               "nx": (1, 3), "ny": (2, 4), "mu_x": (0.5, 2.0),
               "mu_y": (0.25, 1.0)}


def _problem_flags(rng):
    """A random kind (or none, the default) and a random subset of the
    problem flags, most of them the kind's own: (kind, {key: value}, argv)."""
    kind = rng.choice(list(KINDS) + [None])
    argv = [] if kind is None else ["--kind", kind]
    kind = kind or DEFAULTS["kind"]
    given = {}
    for key, values in FLAG_VALUES.items():
        if rng.random() < (0.5 if key in KINDS[kind][1] else 0.08):
            given[key] = True if values is None else rng.choice(values)
            argv += [option(key)] + ([] if values is None else [str(given[key])])
    return kind, given, argv


def _written(problem, key):
    """What a problem file records for a generator key."""
    if key == "n":
        return problem.dimension
    if key == "seed":
        return problem.seed
    if key == "num_samples":
        return problem.meta["data"].shape[0]
    return problem.meta[key]


@pytest.mark.parametrize("seed", range(60))
def test_generate_takes_exactly_its_kinds_flags(seed, tmp_path, capsys):
    kind, given, argv = _problem_flags(random.Random(seed))
    path = tmp_path / "p.txt"
    rc = main(["generate", *argv, "--out", str(path)])
    types = KINDS[kind][1]
    assert rc == (0 if set(given) <= set(types) else 2)
    if rc == 2:
        assert list(tmp_path.iterdir()) == []
        return
    problem = va.read_problem(path)
    assert problem.kind == kind
    for key in types:
        if key in given or key in DEFAULTS:
            assert _written(problem, key) == given.get(key, DEFAULTS.get(key))


@pytest.mark.parametrize("seed", range(30))
def test_compare_takes_exactly_its_kinds_flags(seed, tmp_path, capsys):
    kind, given, argv = _problem_flags(random.Random(1000 + seed))
    out = tmp_path / "out"
    rc = main(["compare", *argv, "--methods", "vanilla", "--max-iter", "5",
               "--out-dir", str(out)])
    assert rc == (0 if set(given) <= set(KINDS[kind][1]) else 2)
    assert out.exists() == (rc == 0)


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("problem") / "p.txt"
    va.write_problem(path, va.gen_linear_vi(3, 1, 0.1)[0])
    return path


@pytest.mark.parametrize("seed", range(20))
def test_compare_problem_file_takes_no_generator_flags(seed, problem_file,
                                                       tmp_path, capsys):
    rng = random.Random(2000 + seed)
    _, given, argv = _problem_flags(rng)
    if rng.random() < 0.3:
        argv += ["--kind", rng.choice(list(KINDS))]
    out = tmp_path / "out"
    rc = main(["compare", "--problem", str(problem_file), *argv,
               "--methods", "vanilla", "--max-iter", "5", "--out-dir", str(out)])
    assert rc == (2 if argv else 0)
    assert out.exists() == (rc == 0)
    if rc == 2:
        assert "problem.file does not take" in capsys.readouterr().err


@pytest.fixture(scope="module")
def contract_problems(tmp_path_factory):
    """Problem files of every variant: free, orthant, domain-restricted
    orthant, objective."""
    root = tmp_path_factory.mktemp("contract")
    objective = va.gen_quadratic(4, 2, 0.05)
    free, orthant = (va.gen_linear_vi(4, 1, 0.05, constrained=c)[0]
                     for c in (False, True))
    for name, problem in (("free", free), ("orthant", orthant),
                          ("objective", objective)):
        va.write_problem(root / f"{name}.problem", problem)
    (root / "restricted.problem").write_text(
        (root / "orthant.problem").read_text().replace(
            "domain_restricted = false", "domain_restricted = true"))
    return root


def _method_entries(rng, i, method):
    """A random preset or explicit coefficients for config method i, some
    invalid: a missing or zero entry, a key outside the method's mask."""
    entries = [f"method.{i}.name = {method}"]
    how = rng.choice(["none", *va.PRESETS, "explicit"])
    if how in va.PRESETS:
        entries.append(f"method.{i}.preset = {how}")
    elif how == "explicit" and method == "opt-extra-point":
        keys = OPT_PARAM_KEYS[:10] if rng.random() < 0.7 else \
            rng.sample(OPT_PARAM_KEYS, 3)
        entries += [f"method.{i}.{key} = {rng.choice([0.05, 0.2, 0.5])}"
                    for key in keys]
    elif how == "explicit":
        mask = VI_MASKS[method]
        keys = [k for k in VI_PARAM_KEYS
                if (k in mask and rng.random() < 0.8) or rng.random() < 0.05]
        entries += [f"method.{i}.{key} = {rng.choice([0.0, 0.01, 0.05, 0.3])}"
                    for key in keys]
    return entries, how


@pytest.mark.parametrize("seed", range(80))
def test_compare_runs_every_method_or_none(seed, contract_problems, tmp_path,
                                           monkeypatch, capsys):
    # the experiment contract: exit 0 with every method's trace, or exit 2
    # with none, however a later method is refused
    rng = random.Random(7000 + seed)
    problem = contract_problems / (rng.choice(
        ["free", "orthant", "restricted", "objective"]) + ".problem")
    methods = rng.sample(va.METHODS, rng.randint(1, 4))
    lines = [f"problem.file = {problem}"]
    hows = set()
    for i, method in enumerate(methods, start=1):
        entries, how = _method_entries(rng, i, method)
        lines += entries
        hows.add(how)
    lines += ["stop.max_iter = 30", "output.directory = out"]
    monkeypatch.chdir(tmp_path)
    preset = hows.pop() if len(hows) == 1 else "explicit"
    if preset != "explicit" and rng.random() < 0.5:  # the flag path
        argv = ["--problem", str(problem), "--methods", ",".join(methods),
                "--max-iter", "30", "--out-dir", "out"]
        argv += ["--preset", preset] if preset in va.PRESETS else []
    else:
        (tmp_path / "exp.cfg").write_text("\n".join(lines) + "\n")
        argv = ["--config", "exp.cfg"]
    rc = main(["compare", *argv])
    out = tmp_path / "out"
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert (rc, written) in ((0, sorted(f"{m}.csv" for m in methods)), (2, []))
    assert (rc == 2) == capsys.readouterr().err.startswith("error: ")


def _compare_flags():
    """Every flag of compare, each with a value it accepts."""
    sub = next(a for a in make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [[a.option_strings[0]] + ([] if a.nargs == 0 else
                                      [a.choices[0] if a.choices else "3"])
            for a in sub.choices["compare"]._actions
            if a.option_strings[0].startswith("--")]


@pytest.mark.parametrize("flag", [f for f in _compare_flags() if f[0] not in
                                  ("--config", "--out-dir", "--strict")],
                         ids=lambda f: f[0])
def test_compare_config_takes_no_other_flag(flag, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(CONFIG)
    assert main(["compare", "--config", "exp.cfg", *flag]) == 2
    assert "--config takes only --out-dir and --strict" in \
        capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def _magnitude(rng):
    return format_float(rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 300))


@pytest.mark.parametrize("seed", range(30))
def test_certify_on_extreme_constants_never_raises(seed, capsys):
    rng = random.Random(5000 + seed)
    for _ in range(100):
        argv = ["certify", "--regime", rng.choice(va.REGIMES),
                "--mu", _magnitude(rng), "--lip", _magnitude(rng)]
        if rng.random() < 0.5:
            argv += ["--gap", _magnitude(rng), "--tol", _magnitude(rng)]
        rc = main(argv)  # an exception fails the test
        captured = capsys.readouterr()
        assert rc in (0, 2, 3), argv
        assert (rc == 2) == captured.err.startswith("error: "), argv
        assert ("iteration_bound = " in captured.out) == \
            (rc == 0 and "--gap" in argv), argv


def _coefficient(rng):
    """0, 1, or log-uniform in [1e-300, 1e300], as the CLI reads it."""
    return rng.choice(("0", "1", format_float(10.0 ** rng.uniform(-300, 300))))


@pytest.mark.parametrize("seed", range(30))
def test_certify_on_extreme_coefficients_never_raises(seed, capsys):
    """Explicit coefficients over the float range: exit 0 or 3, or 2
    exactly where the parameter types refuse a value (c = 0)."""
    rng = random.Random(7000 + seed)
    lo, hi = (math.log10(v) for v in C.CONSTANT_RANGE)
    for _ in range(100):
        regime = rng.choice(va.REGIMES)
        mu = 10.0 ** rng.uniform(lo, hi)
        lip = mu * 10.0 ** rng.uniform(0.0, hi - math.log10(mu))
        argv = ["certify", "--regime", regime, "--mu", format_float(mu),
                "--lip", format_float(min(lip, 10.0 ** hi))]
        keys = OPT_PARAM_KEYS[9:10] if regime == va.REGIME_OPT \
            else VI_PARAM_KEYS
        values = {key: _coefficient(rng) for key in keys}
        refused = False
        if regime == va.REGIME_OPT:
            values["t"] = ",".join(_coefficient(rng) for _ in range(9))
            try:
                va.OptParams(t=[float(v) for v in values["t"].split(",")],
                             c=float(values["c"]))
            except ValueError:
                refused = True
        for key, value in values.items():
            argv += [f"--{key}", value]
        rc = main(argv)  # an exception fails the test
        captured = capsys.readouterr()
        assert (rc == 2) if refused else (rc in (0, 3)), argv
        assert (rc == 2) == captured.err.startswith("error: "), argv

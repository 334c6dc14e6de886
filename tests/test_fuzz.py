"""Seeded fuzzing of the config format and of the CLI's malformed inputs."""

import argparse
import random

import pytest

import viaccel as va
from viaccel.cli import (DEFAULTS, KEY_TYPES, KINDS, OPT_PARAM_KEYS,
                         SECTION_KEYS, VI_PARAM_KEYS, ExperimentConfig,
                         MethodSpec, main, make_parser, option, parse_config,
                         serialize_config)

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
def test_config_round_trip_is_identity_on_random_configs(seed):
    cfg = _random_config(random.Random(seed))
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


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


@pytest.fixture(scope="module")
def problem_texts():
    return {
        "extra-point": va.serialize_problem(
            va.gen_linear_vi(4, 1, 0.05, constrained=True)[0]),
        "opt-extra-point": va.serialize_problem(va.gen_quadratic(4, 2, 0.05)),
    }


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("method", ["extra-point", "opt-extra-point"])
def test_corrupted_problem_files_exit_with_a_documented_code(
        method, seed, problem_texts, tmp_path, capsys):
    path = tmp_path / "prob.txt"
    path.write_text(_corrupt(problem_texts[method], random.Random(seed)))
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

"""Seeded fuzzing of the config format and of the CLI's malformed inputs."""

import random

import pytest

import viaccel as va
from viaccel.cli import (OPT_PARAM_KEYS, SECTION_KEYS, VI_PARAM_KEYS,
                         ExperimentConfig, MethodSpec, main, parse_config,
                         serialize_config)

WORDS = ("linear-vi", "quadratic", "csv,jsonl", "runs/out", "x_y")
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


def _value(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-10 ** 6, 10 ** 6)
    if kind == 1:
        return _number(rng)
    if kind == 2:
        return rng.random() < 0.5
    return rng.choice(WORDS)


def _random_config(rng):
    sections = {name: {k: _value(rng) for k in keys if rng.random() < 0.5}
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

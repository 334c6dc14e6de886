"""The benchmark driver runs on the library as it stands."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_perfbench(tmp_path, *args):
    # a short seed-0 run: the benchmark calls the library by name and
    # checks each run; on the host whose fingerprint perfbench/digests.json
    # records, a changed instance or trace bit is a failed check too. The
    # driver runs from a copy, with src linked in, so its record lands in
    # tmp_path and not over a measured run's record in the checkout.
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), *args,
         "--seed", "0", "--seconds", "0.1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout
    assert last["attempted"] > 0


def test_perfbench_table_n20_passes_every_check(tmp_path):
    _run_perfbench(tmp_path, "--workload", "table-n20", "--trace", "1")
    assert (tmp_path / ".perfbench" / "spans-table-n20.npz").is_file()


def test_perfbench_generate_sweep_passes_every_check(tmp_path):
    # the only check of the pinned linear-VI bits at n = 100 and 200 and
    # of the saddle's and the logistic objective's power-iteration lip
    _run_perfbench(tmp_path, "--workload", "generate-sweep")


def test_perfbench_certified_n1000_passes_every_check(tmp_path):
    # the only pin on the n = 1000 saddle's and the n = 500 quadratic's
    # traces, the dense operator calls' step path
    _run_perfbench(tmp_path, "--workload", "certified-n1000")

"""The benchmark driver runs on the library as it stands."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_table_n20_passes_every_check(tmp_path):
    # a short traced seed-0 run: the benchmark calls the library by name and
    # checks each run; on the host whose fingerprint perfbench/digests.json
    # records, a changed instance or trace bit is a failed check too. The
    # driver runs from a copy, with src linked in, so its record lands in
    # tmp_path and not over a measured run's record in the checkout.
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "table-n20", "--seed", "0", "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout
    assert last["attempted"] > 0
    assert (tmp_path / ".perfbench" / "spans-table-n20.npz").is_file()

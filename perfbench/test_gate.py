"""The benchmark's correctness gate is not vacuous.

    python3 -m pytest perfbench/test_gate.py

A maps run with the ``invert-wo-iii`` mutation installed must be reported
as failed, with no timings, and a copy of the benchmark without finlat's
sources must refuse to run.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

HERE = Path(__file__).resolve().parent


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=170,
    )


def test_mutated_maps_run_is_reported_failed_not_timed():
    proc = _run(HERE / "run.py", "--workload", "maps", "--seed", "0",
                "--seconds", "1", "--trace", "0", "--mutation", "invert-wo-iii")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["attempted"] >= result["failed"]
    assert result["metrics"] == {}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / HERE.name / "run.py", "--workload", "maps", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

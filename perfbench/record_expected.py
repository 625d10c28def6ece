"""Record the verdict digests that every benchmark run is checked against.

    python3 perfbench/record_expected.py

Runs each workload's fixed gate and the whole CLI catalogue once and writes
expected.json next to this file.  Re-record only when a change is meant to
alter verdicts or output bytes, and say so in the change description.
"""

import json
from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    expected = {}
    for cls in workloads.WORKLOADS.values():
        workload = cls(0, ROOT, {})
        try:
            workload.setup()
            expected.update(workload.fingerprints())
        finally:
            workload.close()
    workloads.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % workloads.EXPECTED_PATH)


if __name__ == "__main__":
    main()

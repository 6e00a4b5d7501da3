"""Write reference.json: the output digests every benchmark pass is checked
against.  Runs one pass of each workload, in list order, on the checked-out
code, so run it only on a commit whose outputs are known to be right:

    python3 perfbench/record_reference.py
"""

import argparse
import json
import shutil
import tempfile
import time

from run import BENCH, ROOT, RUN_LIMIT_S, spawn


def main():
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    reference = {}
    tmp = tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT)
    try:
        for name in workloads:
            args = argparse.Namespace(workload=name, seed=0)
            _, result, _ = spawn("record", args, tmp, 0, 1, time.monotonic() + RUN_LIMIT_S)
            if result["failed"]:
                raise SystemExit(f"{name}: {result['failures']}")
            reference.update(result["reference"])
    finally:
        shutil.rmtree(tmp)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (BENCH / "reference.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(reference)} digests")


if __name__ == "__main__":
    main()

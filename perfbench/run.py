"""Benchmark of the semicolor command line, one workload per call.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from a checkout holding ``src/semicolor``.  Each workload (see
workloads.json) is a fixed list of ``semicolor`` commands, called in-process
through ``semicolor.cli.main`` by a fresh single-threaded child process
(child.py), in a closed loop with one client.  The seed only shuffles the
command order of each pass.  Every output is checked against the digests in
reference.json.

``--trace 0`` prints the end-to-end metrics pass_cost (the median over
passes of pass time over the mean time of a fixed reference chunk run
during that pass; see child.ReferenceSampler), peak_rss_mib and setup_s,
and, for people, wall_s (the median pass), wall_s_tail and wall_s_best.
``--trace 1`` runs the same workload untraced and then traced, half the
time each, and prints the per-layer metrics of tracing.PER_LAYER,
tracing_overhead_s included.  The last line of stdout is one JSON object;
the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Every run must end within 180 s; children are killed at this deadline.
RUN_LIMIT_S = 170.0
# A child starts no command later than this before the deadline.
LIMIT_MARGIN_S = 40.0
# Set-ups measured per untraced run besides the measuring child's own.
SETUP_PROBES = 11
# An untraced run measures at least this many passes, so that its fastest
# pass and its median come from several.
MIN_PASSES = 3
TAIL_BEYOND = 10

sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(mode: str, args, tmp: Path, seconds: float, min_passes: int, deadline: float):
    """Run child.py once.  Returns (set-up seconds, result or None, peak RSS in KiB)."""
    work = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=tmp))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    argv = [
        sys.executable, str(BENCH / "child.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--min-passes", str(min_passes),
        "--dir", str(work), "--limit", str(max(deadline - time.monotonic() - LIMIT_MARGIN_S, 0)),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=work, env=env)
    try:
        ready = None
        if select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))[0]:
            if proc.stdout.readline().strip() == b"ready":
                ready = time.perf_counter() - start
        status, rusage = _wait(proc, deadline)
    finally:
        if proc.returncode is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None or status != 0:
        raise HarnessError(f"{mode} child for {args.workload} failed (exit status {status})")
    result_path = work / "result.json"
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else None
    if mode == "traced":
        result["spans"] = json.loads((work / "spans.json").read_text(encoding="utf-8"))
    shutil.rmtree(work)
    return ready, result, rusage.ru_maxrss


def _wait(proc, deadline):
    """Reap the child with os.wait4, which also gives its own resource usage."""
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the pass-time tail: the
    highest percentile, at least p90, with TAIL_BEYOND samples above it.
    Runs hold fewer passes than that needs, and then the tail is the
    maximum, with no sample beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n - TAIL_BEYOND >= 0.9 * n else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def untraced(args, tmp, deadline):
    setups = [spawn("setup", args, tmp, 0, 0, deadline)[0] for _ in range(SETUP_PROBES)]
    ready, result, rss_kib = spawn("run", args, tmp, args.seconds, MIN_PASSES, deadline)
    setups.append(ready)
    passes = result["passes"]
    value, pct, beyond = tail(passes)
    chunk_s = [c or result["reference_all_s"] for c in result["reference_s"]]
    metrics = {
        "pass_cost": {"value": statistics.median(p / c for p, c in zip(passes, chunk_s)), "unit": "ratio"},
        "peak_rss_mib": {"value": rss_kib / 1024, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    notes = [
        f"wall_s {statistics.median(passes):.6g} s: median of {len(passes)} passes of "
        f"{result['commands_per_pass']} commands",
        f"wall_s_tail {value:.6g} s: p{pct:.0f} of {len(passes)} passes, {beyond} samples beyond it",
        f"wall_s_best {min(passes):.6g} s: the fastest of the {len(passes)} passes",
        f"pass_cost: median of {len(passes)} passes over the mean reference chunk of each "
        f"(run mean {result['reference_all_s']:.6g} s)",
        f"setup_s: median of {len(setups)} set-ups",
    ]
    return metrics, notes, [result]


def traced(args, tmp, deadline):
    half = args.seconds / 2
    _, plain, _ = spawn("run", args, tmp, half, 1, deadline)
    _, result, _ = spawn("traced", args, tmp, half, 1, deadline)
    values, repeats = tracing.per_layer(result["spans"], len(result["passes"]))
    values["tracing_overhead_s"] = statistics.median(result["passes"]) - statistics.median(plain["passes"])
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _, _ in tracing.PER_LAYER}
    notes = [
        f"untraced: {len(plain['passes'])} passes, traced: {len(result['passes'])} passes",
        f"counts repeat exactly across traced passes: {repeats}",
    ]
    return metrics, notes, [plain, result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the child is killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "semicolor" / "__init__.py").is_file():
        print(f"error: no semicolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        metrics, notes, results = (traced if args.trace else untraced)(args, tmp, deadline)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    untouched = all(r["bindings_untouched"] for r in results)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ({failed} failed of {attempted} commands)")
    print(f"  items per pass: {results[-1]['items_per_pass']} (all as expected: {failed == 0})")
    for note in notes:
        print(f"  {note}")
    if not untouched:
        print("  semicolor bindings were left patched")
    for r in results:
        for failure in r["failures"]:
            print(f"  FAILED {failure['id']}: {failure['why']}")
    print(json.dumps({
        "correct": failed == 0 and untouched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

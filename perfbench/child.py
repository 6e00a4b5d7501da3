"""One workload in one fresh process: set up, then run passes of the
workload's commands through ``semicolor.cli.main``, closed loop, one client.

run.py starts this file with PYTHONPATH pointing at the checkout's ``src``.
It prints ``ready`` on stdout once set-up is done, then writes
``result.json`` (and, when traced, ``spans.json``) into ``--dir``.

Modes: ``setup`` stops after set-up; ``run`` measures untraced; ``traced``
measures with a Tracer installed; ``record`` runs one pass in list order and
writes the output digests that become ``reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import re
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 30.0

SUITE_TIME = re.compile(r"\(\d+\.\d+s\)")


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout


def load_workload(name: str) -> dict:
    return json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"][name]


def _fill(argv, places):
    out = []
    for arg in argv:
        for key, value in places.items():
            arg = arg.replace(key, value)
        out.append(arg)
    return out


class Command:
    def __init__(self, cid: str, argv: list[str], items: int):
        self.id = cid
        self.argv = argv
        self.items = items
        self.outputs = [argv[i + 1] for i, a in enumerate(argv) if a == "--out"]


def run_command(main, cmd: Command, timeout: float):
    """Run one command in-process.  Returns (seconds, rc, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(cmd.argv)
    except CommandTimeout:
        error = f"timed out after {timeout:.0f} s"
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception as exc:  # a raising command is a failed command; the loop goes on
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if err.getvalue() and error is None and rc != 0:
        error = err.getvalue().strip().splitlines()[-1]
    return seconds, rc, out.getvalue(), error


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def collect(cmd: Command, rc, stdout: str, places: dict[str, str]):
    """Digest of a command's outputs, its item count and its output bytes.
    Removes the output files so that the next pass cannot reuse them."""
    text = stdout
    for key, value in places.items():
        text = text.replace(value, key)
    text = SUITE_TIME.sub("(x.xxs)", text)
    files = {}
    size = len(stdout.encode())
    data = {}
    for path in cmd.outputs:
        p = Path(path)
        if p.is_file():
            data[p.name] = p.read_bytes()
            files[p.name] = _sha(data[p.name])
            size += len(data[p.name])
            p.unlink()
        else:
            files[p.name] = None
    digest = {"rc": rc, "stdout": _sha(text.encode()), "files": files}
    return digest, items_of(cmd, stdout, data), size


def items_of(cmd: Command, stdout: str, data: dict[str, bytes]) -> int | None:
    lines = stdout.splitlines()
    kind = cmd.argv[0]
    try:
        if kind == "enumerate":
            count, word = lines[-1].split()
            return int(count) if word == "semiperfect" else None
        if kind == "subgroups":
            return json.loads(next(iter(data.values())))["count"]
        if kind == "verify":
            if lines[-1] != "all suites passed":
                return None
            return sum(int(n) for n in re.findall(r": (\d+) checks", stdout))
        if kind == "table1":
            return len(lines) - 1
        if kind == "render":
            return 1 if all(data.get(Path(p).name) for p in cmd.outputs) else None
        if kind == "conjugate":
            json.loads(stdout[: stdout.index("\ndomain,")])
            return 1
    except (IndexError, ValueError, StopIteration, KeyError):
        return None
    return None


def setup(main, workload: dict, dirs: dict[str, str]) -> dict[str, list[Path]]:
    """Run the set-up commands and write one spec file per census entry."""
    specs: dict[str, list[Path]] = {}
    for step in workload["setup"]:
        cmd = Command(step["id"], _fill(step["argv"], dirs), step["items"])
        _, rc, stdout, error = run_command(main, cmd, COMMAND_TIMEOUT_S)
        census = Path(cmd.outputs[0])
        if rc != 0 or error or items_of(cmd, stdout, {census.name: b""}) != cmd.items:
            raise SystemExit(f"set-up command {cmd.id} failed: rc={rc} {error or ''}")
        entries = json.loads(census.read_text(encoding="utf-8"))["entries"]
        paths = []
        for i, entry in enumerate(entries):
            path = Path(dirs["{setup}"]) / f"{step['specs']}_{i:03d}.json"
            path.write_text(json.dumps(entry["spec"], sort_keys=True), encoding="utf-8")
            paths.append(path)
        specs[step["specs"]] = paths
    return specs


def expand(workload: dict, specs: dict[str, list[Path]], dirs: dict[str, str]) -> list[Command]:
    commands = []
    for entry in workload["commands"]:
        if "each_spec" not in entry:
            commands.append(Command(entry["id"], _fill(entry["argv"], dirs), entry["items"]))
            continue
        for path in specs[entry["each_spec"]]:
            places = dict(dirs, **{"{spec}": str(path), "{name}": path.stem})
            commands.append(Command(f"{entry['id']}:{path.stem}", _fill(entry["argv"], places), entry["items"]))
    return commands


# The reference runs every REFERENCE_EVERY_S of the child's CPU time.
REFERENCE_EVERY_S = 0.25
REFERENCE_CLOSURES = 14


def reference_chunk() -> None:
    """Fixed pure-Python work unrelated to semicolor: closures of the
    symmetric group S_6 under two generators, as tuples in a set (about
    25 ms on a 2-vCPU Xeon VM).  Its working set (about 100 KiB) is small
    beside the workloads' peak RSS, so running it mid-command barely moves
    that peak."""
    n = 6
    gens = (tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n)))
    for _ in range(REFERENCE_CLOSURES):
        seen = {tuple(range(n))}
        frontier = list(seen)
        while frontier:
            grown = []
            for p in frontier:
                for g in gens:
                    q = tuple(p[i] for i in g)
                    if q not in seen:
                        seen.add(q)
                        grown.append(q)
            frontier = grown
        if len(seen) != 720:
            raise AssertionError("reference closed to the wrong group order")


class ReferenceSampler:
    """Runs reference_chunk from a SIGPROF handler, interleaved with the
    commands, so that it meets the same host speed as they do at the same
    moments.  The host this benchmark was built on runs the same Python up
    to 1.7 times slower at random, changing within a tenth of a second and
    in phases of minutes; pass time divided by the mean chunk time of the
    same pass follows semicolor and not the host.  ``spent`` is the time
    all chunks took, which measure() takes out of the command times."""

    def __init__(self):
        self.chunks: list[float] = []
        self.spent = 0.0
        self.running = False

    def start(self):
        self.running = True
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S)

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _tick(self, signum, frame):
        # Garbage collection would charge the chunk for the commands' heap.
        enabled = gc.isenabled()
        gc.disable()
        done = False
        start = time.perf_counter()
        try:
            reference_chunk()
            done = True
        finally:
            seconds = time.perf_counter() - start
            self.spent += seconds
            if done:  # a command timeout can cut a chunk short
                self.chunks.append(seconds)
            if enabled:
                gc.enable()
            if self.running:
                signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S)


def measure(main, commands, args, reference, tracer, sampler=None) -> dict:
    """Passes of the whole command list, each in a seeded order, until the
    next pass would end after ``--seconds`` (at least ``--min-passes``).
    With a sampler, pass times leave out its chunks, and each pass records
    the mean chunk time it saw (None if no chunk ran during it)."""
    rng = random.Random(args.seed)
    passes, pass_chunks, walls, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    if sampler:
        sampler.start()
    while True:
        first = len(sampler.chunks) if sampler else 0
        began = time.perf_counter()
        order = list(range(len(commands)))
        if args.mode != "record":
            rng.shuffle(order)
        pass_s = 0.0
        for i in order:
            cmd = commands[i]
            attempted += 1
            timeout = min(COMMAND_TIMEOUT_S, start + args.limit - time.perf_counter())
            if timeout <= 0:
                failures.append({"id": cmd.id, "why": "not started: run time limit reached"})
                continue
            if tracer:
                tracer.pass_no, tracer.command = len(passes), cmd.id
                span = tracer.open("cli.main")
            spent = sampler.spent if sampler else 0.0
            seconds, rc, stdout, error = run_command(main, cmd, timeout)
            if sampler:
                seconds -= sampler.spent - spent
            if tracer:
                tracer.close(span)
            pass_s += seconds
            digest, items, size = collect(cmd, rc, stdout, args.places)
            if tracer:
                tracer.spans[span][6] = size
            if args.mode == "record":
                reference[cmd.id] = digest
            why = error or _mismatch(cmd, rc, digest, items, reference)
            if why:
                failures.append({"id": cmd.id, "why": why})
        passes.append(pass_s)
        chunks = sampler.chunks[first:] if sampler else []
        pass_chunks.append(statistics.fmean(chunks) if chunks else None)
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if args.mode == "record" or elapsed >= args.limit or (failures and elapsed >= args.seconds):
            break
        if len(passes) >= args.min_passes and elapsed + statistics.median(walls) > args.seconds:
            break
    if sampler:
        sampler.stop()
    return {
        "passes": passes,
        "reference_s": pass_chunks,
        "reference_all_s": statistics.fmean(sampler.chunks) if sampler and sampler.chunks else None,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "items_per_pass": sum(c.items for c in commands),
        "commands_per_pass": len(commands),
    }


def _mismatch(cmd, rc, digest, items, reference) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if items != cmd.items:
        return f"{items} items, expected {cmd.items}"
    want = reference.get(cmd.id)
    if want is None:
        return "no reference digest"
    if digest != want:
        return "output differs from the reference"
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument(
        "--limit", type=float, default=130.0,
        help="start no command after this many seconds of measuring, even if commands hang",
    )
    parser.add_argument("--mode", choices=["setup", "run", "traced", "record"], required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    import semicolor.cli

    import tracing

    work = Path(args.dir)
    dirs = {"{out}": str(work / "out"), "{setup}": str(work / "setup"), "{inputs}": str(BENCH / "inputs")}
    for key in ("{out}", "{setup}"):
        Path(dirs[key]).mkdir()
    workload = load_workload(args.workload)
    commands = expand(workload, setup(semicolor.cli.main, workload, dirs), dirs)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    args.places = dirs
    reference = {}
    if args.mode != "record":
        reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    before = tracing.bindings()
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    try:
        sampler = ReferenceSampler() if args.mode == "run" else None
        result = measure(semicolor.cli.main, commands, args, reference, tracer, sampler)
    finally:
        if tracer:
            tracer.uninstall()
    after = tracing.bindings()
    result["bindings_untouched"] = (
        before.keys() == after.keys()
        and all(after[k] is before[k] for k in before)
        and tracing.unpatched()
    )
    if args.mode == "record":
        result["reference"] = reference
    if tracer:
        (work / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

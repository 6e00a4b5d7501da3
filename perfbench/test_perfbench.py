"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import argparse
import json
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import semicolor.cli  # noqa: E402
from semicolor.groups import build_dihedral, whole_group  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

COMMANDS = (
    ("enumerate-d6", ["enumerate", "--group", "dihedral:6", "--out", "{out}/d6.json"], 25),
    ("verify-p4m1", ["verify", "--group", "p4m_quotient:1"], 399),
)


def _measure(tmp_path, tracer=None):
    dirs = {"{out}": str(tmp_path)}
    commands = [child.Command(cid, child._fill(argv, dirs), items) for cid, argv, items in COMMANDS]
    args = argparse.Namespace(seed=0, seconds=0, min_passes=1, limit=60, mode="record", places=dirs)
    return child.measure(semicolor.cli.main, commands, args, {}, tracer)


def test_untraced_run_leaves_every_binding_the_original_object(tmp_path):
    before = tracing.bindings()
    result = _measure(tmp_path)
    assert result["failed"] == 0, result["failures"]
    after = tracing.bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracing.unpatched()


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = tracing.bindings()
    # Modules that imported a name hold their own binding of it.
    assert ("semicolor.cli", "generating_words") in before
    assert ("semicolor.verify", "type1_cells") in before
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr) in before:
            module = sys.modules.get(owner) or sys.modules["semicolor.census"].Census
            assert hasattr(getattr(module, attr), "__perfbench_span__"), (owner, attr)
        repr(whole_group(build_dihedral(3)))  # Subgroup.__repr__ calls generating_words
        result = _measure(tmp_path, tracer)
    finally:
        tracer.uninstall()
    after = tracing.bindings()
    assert all(after[key] is before[key] for key in before)
    assert result["failed"] == 0, result["failures"]
    names = {span[0] for span in tracer.spans}
    assert {"groups.generating_words", "census.type1_cells", "partitions.color_action",
            "verify.run_verification", "geometry.symmetry_diagram", "cli.main"} <= names
    assert all(span[2] is not None for span in tracer.spans)


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _measure(tmp_path, tracer)
        finally:
            tracer.uninstall()
        values, repeats = tracing.per_layer(tracer.spans, 1)
        assert repeats
        counts.append({name: values[name] for name in tracing.COUNTS if name in values})
    assert counts[0] == counts[1]
    assert counts[0]["census.entries"] > 25  # the census and the determinism suite's
    assert counts[0]["verify.checks"] == 399


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0, "c", None],
        ["b", 1.0, 4.0, 0, 0, "c", None],
        ["b", 5.0, 6.0, 0, 0, "c", None],
        ["c", 2.0, 3.0, 1, 0, "c", None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(1, 31)]) == (30.0, 100.0, 0)
    assert run.tail([float(i) for i in range(1, 121)]) == (110.0, 100.0 * 110 / 120, 10)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads)
    assert {m["name"] for m in spec["end_to_end"]} == {"pass_cost", "peak_rss_mib", "setup_s"}


def test_reference_sampler_interleaves_chunks_and_stops():
    sampler = child.ReferenceSampler()
    sampler.start()
    try:
        end = time.process_time() + 4 * child.REFERENCE_EVERY_S
        while time.process_time() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.chunks) >= 2
    assert sampler.spent == sum(sampler.chunks)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is signal.SIG_DFL

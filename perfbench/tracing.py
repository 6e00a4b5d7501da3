"""Spans around semicolor's layers, recorded from outside the package.

``Tracer.install`` wraps each public function in TARGETS.  Modules that did
``from .groups import ...`` hold their own binding of the function, so the
wrapper replaces every binding of the original object in every loaded
``semicolor`` module (the package namespace included); patching
``groups.generating_words`` therefore also catches ``Subgroup.__repr__``.
``type1_cells`` is a generator: its span covers each ``next`` call.

A span is ``[name, start, end, parent, pass_no, command, value]``, where
``parent`` indexes the enclosing span (-1 for none) and ``value`` is the
span's count (subgroups found, bytes written, ...).  Spans stay in memory
until the run ends.  ``per_layer`` turns them into the per-pass metrics of
PER_LAYER.  Only the traced run installs a tracer; the untraced run
patches nothing, which ``bindings``/``unpatched`` let a caller check.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (defining module, attribute, span name); "Class.method" patches a method.
TARGETS = (
    ("semicolor.groups", "build_dihedral", "groups.build"),
    ("semicolor.groups", "build_p4m_quotient", "groups.build"),
    ("semicolor.groups", "all_subgroups", "groups.all_subgroups"),
    ("semicolor.groups", "generating_words", "groups.generating_words"),
    ("semicolor.groups", "index_two_subgroups", "groups.index2"),
    ("semicolor.groups", "subgroups_of_index_at_most", "groups.index2"),
    ("semicolor.groups", "conjugacy_classes_of_subgroups", "groups.conjugacy_classes"),
    ("semicolor.groups", "normalizer", "groups.normalizer"),
    ("semicolor.partitions", "color_action", "partitions.color_action"),
    ("semicolor.partitions", "partition_stabilizer", "partitions.partition_stabilizer"),
    ("semicolor.partitions", "type1_partition", "partitions.type1_partition"),
    ("semicolor.partitions", "type2_partition", "partitions.type2_partition"),
    ("semicolor.partitions", "equivalence_key", "partitions.equivalence_key"),
    ("semicolor.partitions", "equivalence_class", "partitions.equivalence_class"),
    ("semicolor.partitions", "classify_type1", "partitions.classify_type1"),
    ("semicolor.census", "type1_cells", "census.type1_cells"),
    ("semicolor.census", "enumerate_type1", "census.enumerate_type1"),
    ("semicolor.census", "enumerate_type2", "census.enumerate_type2"),
    ("semicolor.census", "enumerate_all_semiperfect", "census.enumerate_all"),
    ("semicolor.census", "Census.serialize", "census.serialize"),
    ("semicolor.census", "find_conjugating_automorphism", "census.automorphism_search"),
    ("semicolor.census", "conjugate_spec", "census.conjugate_spec"),
    ("semicolor.geometry", "symmetry_diagram", "geometry.symmetry_diagram"),
    ("semicolor.tiles", "tile_map_for", "tiles.tile_map"),
    ("semicolor.render", "render_svg", "render.render_svg"),
    ("semicolor.verify", "run_verification", "verify.run_verification"),
)

GENERATORS = {"census.type1_cells"}

# Span value taken from the wrapped call's result (a yielded cell for generators).
VALUE_OF = {
    "groups.all_subgroups": len,
    "census.type1_cells": lambda cell: 0 if cell[3].perfect else 1,
    "census.enumerate_type1": len,
    "census.enumerate_all": lambda census: census.total,
    "census.serialize": lambda text: len(text.encode()),
    "render.render_svg": lambda text: len(text.encode()),
    "verify.run_verification": lambda report: {s.name: [s.checks, s.seconds] for s in report.suites},
}

COMMAND_SPAN = "cli.main"

VERIFY_SUITES = (
    "group-axioms", "coset-bookkeeping", "class-equation", "involution-bridge",
    "one-orbit-oracle", "two-orbit-oracle", "orbit-size-two", "grid-pairing",
    "census-counts", "conjugate-transport", "diagram-soundness", "census-determinism",
)

# Every per-layer metric: (name, unit, better).
PER_LAYER = (
    ("groups.build.s", "s", "lower"),
    ("groups.build.calls", "count", "lower"),
    ("groups.all_subgroups.s", "s", "lower"),
    ("groups.all_subgroups.calls", "count", "lower"),
    ("groups.all_subgroups.found", "count", "lower"),
    ("groups.generating_words.s", "s", "lower"),
    ("groups.generating_words.calls", "count", "lower"),
    ("groups.index2.s", "s", "lower"),
    ("groups.conjugacy_classes.s", "s", "lower"),
    ("groups.normalizer.s", "s", "lower"),
    ("groups.normalizer.calls", "count", "lower"),
    ("partitions.color_action.s", "s", "lower"),
    ("partitions.color_action.calls", "count", "lower"),
    ("partitions.partition_stabilizer.s", "s", "lower"),
    ("partitions.partition_stabilizer.calls", "count", "lower"),
    ("partitions.type1_partition.s", "s", "lower"),
    ("partitions.type1_partition.calls", "count", "lower"),
    ("partitions.type2_partition.s", "s", "lower"),
    ("partitions.type2_partition.calls", "count", "lower"),
    ("partitions.equivalence_key.s", "s", "lower"),
    ("partitions.equivalence_key.calls", "count", "lower"),
    ("partitions.equivalence_class.s", "s", "lower"),
    ("partitions.classify_type1.s", "s", "lower"),
    ("partitions.classify_type1.calls", "count", "lower"),
    ("census.type1_cells.s", "s", "lower"),
    ("census.type1_cells.cells", "count", "lower"),
    ("census.type1_cells.semiperfect_ratio", "ratio", "higher"),
    ("census.type1.kept_ratio", "ratio", "higher"),
    ("census.enumerate_type1.s", "s", "lower"),
    ("census.enumerate_type2.s", "s", "lower"),
    ("census.enumerate_all.s", "s", "lower"),
    ("census.entries", "count", "higher"),
    ("census.serialize.s", "s", "lower"),
    ("census.serialize.bytes", "bytes", "lower"),
    ("census.automorphism_search.s", "s", "lower"),
    ("census.conjugate_spec.s", "s", "lower"),
    ("geometry.symmetry_diagram.s", "s", "lower"),
    ("geometry.symmetry_diagram.calls", "count", "lower"),
    ("tiles.tile_map.s", "s", "lower"),
    ("render.render_svg.s", "s", "lower"),
    ("render.render_svg.calls", "count", "lower"),
    ("render.svg_bytes", "bytes", "lower"),
    ("verify.run_verification.s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    *((f"verify.{suite}.s", "s", "lower") for suite in VERIFY_SUITES),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("tracing_overhead_s", "s", "lower"),
)

# Metrics that count work; they must repeat exactly from pass to pass.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes", "ratio"))


def semicolor_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "semicolor" or n.startswith("semicolor.")]


def _originals():
    """(target, owner, attribute, object) for the defining binding of each target."""
    out = []
    for modname, attr, name in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        out.append((name, owner, attr, owner.__dict__[attr]))
    return out


def bindings():
    """Every binding of every target, as ((module or class name, attribute), object)."""
    found = {}
    modules = semicolor_modules()
    for _, owner, attr, obj in _originals():
        found[(owner.__qualname__ if isinstance(owner, type) else owner.__name__, attr)] = obj
        for mod in modules:
            for key, value in vars(mod).items():
                if value is obj:
                    found[(mod.__name__, key)] = value
    return found


def unpatched() -> bool:
    """True when no target binding carries a tracing wrapper."""
    return not any(hasattr(obj, "__perfbench_span__") for obj in bindings().values())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pass_no = 0
        self.command = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_no, self.command, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, value=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[6] = value
        self._stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        value_of = VALUE_OF.get(name)
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)

                def traced():
                    while True:
                        idx = tracer.open(name)
                        value = None
                        try:
                            item = next(gen)
                            value = value_of(item)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(idx, value)
                        yield item

                return traced()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                value = None
                try:
                    result = fn(*args, **kwargs)
                    if value_of is not None:
                        value = value_of(result)
                    return result
                finally:
                    tracer.close(idx, value)

        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self):
        """Replace every binding of every target with a span-recording wrapper."""
        modules = semicolor_modules()
        for name, owner, attr, original in _originals():
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- aggregation ------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans of
    one thread nest, so the children of a span never overlap."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def _inside(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def pass_metrics(spans, own, indices) -> dict[str, float]:
    """Per-layer metrics of one pass: ``indices`` select its spans from
    ``spans``, whose self times are ``own``."""
    s: dict[str, float] = {}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    suites: dict[str, list] = {}
    cells = semiperfect = semiperfect_in_type1 = 0
    for i in indices:
        name, value = spans[i][0], spans[i][6]
        s[name] = s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if isinstance(value, (int, float)):
            total[name] = total.get(name, 0) + value
        if name == "census.type1_cells" and value is not None:
            cells += 1
            semiperfect += value
            if _inside(spans, i, "census.enumerate_type1"):
                semiperfect_in_type1 += value
        elif name == "verify.run_verification":
            for suite, (checks, seconds) in value.items():
                acc = suites.setdefault(suite, [0, 0.0])
                acc[0] += checks
                acc[1] += seconds

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        layer, _, quantity = metric.rpartition(".")
        if quantity == "s":
            out[metric] = s.get(layer, 0.0)
        elif quantity == "calls":
            out[metric] = calls.get(layer, 0)
    out["groups.all_subgroups.found"] = total.get("groups.all_subgroups", 0)
    out["census.type1_cells.cells"] = cells
    out["census.type1_cells.semiperfect_ratio"] = semiperfect / cells if cells else 0.0
    out["census.type1.kept_ratio"] = (
        total.get("census.enumerate_type1", 0) / semiperfect_in_type1 if semiperfect_in_type1 else 0.0
    )
    out["census.entries"] = total.get("census.enumerate_all", 0)
    out["census.serialize.bytes"] = total.get("census.serialize", 0)
    out["render.svg_bytes"] = total.get("render.render_svg", 0)
    out["verify.checks"] = sum(checks for checks, _ in suites.values())
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.s"] = suites.get(suite, [0, 0.0])[1]
    out["cli.self_s"] = s.get(COMMAND_SPAN, 0.0)
    out["cli.output_bytes"] = total.get(COMMAND_SPAN, 0)
    return out


def per_layer(spans, passes: int) -> tuple[dict[str, float], bool]:
    """Median over passes of each per-layer metric (all but
    tracing_overhead_s), and whether every count repeated exactly from pass
    to pass."""
    own = self_times(spans)
    indices: list[list[int]] = [[] for _ in range(passes)]
    for i, span in enumerate(spans):
        indices[span[4]].append(i)
    per_pass = [pass_metrics(spans, own, idx) for idx in indices]
    out = {
        name: (statistics.median_low if name in COUNTS else statistics.median)(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    repeats = all(len({p[name] for p in per_pass}) == 1 for name in COUNTS if name in out)
    return out, repeats

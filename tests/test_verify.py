import ast
import hashlib
import json
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import semicolor.census
import semicolor.verify
from semicolor.census import Census, enumerate_all_semiperfect
from semicolor.errors import ResourceLimitError
from semicolor.groups import (
    Subgroup,
    build_dihedral,
    build_p4m_quotient,
    group_from_descriptor,
    parse_group_arg,
    subgroups_of_index,
)
from semicolor.partitions import type1_partition, type2_partition
from semicolor.verify import Suite, run_verification


def test_failure_text_is_built_only_for_failing_checks(d6, hexH, monkeypatch):
    shown = []
    plain_repr = Subgroup.__repr__

    def counting_repr(self):
        shown.append(self.members)
        return plain_repr(self)

    monkeypatch.setattr(Subgroup, "__repr__", counting_repr)
    report = run_verification(d6)
    assert report.passed
    assert sum(s.checks for s in report.suites) > 0
    assert shown == []

    suite = Suite("demo")
    suite.check(True, lambda: f"mismatch for J={hexH}")
    assert shown == []
    suite.check(False, lambda: f"mismatch for J={hexH}")
    suite.check(False, "static detail")
    assert suite.checks == 3
    assert suite.failures == ["mismatch for J=Subgroup(<a^2,b>, order=6)", "static detail"]
    assert shown == [hexH.members]


def test_each_color_group_builds_its_tables_once(monkeypatch):
    # One ColorGroupTables per color group feeds both pipelines and the
    # grid-pairing walk; only census-determinism enumerates on its own.
    G = build_dihedral(8)
    built = Counter()
    plain = semicolor.verify.ColorGroupTables

    def counting(G, H, max_colors=None):
        built[H.members] += 1
        return plain(G, H, max_colors)

    monkeypatch.setattr(semicolor.verify, "ColorGroupTables", counting)
    assert run_verification(G).passed
    color_groups = [H.members for H in subgroups_of_index(G, 2)]
    assert len(color_groups) == 3
    assert built == Counter({H: 1 for H in color_groups})


def test_each_color_group_computes_its_conjugacy_classes_once(monkeypatch):
    # The classes are held by ColorGroupTables: type1_cells (walked by
    # enumerate_type1 and grid-pairing), class-equation and census-counts
    # all read the one computed by the sweep.  census-determinism takes the
    # sweeps' census as its first and builds tables of its own only for its
    # fresh enumeration.
    G = build_dihedral(8)
    computed = Counter()
    plain = semicolor.census.conjugacy_classes_of_subgroups

    def counting(subgroups, conjugators):
        computed[max(subgroups, key=lambda s: s.order).members] += 1
        return plain(subgroups, conjugators)

    monkeypatch.setattr(semicolor.census, "conjugacy_classes_of_subgroups", counting)
    assert run_verification(G).passed
    assert computed == Counter({H.members: 1 + 1 for H in subgroups_of_index(G, 2)})


def test_normalizers_computed_once_per_class_representative(monkeypatch):
    # The sweep's tables hold N_H(J) and N_G(J) of each class
    # representative for type1_cells (twice), class-equation, grid-pairing
    # and census-counts; census-determinism's fresh enumeration computes
    # N_H(J) on tables of its own, and its first census is the sweeps'.
    G = build_dihedral(8)
    reps = Counter()
    for H in subgroups_of_index(G, 2):
        for cls in semicolor.census.ColorGroupTables(G, H).classes:
            reps[H.members, cls[0].members] += 2
            reps[tuple(G.elements), cls[0].members] += 1
    computed = Counter()
    plain = semicolor.census.normalizer

    def counting(within, J):
        computed[within.members, J.members] += 1
        return plain(within, J)

    monkeypatch.setattr(semicolor.census, "normalizer", counting)
    assert run_verification(G).passed
    assert computed == reps


def test_one_orbit_oracle_builds_one_partition_per_right_coset(monkeypatch):
    # type1_partition(H, J, r) depends only on J*r: the suite builds one
    # partition per distinct (J, J*r) and still checks every (J, r).
    G = build_dihedral(8)
    sweeps = [semicolor.verify._Sweep(G, H, None, {}) for H in subgroups_of_index(G, 2)]
    built = Counter()
    plain = semicolor.verify.type1_partition

    def counting(H, J, r):
        built[H.members, J.members, frozenset(G.mul(j, r) for j in J.members)] += 1
        return plain(H, J, r)

    monkeypatch.setattr(semicolor.verify, "type1_partition", counting)
    suite = Suite("one-orbit-oracle")
    semicolor.verify._suite_type1(suite, G, sweeps)
    assert suite.passed
    pairs = [(s.H, J) for s in sweeps for J in s.tables.pool]
    assert suite.checks == sum(len(H.complement()) for H, _ in pairs)
    assert set(built.values()) == {1}
    assert len(built) == sum(len(H.complement()) // J.order for H, J in pairs)


@pytest.mark.parametrize("name", ["dihedral:6", "dihedral:8", "p4m_quotient:1", "p4m_quotient:2"])
def test_sweep_keeps_one_partition_per_recipe(name):
    # A type-1 partition is kept per (J, J*r), a type-2 one per ordered
    # (J1, J2); each is the one the constructors build, and a census
    # entry's is that of its own spec.
    G = group_from_descriptor(parse_group_arg(name))
    table = G.table
    kinds = Counter()
    for H in subgroups_of_index(G, 2):
        sweep = semicolor.verify._Sweep(G, H, None, {})
        pool = sweep.tables.pool
        for J in pool:
            by_coset = {}
            for r in H.complement():
                P = sweep.type1_partition(J, r)
                assert P.blocks == type1_partition(H, J, r).blocks
                assert by_coset.setdefault(frozenset(table[j][r] for j in J.members), P) is P
            assert len({id(P) for P in by_coset.values()}) == len(by_coset)
        for J1, J2 in product(pool, repeat=2):
            P = sweep.type2_partition(J1, J2)
            assert P.blocks == type2_partition(H, J1, J2).blocks
            assert sweep.type2_partition(J1, J2) is P
        for entry in sweep.type2 + sweep.type1:
            assert sweep.partition_of(entry).blocks == entry.spec.partition.blocks
            kinds[entry.kind] += 1
    assert kinds["type1"] and kinds["type2"]


def test_diagram_soundness_computes_one_diagram_per_conjugate(monkeypatch):
    G = build_p4m_quotient(1)
    conjugates = Counter()
    plain = semicolor.verify.symmetry_diagram

    def counting(J):
        conjugates[J.members] += 1
        return plain(J)

    monkeypatch.setattr(semicolor.verify, "symmetry_diagram", counting)
    suite = Suite("diagram-soundness")
    semicolor.verify._suite_diagram(suite, G, exhaustive=False)
    assert suite.passed
    assert suite.checks == 96
    assert conjugates and set(conjugates.values()) == {1}


def test_production_modules_hold_no_oracle():
    # The brute-force oracles live in partitions and verify; the modules a
    # command runs neither define nor name one.
    oracles = {
        "partition_stabilizer", "stabilized_by_whole_group", "orbit_table",
        "equivalence_class", "equivalent", "color_action", "equivalence_key",
        "action_equivalence_check",
    }
    src = Path(semicolor.census.__file__).parent
    for module in ("census", "cli", "groups", "geometry", "presentations", "render", "tiles"):
        names = set()
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name.rpartition(".")[2], node.asname})
        assert not names & oracles, f"{module} names {sorted(names & oracles)}"


def test_refuses_groups_above_the_search_bound_before_any_suite(monkeypatch):
    # dihedral:512 (order 1,024) is a 2-group, so the sweep's lattice walk
    # accepts it; only conjugate-transport's automorphism search refuses it.
    called = []
    for name in [n for n in vars(semicolor.verify) if n.startswith("_suite_")]:
        monkeypatch.setattr(semicolor.verify, name, lambda *args, name=name: called.append(name))
    with pytest.raises(ResourceLimitError, match="automorphism-search bound 512"):
        run_verification(build_dihedral(512))
    assert called == []


def _determinism(G):
    suite = Suite("census-determinism")
    semicolor.verify._suite_determinism(suite, G, subgroups_of_index(G, 2), [])
    assert suite.checks == 1
    return suite.failures


def test_census_determinism_fails_when_the_writer_differs(monkeypatch):
    plain = Census.chunks

    def altered(self):
        for i, piece in enumerate(plain(self)):
            yield piece + " " if i == 1 else piece  # the first entry's piece

    monkeypatch.setattr(Census, "chunks", altered)
    assert _determinism(build_dihedral(6)) == [
        "census writer differs from json.dumps(Census.to_json())"
    ]


def test_census_determinism_fails_when_enumerations_differ(monkeypatch):
    censuses = []

    def second_reversed(*args, **kwargs):
        census = enumerate_all_semiperfect(*args, **kwargs)
        censuses.append(census)
        if len(censuses) == 2:
            census.entries.reverse()
        return census

    monkeypatch.setattr(semicolor.verify, "enumerate_all_semiperfect", second_reversed)
    assert _determinism(build_dihedral(6)) == ["census serialization is not reproducible"]
    assert len(censuses) == 2


@pytest.mark.parametrize(
    "group, max_colors, total, notes",
    [
        (lambda: build_dihedral(6), None, 44, []),
        (lambda: build_dihedral(6), 1, 0, ["no semiperfect coloring"]),
        (lambda: build_p4m_quotient(2), 4, 386, ["quotient realization"]),
    ],
    ids=["dihedral:6", "dihedral:6-empty", "p4m_quotient:2-max4"],
)
def test_streamed_oracle_is_json_dumps_of_the_census(group, max_colors, total, notes):
    census = enumerate_all_semiperfect(group(), max_colors=max_colors)
    assert census.total == total
    assert len(census.notes) == len(notes) and all(map(str.startswith, census.notes, notes))
    text = json.dumps(census.to_json(), indent=2, sort_keys=True) + "\n"
    streamed = semicolor.verify._digest(semicolor.verify._oracle_chunks(census))
    assert streamed == hashlib.sha256(text.encode()).hexdigest()


def test_verify_never_holds_the_census_text_or_dict(monkeypatch):
    def refuse(self):
        raise AssertionError("verify holds the whole census")

    monkeypatch.setattr(Census, "serialize", refuse)
    monkeypatch.setattr(Census, "to_json", refuse)
    assert run_verification(build_dihedral(8)).passed


WORK_GROUPS = ["dihedral:8", "p4m_quotient:1"]  # order <= 32: uncapped sweeps


def _sweep_pools(G):
    return [
        (H, semicolor.census.ColorGroupTables(G, H).pool)
        for H in semicolor.verify._color_groups(G, exhaustive=False)
    ]


@pytest.mark.parametrize("name", WORK_GROUPS)
def test_each_ordered_type2_pair_is_built_once(monkeypatch, name):
    # two-orbit-oracle builds each pair in enumerate_type2's orientation, so
    # orbit-size-two finds every type-2 entry's partition already built.
    G = group_from_descriptor(parse_group_arg(name))
    built = Counter()
    plain = semicolor.verify.type2_partition

    def counting(H, J1, J2):
        built[H.members, J1.members, J2.members] += 1
        return plain(H, J1, J2)

    monkeypatch.setattr(semicolor.verify, "type2_partition", counting)
    assert run_verification(G).passed
    assert set(built.values()) == {1}
    per_H = Counter(H for H, _, _ in built)
    n = {H.members: len(pool) for H, pool in _sweep_pools(G)}
    assert per_H == Counter({H: n[H] * (n[H] + 1) // 2 for H in n})


@pytest.mark.parametrize("name", WORK_GROUPS)
def test_each_distinct_partition_is_walked_once(monkeypatch, name):
    # one-orbit-oracle and two-orbit-oracle share one perfect verdict per
    # distinct partition, each from a walk of all of G; the verdict does not
    # depend on H, so the sweeps of all color groups share it too.
    G = group_from_descriptor(parse_group_arg(name))
    walked = Counter()
    plain = semicolor.verify.stabilized_by_whole_group

    def counting(G, P):
        walked[P.blocks] += 1
        return plain(G, P)

    monkeypatch.setattr(semicolor.verify, "stabilized_by_whole_group", counting)
    assert run_verification(G).passed
    blocks = set()
    for H, pool in _sweep_pools(G):
        blocks |= {type1_partition(H, J, r).blocks for J in pool for r in H.complement()}
        blocks |= {
            type2_partition(H, J1, J2).blocks
            for J1, J2 in product(pool, repeat=2)
            if (J1.order, J1.members) <= (J2.order, J2.members)  # enumerate_type2's orientation
        }
    assert walked == Counter(dict.fromkeys(blocks, 1))
    # Fewer walks than recipes (one per right coset J*r, one per pair):
    # recipes of different color groups build some partitions alike.
    recipes = sum(
        sum(len(H.complement()) // J.order for J in pool) + len(pool) * (len(pool) + 1) // 2
        for H, pool in _sweep_pools(G)
    )
    assert sum(walked.values()) < recipes


@pytest.mark.parametrize("name", ["dihedral:8", "dihedral:16", "p4m_quotient:1"])
def test_transport_builds_only_the_moved_partitions(monkeypatch, name):
    # conjugate-transport reads each entry's partition from the sweep, so
    # the only partitions built through ColoringSpec.partition are those
    # of the transported specs, one each.
    G = group_from_descriptor(parse_group_arg(name))
    built, moved = [], []
    for fn in ("type1_partition", "type2_partition"):
        def counting(*args, plain=getattr(semicolor.census, fn)):
            built.append(plain(*args))
            return built[-1]

        monkeypatch.setattr(semicolor.census, fn, counting)
    plain_conjugate = semicolor.verify.conjugate_spec

    def recording(spec, alpha):
        moved.append(plain_conjugate(spec, alpha))
        return moved[-1]

    monkeypatch.setattr(semicolor.verify, "conjugate_spec", recording)
    assert run_verification(G).passed
    assert moved and list(map(id, built)) == [id(spec._partition) for spec in moved]


def _counting_enumerations(monkeypatch, reverse_entries=False):
    calls = []

    def counting(*args, **kwargs):
        census = enumerate_all_semiperfect(*args, **kwargs)
        if reverse_entries:
            census.entries.reverse()
        calls.append(census.total)
        return census

    monkeypatch.setattr(semicolor.verify, "enumerate_all_semiperfect", counting)
    return calls


def _determinism_suite(report):
    (suite,) = [s for s in report.suites if s.name == "census-determinism"]
    assert suite.checks == 1
    return suite


@pytest.mark.parametrize("name", WORK_GROUPS)
def test_census_determinism_holds_the_sweep_census_against_a_fresh_one(monkeypatch, name):
    G = group_from_descriptor(parse_group_arg(name))
    calls = _counting_enumerations(monkeypatch)
    assert _determinism_suite(run_verification(G)).passed
    assert len(calls) == 1
    monkeypatch.undo()
    calls = _counting_enumerations(monkeypatch, reverse_entries=True)
    assert _determinism_suite(run_verification(G)).failures == [
        "census serialization is not reproducible"
    ]
    assert len(calls) == 1


def test_capped_census_determinism_runs_two_enumerations(monkeypatch):
    G = build_dihedral(20)  # order 40: the sweep caps its colors at 4
    calls = _counting_enumerations(monkeypatch)
    assert _determinism_suite(run_verification(G)).passed
    assert len(calls) == 2


@pytest.mark.parametrize("exhaustive", [False, True], ids=["standard", "exhaustive"])
@pytest.mark.parametrize("name", ["dihedral:6", "dihedral:8", "p4m_quotient:1", "p4m_quotient:2"])
def test_sweep_census_hashes_like_the_enumeration(name, exhaustive):
    G = group_from_descriptor(parse_group_arg(name))
    color_groups = semicolor.verify._color_groups(G, exhaustive)
    sweeps = [semicolor.verify._Sweep(G, H, None, {}) for H in color_groups]
    built = Census.from_parts(G, [part for sweep in sweeps for part in sweep.parts()])
    fresh = enumerate_all_semiperfect(G, H_filter=color_groups)
    assert built.by_part == fresh.by_part and built.notes == fresh.notes
    digest = semicolor.verify._digest
    assert digest(built.chunks()) == digest(fresh.chunks())
    assert digest(semicolor.verify._oracle_chunks(built)) == digest(fresh.chunks())

import ast
from collections import Counter
from pathlib import Path

import semicolor.census
import semicolor.verify
from semicolor.groups import Subgroup, build_dihedral, build_p4m_quotient, subgroups_of_index
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
    # all read the one computed by the sweep.  census-determinism builds
    # tables of its own for each of its two enumerations.
    G = build_dihedral(8)
    computed = Counter()
    plain = semicolor.census.conjugacy_classes_of_subgroups

    def counting(subgroups, conjugators):
        computed[max(subgroups, key=lambda s: s.order).members] += 1
        return plain(subgroups, conjugators)

    monkeypatch.setattr(semicolor.census, "conjugacy_classes_of_subgroups", counting)
    assert run_verification(G).passed
    assert computed == Counter({H.members: 1 + 2 for H in subgroups_of_index(G, 2)})


def test_normalizers_computed_once_per_class_representative(monkeypatch):
    # The sweep's tables hold N_H(J) and N_G(J) of each class
    # representative for type1_cells (twice), class-equation, grid-pairing
    # and census-counts; census-determinism's two enumerations compute
    # N_H(J) on tables of their own.
    G = build_dihedral(8)
    reps = Counter()
    for H in subgroups_of_index(G, 2):
        for cls in semicolor.census.ColorGroupTables(G, H).classes:
            reps[H.members, cls[0].members] += 3
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
    sweeps = [semicolor.verify._Sweep(G, H, None) for H in subgroups_of_index(G, 2)]
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

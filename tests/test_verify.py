from collections import Counter

import semicolor.verify
from semicolor.groups import Subgroup, build_dihedral, subgroups_of_index
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

from semicolor.groups import Subgroup
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

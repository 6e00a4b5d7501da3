"""Oracle-versus-classifier verification suites.

Every fast path in the package has an independent brute-force counterpart;
these suites run both over exhaustive inputs for a chosen group and report
any disagreement.  They back the ``verify`` CLI command.

The sweep is built once per color group H: one ``ColorGroupTables`` (its
pool is the lattice of H up to order 16, else the subgroups of index <= 4),
and the census's own ``enumerate_type2`` and ``enumerate_type1`` on them.
``coset-bookkeeping`` checks the tables' coset representatives, from which
every block is built; ``class-equation`` reads their conjugacy classes and
the G-normalizer of each class representative;
``involution-bridge``, ``one-orbit-oracle`` and ``two-orbit-oracle`` read
the pool; ``orbit-size-two`` and ``conjugate-transport`` read the entries;
``census-counts`` reads the classes, their normalizers and the entries;
``grid-pairing`` walks their ``type1_cells`` and reads the normalizers.
Only ``census-determinism`` runs two whole enumerations of its own.
Oracles run once per distinct input and are checked for every input that
shares it: ``one-orbit-oracle`` builds one partition per right coset J*r,
``diagram-soundness`` one diagram per distinct conjugate of J.

Each brute-force question tests every g in G once and stops when the
answer is known.  ``orbit-size-two`` builds one ``orbit_table`` per entry,
which names the translate gP for every g, and reads both the orbit and the
stabilizer of each translate from it.  The perfect verdicts of
``one-orbit-oracle`` and ``two-orbit-oracle`` come from
``stabilized_by_whole_group``, which stops at the first g that splits a
block.  ``conjugate-transport`` holds each transported entry against
``action_equivalence_check``, the one oracle defined in this module.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable

from .census import (
    ColorGroupTables,
    GroupAutomorphism,
    enumerate_all_semiperfect,
    enumerate_type1,
    enumerate_type2,
    find_conjugating_automorphism,
    conjugate_spec,
    standard_color_groups,
    type1_cells,
)
from .errors import InvalidParameterError
from .geometry import SymmetryDiagram, lift_quotient_element, symmetry_diagram
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    perfect_coset_count,
    subgroup_generated,
    subgroups_of_index,
    subgroups_of_index_at_most,
    whole_group,
)
from .partitions import (
    PERFECT,
    SEMIPERFECT,
    GroupPartition,
    classify_type1,
    classify_type2,
    color_action,
    equivalence_key,
    orbit_table,
    stabilized_by_whole_group,
    type1_partition,
    type2_partition,
)


@dataclass
class Suite:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def check(self, ok: bool, detail: str | Callable[[], str]):
        """Count one check; on failure record ``detail``, calling it first
        when it is a callable, so a passing check never builds its text."""
        self.checks += 1
        if not ok:
            self.failures.append(detail() if callable(detail) else detail)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class VerificationReport:
    group: FiniteGroup
    suites: list[Suite]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def lines(self) -> list[str]:
        out = []
        for s in self.suites:
            status = "ok " if s.passed else "FAIL"
            out.append(f"{status} {s.name}: {s.checks} checks ({s.seconds:.2f}s)")
            for f in s.failures[:5]:
                out.append(f"     {f}")
            if len(s.failures) > 5:
                out.append(f"     ... and {len(s.failures) - 5} more")
        return out


class _Sweep:
    """What the suites read of one color group H, built once: its tables
    and the entries of both census pipelines, all under one cap."""

    def __init__(self, G: FiniteGroup, H: Subgroup, cap: int | None):
        self.H = H
        self.tables = ColorGroupTables(G, H, cap)
        self.type2 = enumerate_type2(self.tables)
        self.type1 = enumerate_type1(self.tables)


def _timed(suite: Suite, fn):
    start = time.perf_counter()
    fn(suite)
    suite.seconds = time.perf_counter() - start
    return suite


def run_verification(G: FiniteGroup, exhaustive: bool = False) -> VerificationReport:
    color_groups = subgroups_of_index(G, 2)
    if not exhaustive and G.order > 16:
        preferred = standard_color_groups(G)
        if G.descriptor.get("kind") == "p4m_quotient":
            preferred = preferred + [
                subgroup_generated(G, G.elements_from_words(["b", "a2b", "x", "y"]))
            ]
        keys = {H.members for H in preferred if 2 * H.order == G.order}
        color_groups = [H for H in color_groups if H.members in keys] or color_groups[:2]
    # Every color group has index 2, so one order decides the sweep: the
    # full lattice of H up to order 16, else its subgroups of index <= 4.
    cap = None if G.order <= 32 else 4
    sweeps = [_Sweep(G, H, cap) for H in color_groups]

    suites = [
        _timed(Suite("group-axioms"), lambda s: _suite_axioms(s, G)),
        _timed(Suite("coset-bookkeeping"), lambda s: _suite_cosets(s, G, sweeps)),
        _timed(Suite("class-equation"), lambda s: _suite_classes(s, G, sweeps)),
        _timed(Suite("involution-bridge"), lambda s: _suite_bridge(s, G, sweeps)),
        _timed(Suite("one-orbit-oracle"), lambda s: _suite_type1(s, G, sweeps)),
        _timed(Suite("two-orbit-oracle"), lambda s: _suite_type2(s, G, sweeps)),
        _timed(Suite("orbit-size-two"), lambda s: _suite_orbits(s, G, sweeps)),
        _timed(Suite("grid-pairing"), lambda s: _suite_pairing(s, G, sweeps)),
        _timed(Suite("census-counts"), lambda s: _suite_counts(s, G, sweeps, cap)),
        _timed(Suite("conjugate-transport"), lambda s: _suite_transport(s, G, sweeps)),
    ]
    if G.descriptor.get("kind") == "p4m_quotient":
        suites.append(
            _timed(Suite("diagram-soundness"), lambda s: _suite_diagram(s, G, exhaustive))
        )
    suites.append(_timed(Suite("census-determinism"), lambda s: _suite_determinism(s, G, color_groups)))
    return VerificationReport(G, suites)


def _suite_axioms(suite: Suite, G: FiniteGroup):
    suite.check(G.check_associativity(), "associativity failed")
    e = G.identity
    suite.check(
        all(G.mul(g, G.inv(g)) == e and G.mul(G.inv(g), g) == e for g in G.elements),
        "inverse law failed",
    )
    suite.check(
        all(G.mul(e, g) == g and G.mul(g, e) == g for g in G.elements),
        "identity law failed",
    )


def _suite_cosets(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    for sweep in sweeps:
        H = sweep.H
        for K in sweep.tables.pool:
            regen = subgroup_generated(G, K.members)
            suite.check(regen.members == K.members, lambda: f"closure not idempotent for {K}")
            reps = sweep.tables.reps[K.members]
            suite.check(
                len(reps) * K.order == H.order,
                lambda: f"coset count mismatch for {K} in {H}",
            )
            covered = set()
            for rep in reps:
                coset = {G.mul(rep, k) for k in K.members}
                suite.check(not (coset & covered), lambda: f"cosets overlap for {K}")
                covered |= coset
            suite.check(covered == set(H.members), lambda: f"cosets do not cover H for {K}")


def _suite_classes(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    for sweep in sweeps:
        H, subs, classes = sweep.H, sweep.tables.pool, sweep.tables.classes
        suite.check(
            sum(len(c) for c in classes) == len(subs),
            lambda: f"class sizes do not add up for H={H}",
        )
        for cls in classes:
            rep = cls[0]
            ng = sweep.tables.g_normalizers[rep.members]
            suite.check(
                len(cls) * ng.order == G.order,
                lambda: f"orbit-stabilizer mismatch for {rep}",
            )


def _suite_bridge(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    for sweep in sweeps:
        H = sweep.H
        hset = H.member_set
        for J in sweep.tables.pool:
            jset = J.member_set
            cosets = set()
            for r in G.elements:
                if r in hset:
                    continue
                left = frozenset(G.mul(r, j) for j in J.members)
                right = frozenset(G.mul(j, r) for j in J.members)
                if left == right and G.mul(r, r) in jset:
                    cosets.add(left)
            suite.check(
                perfect_coset_count(G, H, J) == len(cosets),
                lambda: f"involution bridge mismatch for J={J} in H={H}",
            )


def _suite_type1(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    # type1_partition(H, J, r) depends only on the right coset J*r, so the
    # oracle runs once per coset, named by its smallest member; the fast
    # classifier still runs, and is checked, for every r.
    table = G.table
    for sweep in sweeps:
        H = sweep.H
        outside = H.complement()
        for J in sweep.tables.pool:
            perfect_by_coset: dict[int, bool] = {}
            for r in outside:
                coset = min(table[j][r] for j in J.members)
                if coset not in perfect_by_coset:
                    P = type1_partition(H, J, r)
                    perfect_by_coset[coset] = stabilized_by_whole_group(G, P)
                fast = classify_type1(J, r, H).perfect
                suite.check(
                    fast == perfect_by_coset[coset],
                    lambda: f"one-orbit verdict mismatch J={J} r={G.labels[r]} H={H}",
                )


def _suite_type2(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    for sweep in sweeps:
        H = sweep.H
        for J1, J2 in combinations_with_replacement(sweep.tables.pool, 2):
            fast = classify_type2(J1, J2, H) == PERFECT
            oracle = stabilized_by_whole_group(G, type2_partition(H, J1, J2))
            suite.check(
                fast == oracle,
                lambda: f"two-orbit verdict mismatch J1={J1} J2={J2} H={H}",
            )


def _suite_orbits(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    for sweep in sweeps:
        H = sweep.H
        for entry in sweep.type2 + sweep.type1:
            table = orbit_table(entry.spec.partition, G)
            orbit = sorted(table.translates, key=lambda P: P.blocks)
            suite.check(
                len(orbit) == 2
                and entry.key == orbit[0].blocks
                and entry.key_string() == orbit[0].key_string(),
                lambda: f"orbit size != 2, or key or its text is not the orbit minimum "
                f"for {entry.key_string()}",
            )
            stabs = {table.stabilizer(i).members for i in range(len(orbit))}
            suite.check(
                len(stabs) == 1, lambda: f"orbit stabilizers differ for {entry.key_string()}"
            )
            cls = color_action(H, entry.spec.partition).classification
            # Orbit-stabilizer: the orbit size under G decides the verdict.
            # The census classifies in closed form; the oracle must agree.
            suite.check(
                cls.kernel_order * cls.color_perm_group_order == H.order
                and cls.verdict == {1: PERFECT, 2: SEMIPERFECT}.get(len(orbit))
                and cls == entry.classification,
                lambda: f"kernel product law, verdict or closed form fails for "
                f"{entry.key_string()}",
            )


def _suite_pairing(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    for sweep in sweeps:
        H, tables = sweep.H, sweep.tables
        per_class: dict[tuple, dict] = {}
        for bJ, l, r, verdict in type1_cells(tables):
            if verdict.perfect:
                continue
            P = type1_partition(H, bJ.conjugated_by(l), r)
            per_class.setdefault(bJ.members, {}).setdefault(
                equivalence_key(P, H), []
            ).append((l, r))
        for members, keys in per_class.items():
            J = Subgroup(G, members)
            split = tables.g_normalizers[members].order == tables.h_normalizers[members].order
            want = 1 if split else 2
            suite.check(
                all(len(v) == want for v in keys.values()),
                lambda: f"semiperfect grid multiplicity != {want} for J={J} H={H}",
            )


def _suite_counts(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep], cap: int | None):
    for sweep in sweeps:
        H = sweep.H
        if cap is None:
            n_subs = len(sweep.tables.pool)
            expected2 = n_subs * (n_subs - 1) // 2
        else:
            pool = subgroups_of_index_at_most(H, cap - 1)
            expected2 = sum(
                1
                for i, J1 in enumerate(pool)
                for J2 in pool[i + 1 :]
                if H.order // J1.order + H.order // J2.order <= cap
            )
        suite.check(
            len(sweep.type2) == expected2,
            lambda: f"two-orbit census size mismatch for H={H}",
        )
        total = sum(sweep.tables.count_semiperfect_type1(cls[0]) for cls in sweep.tables.classes)
        suite.check(
            len(sweep.type1) == total,
            lambda: f"one-orbit census does not match the closed form for H={H}",
        )


def _suite_transport(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    pairs = [(sweep, other.H) for i, sweep in enumerate(sweeps) for other in sweeps[i + 1 :]]
    for sweep, H2 in pairs:
        alpha = find_conjugating_automorphism(G, sweep.H, H2)
        if alpha is None:
            continue
        for entry in sweep.type2[:6] + sweep.type1[:6]:
            moved = conjugate_spec(entry.spec, alpha)
            suite.check(
                moved.verdict() == entry.spec.verdict(),
                lambda: f"transport changed verdict for {entry.key_string()}",
            )
            ok, _ = action_equivalence_check(
                entry.spec.H, entry.spec.partition, moved.H, moved.partition, alpha
            )
            suite.check(ok, lambda: f"transported action differs for {entry.key_string()}")
    suite.check(True, "transport sweep completed")


def action_equivalence_check(
    H: Subgroup,
    P: GroupPartition,
    H2: Subgroup,
    P2: GroupPartition,
    alpha: GroupAutomorphism,
) -> tuple[bool, tuple[int, ...]]:
    """Verify that the color action of H on P matches that of H2 on P2.

    The witness bijection sends block i of P to the block of P2 holding its
    alpha-image; compatibility means alpha(h) acts on P2-blocks exactly as h
    acts on P-blocks, for every h in H.
    """
    if alpha.apply_subgroup(H).members != H2.members:
        raise InvalidParameterError("H2 is not the alpha-image of H")
    imageP = alpha.apply_partition(P)
    if imageP.blocks != P2.blocks:
        raise InvalidParameterError("P2 is not the alpha-image of P")
    block_to_index = {block: i for i, block in enumerate(P2.blocks)}
    f = tuple(
        block_to_index[tuple(sorted(alpha(e) for e in block))] for block in P.blocks
    )
    for h in H.members:
        perm = P.permutation_induced_by(h)
        perm2 = P2.permutation_induced_by(alpha(h))
        for i in range(len(f)):
            if perm2[f[i]] != f[perm[i]]:
                return False, f
    return True, f


def _suite_diagram(suite: Suite, G: FiniteGroup, exhaustive: bool):
    subs = all_subgroups(G) if G.order <= 32 else subgroups_of_index_at_most(whole_group(G), 8)
    if not exhaustive:
        subs = subs[: max(12, len(subs) // 4)]
    # Many (J, r) share one conjugate J^r: its diagram is computed once.
    diagrams: dict[tuple[int, ...], SymmetryDiagram] = {}

    def diagram_of(K: Subgroup) -> SymmetryDiagram:
        if K.members not in diagrams:
            diagrams[K.members] = symmetry_diagram(K)
        return diagrams[K.members]

    for J in subs:
        D = diagram_of(J)
        for r in G.elements:
            moved = D.transformed(lift_quotient_element(G, r))
            conj = diagram_of(J.conjugated_by(r))
            suite.check(moved == conj, lambda: f"diagram conjugation identity fails for {J}")
            if moved != D:
                suite.check(
                    not J.is_normalized_by(r),
                    lambda: f"diagram moved but {G.labels[r]} normalizes {J}",
                )


def _suite_determinism(suite: Suite, G: FiniteGroup, color_groups):
    # Two enumerations serialize alike, and the writer matches the
    # json.dumps oracle; only digests are held, never two census texts.
    census = enumerate_all_semiperfect(G, H_filter=color_groups)
    first = _digest(census.serialize())
    oracle = _digest(json.dumps(census.to_json(), indent=2, sort_keys=True) + "\n")
    del census
    second = _digest(enumerate_all_semiperfect(G, H_filter=color_groups).serialize())
    suite.check(
        first == oracle == second,
        lambda: "census serialization is not reproducible"
        if first != second
        else "census writer differs from json.dumps(Census.to_json())",
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()

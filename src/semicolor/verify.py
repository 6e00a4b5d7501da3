"""Oracle-versus-classifier verification suites.

Every fast path in the package has an independent brute-force counterpart;
these suites run both over exhaustive inputs for a chosen group and report
any disagreement.  They back the ``verify`` CLI command.

The sweep is built once per color group H: one ``ColorGroupTables`` (its
pool is the lattice of H up to order 16, else the subgroups of index <= 4),
and the census's own ``enumerate_type2`` and ``enumerate_type1`` on them.
``coset-bookkeeping`` checks the left coset representatives that the tables
kept on H, from ``groups``' one coset walk, and every block is built from
them; ``class-equation`` reads the tables' conjugacy classes and the
G-normalizer of each class representative;
``involution-bridge``, ``one-orbit-oracle`` and ``two-orbit-oracle`` read
the pool; ``orbit-size-two`` and ``conjugate-transport`` read the entries;
``census-counts`` reads the classes, their normalizers and the entries;
``grid-pairing`` walks their ``type1_cells`` and reads the normalizers.
Oracles run once per distinct input and are checked for every input that
shares it.  The sweep keeps each partition a suite asks for, built on
first use: a type-1 partition once per (J, J*r), since it depends only on
the right coset J*r, and a type-2 one once per ordered (J1, J2).
``one-orbit-oracle``, ``two-orbit-oracle``, ``orbit-size-two`` (through
J^l and r for a type-1 entry) and ``grid-pairing`` read their partitions
from it; ``two-orbit-oracle`` builds each pair in ``enumerate_type2``'s
orientation, smaller (order, members) first, so ``orbit-size-two`` finds
every entry's partition built.  ``conjugate-transport`` reads each
entry's partition from the sweep too, so the one partition it builds per
entry is the transported spec's own.  The left coset representatives
every partition is built from are kept on H by ``left_coset_reps``.
``diagram-soundness`` builds one diagram per distinct conjugate of J.  An
uncapped sweep (G of order <= 32) has enumerated the whole census of its
color groups, so once ``conjugate-transport`` has run,
``Census.from_parts`` joins the sweeps' type-1 and type-2 parts into the
first census of ``census-determinism``, as ``enumerate_all_semiperfect``
joins its own, and the sweeps are dropped: their partitions are freed
before ``diagram-soundness`` and the fresh enumeration.  Capped sweeps
leave ``census-determinism`` two fresh enumerations of its own.

Each brute-force question tests every g in G once and stops when the
answer is known.  ``orbit-size-two`` builds one ``orbit_table`` per entry,
which walks the blocks once per g to find the stabilizer, names the
translate gP and keeps the block map of every g, and reads the orbit, the
stabilizer of each translate and, through ``color_action``, the color
action of H from it.  The perfect verdicts of ``one-orbit-oracle`` and
``two-orbit-oracle`` come from ``stabilized_by_whole_group``, which stops
at the first g that splits a block.  The verdict depends on the partition
alone, so the sweeps of one run keep it by ``P.blocks``: each distinct
partition, in whichever color group or recipe it arises, is walked once.
``conjugate-transport`` holds each entry that ``conjugate_spec`` maps
against ``action_equivalence_check``, the one oracle defined in this
module, which reads its witness from the element-map test.

``census-determinism`` checks that the census writer ``Census.chunks``
gives the same text on two enumerations, and the text that ``json.dumps(
Census.to_json(), indent=2, sort_keys=True)`` gives.  The first census is
released before the second is built, so the peak holds one of them.  Each
text goes into one sha256 digest a piece at a time.  The oracle's head
and tail are ``json.dumps`` of ``Census._frame`` with an empty entry list,
and each entry is ``json.dumps`` of its own ``to_json``, re-indented;
``to_json`` builds a fresh tree that holds no cycle, so the encoder skips
its cycle check.  The check is byte-exact over every entry, and no census
text or census dict is held whole.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator

from .census import (
    Census,
    CensusEntry,
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
    check_search_order,
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
    """What the suites read of one color group H, built once: its tables,
    the entries of both census pipelines, all under one cap, each
    partition a suite asks for, built on first use, and the perfect
    verdict of each distinct partition, kept in ``verdicts``, which the
    sweeps of one run share: the verdict does not depend on H."""

    def __init__(
        self,
        G: FiniteGroup,
        H: Subgroup,
        cap: int | None,
        verdicts: dict[tuple[tuple[int, ...], ...], bool],
    ):
        self.H = H
        self.tables = ColorGroupTables(G, H, cap)
        self.type2 = enumerate_type2(self.tables)
        self.type1 = enumerate_type1(self.tables)
        self.type1_partitions: dict[tuple[tuple[int, ...], int], GroupPartition] = {}
        self.type2_partitions: dict[tuple[tuple[int, ...], ...], GroupPartition] = {}
        self.verdicts = verdicts

    def type1_partition(self, J: Subgroup, r: int) -> GroupPartition:
        """``type1_partition(H, J, r)``, one per right coset J*r, which is
        named by its smallest member."""
        table = self.H.group.table
        key = (J.members, min(table[j][r] for j in J.members))
        P = self.type1_partitions.get(key)
        if P is None:
            P = self.type1_partitions[key] = type1_partition(self.H, J, r)
        return P

    def type2_partition(self, J1: Subgroup, J2: Subgroup) -> GroupPartition:
        """``type2_partition(H, J1, J2)``, one per ordered pair."""
        key = (J1.members, J2.members)
        P = self.type2_partitions.get(key)
        if P is None:
            P = self.type2_partitions[key] = type2_partition(self.H, J1, J2)
        return P

    def partition_of(self, entry: CensusEntry) -> GroupPartition:
        """The partition of a census entry's recipe: that of
        ``entry.partition``, read through J^l and r for type 1."""
        if entry.kind == "type1":
            return self.type1_partition(entry.J.conjugated_by(entry.l), entry.r)
        return self.type2_partition(entry.J1, entry.J2)

    def parts(self) -> list[tuple[Subgroup, str, list[CensusEntry]]]:
        """The census parts of H, as ``enumerate_all_semiperfect`` orders
        them: the type-1 part, then the type-2 part."""
        return [(self.H, "type1", self.type1), (self.H, "type2", self.type2)]

    def perfect(self, P: GroupPartition) -> bool:
        """``stabilized_by_whole_group(G, P)``, one walk of G per distinct
        partition: recipes that build the same blocks, in this color group
        or another, share its verdict."""
        verdict = self.verdicts.get(P.blocks)
        if verdict is None:
            verdict = self.verdicts[P.blocks] = stabilized_by_whole_group(self.H.group, P)
        return verdict


def _timed(suite: Suite, fn):
    start = time.perf_counter()
    fn(suite)
    suite.seconds = time.perf_counter() - start
    return suite


def run_verification(G: FiniteGroup, exhaustive: bool = False) -> VerificationReport:
    # Above the bound the lattice walk or conjugate-transport's search would
    # refuse G after other suites ran; refuse it before any suite runs.
    check_search_order(G.order, "automorphism-search")
    color_groups = _color_groups(G, exhaustive)
    # Every color group has index 2, so one order decides the sweep: the
    # full lattice of H up to order 16, else its subgroups of index <= 4.
    cap = None if G.order <= 32 else 4
    verdicts: dict[tuple[tuple[int, ...], ...], bool] = {}
    sweeps = [_Sweep(G, H, cap, verdicts) for H in color_groups]

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
    # Uncapped sweeps enumerated the whole census of their color groups:
    # census-determinism takes it as its first census.  No later suite
    # reads the sweeps, so their partitions are freed before the diagrams
    # and the fresh enumeration are built.
    built = []
    if cap is None:
        built.append(Census.from_parts(G, [part for sweep in sweeps for part in sweep.parts()]))
    del sweeps, verdicts
    if G.descriptor.get("kind") == "p4m_quotient":
        suites.append(
            _timed(Suite("diagram-soundness"), lambda s: _suite_diagram(s, G, exhaustive))
        )
    suites.append(
        _timed(Suite("census-determinism"), lambda s: _suite_determinism(s, G, color_groups, built))
    )
    return VerificationReport(G, suites)


def _color_groups(G: FiniteGroup, exhaustive: bool) -> list[Subgroup]:
    """The color groups ``run_verification`` sweeps: every index-2 subgroup
    of a group of order <= 16 or under ``exhaustive``, else the standard
    ones (and, for a p4m quotient, <b, a2b, x, y>)."""
    color_groups = subgroups_of_index(G, 2)
    if not exhaustive and G.order > 16:
        preferred = standard_color_groups(G)
        if G.descriptor.get("kind") == "p4m_quotient":
            preferred = preferred + [
                subgroup_generated(G, G.elements_from_words(["b", "a2b", "x", "y"]))
            ]
        keys = {H.members for H in preferred if 2 * H.order == G.order}
        color_groups = [H for H in color_groups if H.members in keys] or color_groups[:2]
    return color_groups


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
            reps = H._coset_reps[K.members]  # left_coset_reps(H, K), kept on H by the tables
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
    # sweep builds, and the oracle decides, one partition per coset; the
    # fast classifier still runs, and is checked, for every r.
    for sweep in sweeps:
        H = sweep.H
        outside = H.complement()
        for J in sweep.tables.pool:
            for r in outside:
                fast = classify_type1(J, r, H).perfect
                suite.check(
                    fast == sweep.perfect(sweep.type1_partition(J, r)),
                    lambda: f"one-orbit verdict mismatch J={J} r={G.labels[r]} H={H}",
                )


def _suite_type2(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    for sweep in sweeps:
        H = sweep.H
        for J1, J2 in combinations_with_replacement(sweep.tables.pool, 2):
            fast = classify_type2(J1, J2, H) == PERFECT
            # P(J2, J1) = y*P(J1, J2) has the same verdict: decide the pair
            # in enumerate_type2's orientation, whose partition
            # orbit-size-two reads for the pair's census entry.
            lo, hi = sorted((J1, J2), key=lambda J: (J.order, J.members))
            oracle = sweep.perfect(sweep.type2_partition(lo, hi))
            suite.check(
                fast == oracle,
                lambda: f"two-orbit verdict mismatch J1={J1} J2={J2} H={H}",
            )


def _suite_orbits(suite: Suite, G: FiniteGroup, sweeps: list[_Sweep]):
    for sweep in sweeps:
        H = sweep.H
        for entry in sweep.type2 + sweep.type1:
            table = orbit_table(sweep.partition_of(entry), G)
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
            cls = color_action(H, table).classification
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
            P = sweep.type1_partition(bJ.conjugated_by(l), r)
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
            moved = conjugate_spec(entry, alpha)
            suite.check(
                moved.verdict() == entry.verdict(),
                lambda: f"transport changed verdict for {entry.key_string()}",
            )
            suite.check(
                action_equivalence_check(
                    entry.H, sweep.partition_of(entry), moved.H, moved.partition, alpha
                ),
                lambda: f"transported action differs for {entry.key_string()}",
            )
    suite.check(True, "transport sweep completed")


def action_equivalence_check(
    H: Subgroup,
    P: GroupPartition,
    H2: Subgroup,
    P2: GroupPartition,
    alpha: GroupAutomorphism,
) -> bool:
    """Verify that the color action of H on P matches that of H2 on P2.

    ``P._block_image(alpha.images, P2)`` is both the image test and the
    witness bijection f: it sends block i of P to the block of P2 holding
    its alpha-image, and with equally many blocks it proves P2 = alpha(P).
    Compatibility means alpha(h) acts on P2-blocks exactly as h acts on
    P-blocks, for every h in H.
    """
    if alpha.apply_subgroup(H).members != H2.members:
        raise InvalidParameterError("H2 is not the alpha-image of H")
    f = P._block_image(alpha.images, P2)
    if f is None or P2.num_blocks != P.num_blocks:
        raise InvalidParameterError("P2 is not the alpha-image of P")
    for h in H.members:
        perm = P.permutation_induced_by(h)
        perm2 = P2.permutation_induced_by(alpha(h))
        if any(perm2[f[i]] != f[perm[i]] for i in range(len(f))):
            return False
    return True


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


def _suite_determinism(suite: Suite, G: FiniteGroup, color_groups, built: list[Census]):
    # Two enumerations serialize alike, and the writer matches the
    # json.dumps oracle; only digests are held, never a census text.  The
    # first census is the one in ``built``, when the sweeps built it, else a
    # fresh enumeration; it is popped, so it is freed before the second.
    census = built.pop() if built else enumerate_all_semiperfect(G, H_filter=color_groups)
    first = _digest(census.chunks())
    oracle = _digest(_oracle_chunks(census))
    del census
    second = _digest(enumerate_all_semiperfect(G, H_filter=color_groups).chunks())
    suite.check(
        first == oracle == second,
        lambda: "census serialization is not reproducible"
        if first != second
        else "census writer differs from json.dumps(Census.to_json())",
    )


def _oracle_chunks(census: Census) -> Iterator[str]:
    """``json.dumps(census.to_json(), indent=2, sort_keys=True) + "\\n"`` in
    pieces: ``json.dumps`` of the census with an empty entry list, split at
    that list, around ``json.dumps`` of each entry re-indented to its depth.
    JSON text holds no raw newline outside its layout, so re-indenting every
    line break is exact."""
    frame = json.dumps({**census._frame(), "entries": []}, indent=2, sort_keys=True)
    head, _, tail = frame.partition('"entries": []')
    yield head + '"entries": '
    if not census.entries:
        yield "[]"
    else:
        encode = json.JSONEncoder(indent=2, sort_keys=True, check_circular=False).encode
        opening = "[\n    "
        for e in census.entries:
            yield opening + encode(e.to_json()).replace("\n", "\n    ")
            opening = ",\n    "
        yield "\n  ]"
    yield tail + "\n"


def _digest(pieces: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece.encode())
    return digest.hexdigest()

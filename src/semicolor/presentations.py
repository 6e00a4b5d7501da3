"""Low-index subgroup counting for finitely presented groups.

A subgroup of index k is the stabilizer of coset 0 in a complete coset
table on k cosets whose rows satisfy every relator.  Numbering new cosets
in order of first use makes that table unique (C. C. Sims, *Computation
with Finitely Presented Groups*, 1994, ch. 5), so filling such tables
entry by entry counts each subgroup exactly once.

Words use one letter per generator; an uppercase letter is the inverse of
its lowercase generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError, ResourceLimitError
from .groups import FiniteGroup

MAX_INDEX = 16
#: Coset tables one search may visit.
MAX_SEARCH_SPACE = 500_000


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise InvalidParameterError("duplicate generator names")
        for name in self.generators:
            if len(name) != 1 or not name.isalpha() or not name.islower():
                raise InvalidParameterError(
                    f"generator names must be single lowercase letters, got {name!r}"
                )
        for rel in self.relators:
            for ch in rel:
                if ch.lower() not in self.generators:
                    raise InvalidParameterError(
                        f"relator {rel!r} uses undeclared generator {ch!r}"
                    )

    def relator_symbols(self) -> list[list[tuple[int, bool]]]:
        """Each relator as a list of (generator index, inverted) steps."""
        index = {name: i for i, name in enumerate(self.generators)}
        return [[(index[ch.lower()], ch.isupper()) for ch in rel] for rel in self.relators]

    def evaluate_in(self, group: FiniteGroup, images: dict[str, str | int]) -> list[int]:
        """Evaluate every relator at the given generator images.

        Returns the list of resulting elements; all must be the identity
        for the images to define a homomorphism from the presented group.
        """
        resolved = list(group.generator_images(self.generators, images))
        out = []
        for steps in self.relator_symbols():
            acc = group.identity
            for gi, inverted in steps:
                g = resolved[gi]
                if inverted:
                    g = group.inverse[g]
                acc = group.table[acc][g]
            out.append(acc)
        return out


# The square-lattice wallpaper presentation on a quarter turn a, a mirror b
# and unit translations x, y:
#   a^4 = b^2 = (ab)^2 = e,  x y = y x,
#   a x a^-1 = y,  a y a^-1 = x^-1,  b x b^-1 = x,  b y b^-1 = y^-1.
P4M_RELATORS = ("aaaa", "bb", "abab", "xyXY", "axAY", "ayAx", "bxBX", "byBy")

#: Built-in presentations with their embeddings into the quotient groups.
#: "p4m_sub" and "p4m_sub_alt" present the two index-2 square-lattice color
#: groups on their own generators; both satisfy the same relations, so all
#: three names point at one presentation.
BUILTIN_PRESENTATIONS: dict[str, Presentation] = dict.fromkeys(
    ("p4m", "p4m_sub", "p4m_sub_alt"), Presentation(("a", "b", "x", "y"), P4M_RELATORS)
)

BUILTIN_EMBEDDINGS: dict[str, dict[str, str]] = {
    "p4m": {"a": "a", "b": "b", "x": "x", "y": "y"},
    "p4m_sub": {"a": "a", "b": "ab", "x": "xy", "y": "Xy"},
    "p4m_sub_alt": {"a": "xa", "b": "ab", "x": "xy", "y": "Xy"},
}


def builtin_presentation(name: str) -> Presentation:
    try:
        return BUILTIN_PRESENTATIONS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown presentation {name!r}; built-ins: {sorted(BUILTIN_PRESENTATIONS)}"
        ) from None


def _scan(table: list, n: int, relators: list[list[int]], width: int) -> bool:
    """Trace every relator from every coset below n until nothing changes.

    A trace with exactly one undefined entry defines it and its inverse; a
    complete trace that does not close returns False.
    """
    changed = True
    while changed:
        changed = False
        for c in range(n):
            for rel in relators:
                f, i = c, 0
                while i < len(rel) and table[f * width + rel[i]] is not None:
                    f, i = table[f * width + rel[i]], i + 1
                b, j = c, len(rel)
                while j > i and table[b * width + (rel[j - 1] ^ 1)] is not None:
                    b, j = table[b * width + (rel[j - 1] ^ 1)], j - 1
                if j == i and f != b:
                    return False
                if j == i + 1:
                    table[f * width + rel[i]] = b
                    table[b * width + (rel[i] ^ 1)] = f
                    changed = True
    return True


def _children(table: list, n: int, p: int, k: int, relators: list[list[int]], width: int):
    """The tables that fill entry p, the first undefined one in row-major
    order, with a defined coset or, below k cosets, with the next new one;
    an entry is only set where its inverse entry is still empty."""
    c, x = divmod(p, width)
    for d in range(min(n + 1, k)):
        if table[d * width + (x ^ 1)] is None:
            child = table.copy()
            child[p], child[d * width + (x ^ 1)] = d, c
            m = max(n, d + 1)
            if _scan(child, m, relators, width):
                yield child, m, p + 1


def low_index_subgroup_count(P: Presentation, k: int) -> int:
    """Number of index-k subgroups of the presented group.

    Sims' low-index search: fill a coset table whose new cosets are numbered
    in order of first use, so each subgroup has one standard table and no
    deduplication is needed.  Subgroups are counted individually, not up to
    conjugacy.  The search keeps its own stack, so its depth is bounded by
    memory, not by the interpreter's recursion limit, and it visits at most
    MAX_SEARCH_SPACE tables.
    """
    if k < 1:
        raise InvalidParameterError("index must be a positive integer")
    if k > MAX_INDEX:
        raise ResourceLimitError(f"index {k} exceeds the bound MAX_INDEX = {MAX_INDEX}")
    # Column 2i is generator i and column 2i + 1 its inverse, so x ^ 1 inverts x.
    width = 2 * len(P.generators)
    relators = [[2 * gi + inverted for gi, inverted in steps] for steps in P.relator_symbols()]
    # Entries before a table's start are defined; one spare None marks the end.
    # The root needs no scan: every other table is scanned after its last entry.
    stack = [iter([([None] * (k * width + 1), 1, 0)])]
    count = nodes = 0
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > MAX_SEARCH_SPACE:
            raise ResourceLimitError(
                f"index-{k} search exceeds the bound of {MAX_SEARCH_SPACE} coset tables"
            )
        table, n, start = state
        p = table.index(None, start)
        if p >= n * width:
            count += n == k
        else:
            stack.append(_children(table, n, p, k, relators, width))
    return count

"""Command-line front end.

Subcommands: subgroups, enumerate, table1, verify, render, conjugate.
Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .census import (
    ColoringSpec,
    GroupAutomorphism,
    _Memo,
    conjugate_spec,
    enumerate_all_semiperfect,
    find_conjugating_automorphism,
    reference_grid_csv,
    standard_color_groups,
)
from .errors import InvalidParameterError, SemicolorError
from .groups import (
    all_subgroups,
    build_dihedral,
    generating_words,
    group_from_descriptor,
    parse_group_arg,
    subgroup_from_words,
    subgroups_of_index,
    whole_group,
)
from .render import MAX_CELLS, PALETTES, render_svg
from .tiles import tile_map_for, transfer_table
from .verify import run_verification


def main(argv=None) -> int:
    """Run one command line (default ``sys.argv[1:]``); return its exit code.

    When ``argv[0]`` names a subcommand, only that subcommand's parser is
    built; every other argv (none, a top-level option first, an unknown
    command) takes the full parser.  Help and error texts are the same.
    """
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except SemicolorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def _parse(argv):
    """The namespace of a command line, as ``_build_parser()`` parses it."""
    if not argv or argv[0] not in _COMMANDS:
        return _build_parser().parse_args(argv)
    _, declare, run = _COMMANDS[argv[0]]
    parser = argparse.ArgumentParser(prog=f"semicolor {argv[0]}")  # as add_parser names it
    declare(parser)
    args, extra = parser.parse_known_args(argv[1:])
    if extra:  # the error argparse gives for what a subparser leaves over
        _build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    args.command, args.func = argv[0], run
    return args


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="semicolor",
        description="Enumerate, classify and render semiperfect colorings of "
        "symmetric patterns via partitions of their symmetry groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, declare, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=run)
        declare(p)
    return parser


def _subgroups_args(p):
    p.add_argument("--group", required=True, help="group descriptor, e.g. dihedral:6")
    p.add_argument("--of", help="restrict to subgroups of this subgroup, e.g. a2,b")
    p.add_argument("--index", type=int, help="only subgroups of this index")
    p.add_argument("--out", help="write JSON here instead of stdout")


def _enumerate_args(p):
    p.add_argument("--group", required=True)
    p.add_argument(
        "--H",
        action="append",
        help="color group generators (repeatable); default: the standard "
        "index-2 color groups of the pattern",
    )
    p.add_argument("--type", choices=["1", "2", "all"], default="all",
                   help="1: one-orbit colorings, 2: two-orbit colorings, all: both")
    p.add_argument("--max-colors", type=int)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write the census here")


def _table1_args(p):
    p.add_argument("--out", help="write CSV here instead of stdout")


def _verify_args(p):
    p.add_argument("--group", required=True)
    p.add_argument("--exhaustive", action="store_true")


def _render_args(p):
    p.add_argument("spec", help="coloring spec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--palette", default="default", help=f"one of {sorted(PALETTES)}")
    p.add_argument(
        "--cells",
        default="1x1",
        help=f"repeat blocks for p4m, e.g. 2x2; at most {MAX_CELLS} blocks in all (exit 3)",
    )


def _conjugate_args(p):
    p.add_argument("spec", help="coloring spec JSON file")
    p.add_argument("--map", help='generator images, e.g. "a=a5,b=ab"')
    p.add_argument("--onto", help="search for an automorphism carrying H onto this subgroup")
    p.add_argument("--table", action="store_true", help="also print the recoloring table")
    p.add_argument("--out", help="write the conjugated spec JSON here")


def _emit(text: str | Iterable[str], out: str | None):
    """Write ``text``, one string or an iterable of pieces, to the file
    ``out``, or to stdout when ``out`` is None.

    Every command writes through here, so an unwritable path, the empty
    one included, exits 2, also when the write fails part-way."""
    pieces = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(pieces)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {out}: {exc.strerror or exc}") from None


def cmd_subgroups(args) -> int:
    group = group_from_descriptor(parse_group_arg(args.group))
    universe = subgroup_from_words(group, args.of) if args.of else whole_group(group)
    if args.index is not None:
        subs = subgroups_of_index(universe, args.index)
    else:
        subs = all_subgroups(universe)
    payload = {
        "group": group.descriptor,
        "within": universe.label_list(),
        "count": len(subs),
        "subgroups": [
            {"generators": generating_words(s), "order": s.order, "members": s.label_list()}
            for s in subs
        ],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_enumerate(args) -> int:
    group = group_from_descriptor(parse_group_arg(args.group))
    if args.H:
        color_groups = []
        given: dict[tuple[int, ...], str] = {}
        for spec in args.H:
            H = subgroup_from_words(group, spec)
            if H.members in given:
                raise InvalidParameterError(
                    f"color group <{','.join(H.label_list())}> is given twice: "
                    f"--H {spec} repeats --H {given[H.members]}"
                )
            given[H.members] = spec
            color_groups.append(H)
    else:
        color_groups = standard_color_groups(group)
    for H in color_groups:
        if 2 * H.order != group.order:
            raise InvalidParameterError(
                f"color group <{','.join(H.label_list())}> does not have index 2"
            )
    if args.out is not None:  # fail before the long run on a path _emit could not write
        out = Path(args.out)  # Path("") is the working directory
        if not args.out or out.is_dir() or not out.parent.is_dir():
            reason = (
                "No such file or directory" if not args.out
                else "Is a directory" if out.is_dir()
                else f"{out.parent} is not a directory"
            )
            raise InvalidParameterError(f"cannot write {args.out}: {reason}")
    kinds = {"1": ("type1",), "2": ("type2",), "all": ("type1", "type2")}[args.type]
    census = enumerate_all_semiperfect(
        group,
        H_filter=color_groups,
        kinds=kinds,
        max_colors=args.max_colors,
    )
    if args.out is not None:
        _emit(census.chunks() if args.format == "json" else _census_csv(census), args.out)
    for (h_key, kind), count in sorted(census.by_part.items()):
        print(f"{h_key} {kind}: {count}")
    for note in census.notes:
        print(f"note: {note}")
    print(f"{census.total} semiperfect")
    return 0


def _census_csv(census) -> Iterator[str]:
    """The census CSV, one line at a time: the header, then one row per entry."""
    yield "H,kind,detail,numColors,numColorOrbits,kernelOrder,colorPermGroupOrder,equivalenceKey\n"
    labs = census.group.labels
    h_words = _Memo(generating_words)  # one display word per color group
    members = _Memo(lambda m: " ".join(map(labs.__getitem__, m)))  # one per subgroup
    for e in census.entries:
        if e.kind == "type1":
            detail = f"J=<{members[e.J.members]}> l={labs[e.l]} r={labs[e.r]}"
        else:
            detail = f"J1=<{members[e.J1.members]}> J2=<{members[e.J2.members]}> y={labs[e.y]}"
        c = e.classification
        yield ",".join(
            [
                h_words[e.H],
                e.kind,
                detail,
                str(c.num_colors),
                str(c.num_color_orbits),
                str(c.kernel_order),
                str(c.color_perm_group_order),
                e.key_string(),
            ]
        ) + "\n"


def cmd_table1(args) -> int:
    group = build_dihedral(6)
    H = subgroup_from_words(group, "a2,b")
    _emit(reference_grid_csv(group, H), args.out)
    return 0


def cmd_verify(args) -> int:
    group = group_from_descriptor(parse_group_arg(args.group))
    report = run_verification(group, exhaustive=args.exhaustive)
    for line in report.lines():
        print(line)
    if report.passed:
        print("all suites passed")
        return 0
    print("verification FAILED")
    return 1


def _load_spec(path: str) -> ColoringSpec:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidParameterError(f"spec file not found: {path}") from None
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InvalidParameterError(f"spec file is not UTF-8 text: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"spec file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidParameterError("spec file must hold a JSON object")
    desc = data.get("group")
    if desc is None:
        raise InvalidParameterError("spec file carries no group descriptor")
    group = group_from_descriptor(desc)
    return ColoringSpec.from_json(group, data)


def cmd_render(args) -> int:
    spec = _load_spec(args.spec)
    tile_map = tile_map_for(spec.group)
    block_of = {
        spec.group.labels[g]: spec.partition.block_of[g] for g in spec.group.elements
    }
    m, x, n = args.cells.partition("x")
    if not all(s.isascii() and s.isdigit() for s in (m, n if x else m)):  # no sign, space or _
        raise InvalidParameterError(f"cannot parse cells {args.cells!r}")
    cells = (int(m), int(n or m))
    _emit(render_svg(tile_map, block_of, palette=args.palette, cells=cells), args.out)
    colors, fills = spec.partition.num_blocks, len(PALETTES[args.palette])
    print(f"wrote {args.out}: {colors} colors, {spec.verdict()}")
    if colors > fills:
        print(f"note: {colors} colors but palette {args.palette!r} has {fills} fills, "
              f"so fills repeat modulo {fills}", file=sys.stderr)
    return 0


def cmd_conjugate(args) -> int:
    spec = _load_spec(args.spec)
    group = spec.group
    if bool(args.map) == bool(args.onto):
        raise InvalidParameterError("give exactly one of --map and --onto")
    if args.map:
        images = {}
        for piece in args.map.split(","):
            name, _, word = piece.partition("=")
            if not word:
                raise InvalidParameterError(f"cannot parse generator image {piece!r}")
            name = name.strip()
            if name in images:
                raise InvalidParameterError(f"--map names the generator {name!r} twice")
            images[name] = word.strip()
        alpha = GroupAutomorphism.from_generator_images(group, images)
    else:
        target = subgroup_from_words(group, args.onto)
        alpha = find_conjugating_automorphism(group, spec.H, target)
        if alpha is None:
            raise InvalidParameterError("no automorphism carries H onto the target subgroup")
    moved = conjugate_spec(spec, alpha)
    payload = {
        "automorphism": alpha.generator_map(),
        "spec": moved.to_json(),
        "verdict": moved.verdict(),
        "blocks": moved.partition.labels_json(),
    }
    tile_map = tile_map_for(group) if args.table else None  # exit 2 before writing
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    if tile_map is not None:
        coloring = {
            group.labels[g]: spec.partition.block_of[g] + 1 for g in group.elements
        }
        perm = {group.labels[g]: group.labels[alpha(g)] for g in group.elements}
        print("domain,original,image,new")
        for row in transfer_table(tile_map, coloring, perm):
            print(f"{row.domain},{row.original},{row.image},{row.new}")
    return 0


#: Each subcommand's help, the function declaring its arguments, its handler.
_COMMANDS = {
    "subgroups": ("list subgroups of a group or of a subgroup", _subgroups_args, cmd_subgroups),
    "enumerate": (
        "census of inequivalent semiperfect colorings", _enumerate_args, cmd_enumerate
    ),
    "table1": (
        "the 18-row reference grid of one-orbit colorings of the hexagonal pattern",
        _table1_args,
        cmd_table1,
    ),
    "verify": ("run the oracle-versus-classifier suites", _verify_args, cmd_verify),
    "render": ("render a coloring spec file to SVG", _render_args, cmd_render),
    "conjugate": (
        "transport a coloring spec along a group automorphism", _conjugate_args, cmd_conjugate
    ),
}


if __name__ == "__main__":
    sys.exit(main())

import hashlib
import json
import os
from pathlib import Path

import pytest

import semicolor.census
import semicolor.cli
from semicolor.census import (
    Census,
    ColoringSpec,
    enumerate_all_semiperfect,
    standard_color_groups,
)
from semicolor.cli import main
from semicolor.groups import build_dihedral, build_p4m_quotient, subgroup_from_words


# Spec files that are valid JSON but not valid coloring specs.
MALFORMED_SPECS = {
    "list": "[1, 2]",
    "type2-without-J1": json.dumps(
        {"group": {"kind": "dihedral", "n": 6}, "H": ["e"], "kind": "type2", "J2": ["e"]}
    ),
    "group-without-n": json.dumps(
        {"group": {"kind": "dihedral"}, "H": ["e"], "kind": "type2", "J1": ["e"], "J2": ["e"]}
    ),
    "number-as-label": json.dumps(
        {"group": {"kind": "dihedral", "n": 6}, "H": [5], "kind": "type2", "J1": [], "J2": []}
    ),
    "number-as-subgroup": json.dumps(
        {
            "group": {"kind": "dihedral", "n": 6},
            "H": ["e", "a^2", "a^4", "b", "a^2b", "a^4b"],
            "kind": "type2",
            "J1": 5,
            "J2": ["e"],
        }
    ),
    # A string is not read as the list of its characters.
    "string-as-subgroup": json.dumps(
        {
            "group": {"kind": "dihedral", "n": 6},
            "H": ["e", "a^2", "a^4", "b", "a^2b", "a^4b"],
            "kind": "type1",
            "J": "e",
            "r": "a",
        }
    ),
    "type2-y-inside-H": json.dumps(
        {
            "group": {"kind": "dihedral", "n": 6},
            "H": ["e", "a^2", "a^4", "b", "a^2b", "a^4b"],
            "kind": "type2",
            "J1": ["e", "a^2b"],
            "J2": ["e", "a^2", "a^4", "b", "a^2b", "a^4b"],
            "y": "a^2",
        }
    ),
}


@pytest.fixture
def four_color_spec_file(tmp_path, d6, hexH):
    spec = ColoringSpec.type2(
        hexH, subgroup_from_words(d6, "a2b"), hexH, d6.element("a3")
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["subgroups", "--group", "dihedral:6"],
        ["enumerate", "--group", "dihedral:6", "--H", "a2,b"],
        ["enumerate", "--group", "dihedral:6", "--H", "a2,b", "--format", "csv"],
        ["table1"],
        ["render", "{spec}"],
        ["conjugate", "{spec}", "--map", "a=a5,b=ab"],
    ],
    ids=["subgroups", "enumerate-json", "enumerate-csv", "table1", "render", "conjugate"],
)
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, four_color_spec_file, argv):
    # The empty path is a path that cannot be written, not stdout; enumerate
    # refuses both before enumerating.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated although --out cannot be written")

    monkeypatch.setattr(semicolor.cli, "enumerate_all_semiperfect", refuse)
    argv = [str(four_color_spec_file) if a == "{spec}" else a for a in argv]
    for out in (tmp_path / "missing" / "x", ""):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


COMMAND_NAMES = ["subgroups", "enumerate", "table1", "verify", "render", "conjugate"]


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _outcome(parse, argv, capsys):
    """The parsed namespace as a dict, or the exit code; then stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        *([name, "-h"] for name in COMMAND_NAMES),
        [],
        ["bogus", "--group", "dihedral:6"],
        ["verify"],
        ["render", "spec.json"],
        ["--bogus", "verify", "--group", "dihedral:6"],
        ["render", "x", "--out", "y", "--zz"],
        ["enumerate", "--group", "g", "--type", "3"],
        ["subgroups", "--group", "g", "--index", "x"],
        ["enumerate", "--gr", "dihedral:6"],
        ["render", "spec.json", "--cells=4x4", "--out", "o.svg"],
        ["render", "--out", "o.svg", "--", "spec.json"],
        ["-h", "render"],
        ["conjugate", "spec.json", "--map", "a=a5,b=ab", "--table", "--out", "o.json"],
    ],
    ids=[*(f"{name}-help" for name in COMMAND_NAMES), "no-arguments", "unknown-command",
         "missing-option", "missing-required-out", "unknown-option-first",
         "unrecognized-after-command", "bad-choice", "bad-int", "abbreviated-option",
         "option-equals-value", "double-dash-positional", "help-first", "conjugate-parses"],
)
def test_only_invoked_arguments_declared_same_output(capsys, argv):
    # main builds only the invoked subcommand's parser when argv[0] names
    # it; it must parse, exit, print and complain exactly as a parser
    # declaring every subcommand's arguments.
    assert list(semicolor.cli._COMMANDS) == COMMAND_NAMES
    full = semicolor.cli._build_parser()
    expected = _outcome(full.parse_args, argv, capsys)
    assert _outcome(semicolor.cli._parse, argv, capsys) == expected
    if isinstance(expected[0], dict):
        assert expected[0]["func"] is semicolor.cli._COMMANDS[expected[0]["command"]][2]
    else:
        assert expected[0] in (0, 2)
        assert _exit_of(main, argv, capsys) == expected


class TestSubgroupsCommand:
    def test_subgroups_of_color_group(self, capsys):
        assert main(["subgroups", "--group", "dihedral:6", "--of", "a2,b"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 6

    def test_index_filter(self, capsys):
        assert main(["subgroups", "--group", "dihedral:6", "--index", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3

    def test_index_one(self, capsys):
        assert main(["subgroups", "--group", "dihedral:6", "--index", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 1

    def test_bad_descriptor_exits_two(self, capsys):
        assert main(["subgroups", "--group", "unknown:6"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_resource_limit_exits_three(self, capsys):
        # Order 514: above the subgroup-search bound, and not a 2-group.
        assert main(["subgroups", "--group", "dihedral:257"]) == 3

    # Groups above the multiplication-table bound are refused before their
    # order^2 table is allocated (tens of GB for these two).
    @pytest.mark.parametrize(
        "argv",
        [
            ["subgroups", "--group", "dihedral:20000", "--index", "2"],
            ["enumerate", "--group", "p4m_quotient:100"],
        ],
    )
    def test_oversize_group_exits_three(self, capsys, argv):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "multiplication-table bound" in err


class TestEnumerateCommand:
    def test_two_orbit_census(self, capsys):
        assert main(["enumerate", "--group", "dihedral:6", "--H", "a2,b", "--type", "2"]) == 0
        assert "15 semiperfect" in capsys.readouterr().out

    def test_full_hexagon_census(self, capsys):
        code = main(
            ["enumerate", "--group", "dihedral:6", "--H", "a2,b", "--H", "a", "--type", "all"]
        )
        assert code == 0
        assert "25 semiperfect" in capsys.readouterr().out

    def test_rotation_color_group_has_no_one_orbit_colorings(self, capsys):
        assert main(["enumerate", "--group", "dihedral:6", "--H", "a", "--type", "1"]) == 0
        assert "0 semiperfect" in capsys.readouterr().out

    def test_census_file_output(self, capsys, tmp_path):
        out = tmp_path / "census.json"
        assert (
            main(
                [
                    "enumerate", "--group", "dihedral:6", "--H", "a2,b",
                    "--format", "json", "--out", str(out),
                ]
            )
            == 0
        )
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["total"] == 19
        assert len(data["entries"]) == 19

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "census.csv"
        main(
            [
                "enumerate", "--group", "dihedral:6", "--H", "a2,b",
                "--type", "2", "--format", "csv", "--out", str(out),
            ]
        )
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 16  # header + 15 entries

    def test_square_default_color_groups_for_n_one(self, capsys, tmp_path):
        # For N = 1 both standard square color groups are the whole group, so
        # the default census covers every index-2 subgroup.
        default, named = tmp_path / "default.csv", tmp_path / "named.csv"
        argv = ["enumerate", "--group", "p4m_quotient:1", "--format", "csv", "--out"]
        assert main(argv + [str(default)]) == 0
        assert main(argv + [str(named), "--H", "a", "--H", "a2,b", "--H", "a2,ab"]) == 0
        assert default.read_bytes() == named.read_bytes()

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-parent", "directory"])
    def test_unwritable_out_fails_before_enumerating(self, tmp_path, capsys, monkeypatch, target):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated although --out cannot be written")

        monkeypatch.setattr(semicolor.cli, "enumerate_all_semiperfect", refuse)
        out = tmp_path / target
        assert main(["enumerate", "--group", "p4m_quotient:6", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--group", "dihedral:8"], None),
            (
                ["--group", "p4m_quotient:2", "--max-colors", "4", "--format", "csv"],
                "a95b66aa9b7ed6a1086f40aeb055e5b35c3ecb51e38c36bb7aebb468f2e59fa3",
            ),
        ],
        ids=["json", "csv"],
    )
    def test_out_streams_without_serialize(self, tmp_path, capsys, monkeypatch, argv, expected):
        # enumerate writes the census piece by piece and never builds the
        # whole document; the bytes are those of the one-string writers.
        def refuse(self):
            raise AssertionError("enumerate built the whole census text")

        monkeypatch.setattr(Census, "serialize", refuse)
        out = tmp_path / "census"
        assert main(["enumerate", *argv, "--out", str(out)]) == 0
        if expected is None:
            G = build_dihedral(8)
            census = enumerate_all_semiperfect(G, H_filter=standard_color_groups(G))
            text = json.dumps(census.to_json(), indent=2, sort_keys=True) + "\n"
            assert out.read_bytes() == text.encode()
        else:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_write_that_fails_part_way_exits_two(self, capsys, fmt):
        argv = ["enumerate", "--group", "dihedral:6", "--format", fmt, "--out", "/dev/full"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cannot write /dev/full: No space left on device\n"
        assert captured.out == ""

    def test_non_index_two_color_group_rejected(self, capsys):
        assert main(["enumerate", "--group", "dihedral:6", "--H", "a2"]) == 2

    @pytest.mark.parametrize("first, second", [("a2,b", "a2,b"), ("a2,b", "b,a2"), ("a", "a5")])
    def test_repeated_color_group_rejected(self, capsys, first, second):
        argv = ["enumerate", "--group", "dihedral:6", "--H", first, "--H", second]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: color group <")
        assert f"is given twice: --H {second} repeats --H {first}" in err


class TestTableCommand:
    def test_row_count_and_back_references(self, capsys):
        import csv
        import io

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 19
        assert rows[0] == ["J", "l", "r^l", "Resulting Coloring"]
        results = [row[3] for row in rows[1:]]
        assert results.count("perfect") == 10
        for tag in ("(1)", "(2)", "(3)", "(4)"):
            assert f"{tag} semiperfect" in results
            assert f"equivalent to {tag}" in results


class TestVerifyCommand:
    def test_hexagon_suites_pass(self, capsys):
        assert main(["verify", "--group", "dihedral:6"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out
        assert "FAIL" not in out

    def test_degenerate_group_is_vacuous(self, capsys):
        assert main(["verify", "--group", "dihedral:1"]) == 0

    def test_square_quotient_suites_pass_slow(self, capsys):
        assert main(["verify", "--group", "p4m_quotient:2"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out
        assert "diagram-soundness" in out


class TestRenderCommand:
    def test_writes_svg(self, tmp_path, capsys, four_color_spec_file):
        out = tmp_path / "out.svg"
        assert main(["render", str(four_color_spec_file), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<?xml")
        assert text.count("<polygon") == 12

    def test_deterministic_output(self, tmp_path, four_color_spec_file):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", str(four_color_spec_file), "--out", str(out1)])
        main(["render", str(four_color_spec_file), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["render", str(tmp_path / "nope.json"), "--out", "x.svg"]) == 2

    # A 12-color type-2 spec and a 16-color type-1 spec (J trivial) on the
    # order-32 square quotient; 12 colors fit the default palette exactly.
    @pytest.mark.parametrize(
        "kind, palette, note",
        [
            ("type2", "default", ""),
            ("type2", "quad", "12 colors but palette 'quad' has 4 fills, so fills repeat modulo 4"),
            ("type1", "default",
             "16 colors but palette 'default' has 12 fills, so fills repeat modulo 12"),
        ],
    )
    def test_palette_too_small_notes_on_stderr(self, tmp_path, capsys, kind, palette, note):
        g = build_p4m_quotient(2)
        if kind == "type2":
            H = subgroup_from_words(g, "b,a2b,x,y")
            spec = ColoringSpec.type2(H, subgroup_from_words(g, "b"), subgroup_from_words(g, "a2,x"))
        else:
            H = subgroup_from_words(g, "a,b,xy")
            spec = ColoringSpec.type1(H, subgroup_from_words(g, ""), g.element("ya"))
        path, out = tmp_path / "spec.json", tmp_path / "out.svg"
        path.write_text(json.dumps(spec.to_json()), encoding="utf-8")
        assert main(["render", str(path), "--palette", palette, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        colors = spec.partition.num_blocks
        assert captured.out == f"wrote {out}: {colors} colors, semiperfect\n"
        assert captured.err == (f"note: {note}\n" if note else "")

    @pytest.mark.parametrize(
        "command",
        [["render", "--out"], ["conjugate", "--map", "a=a", "--out"]],
        ids=["render", "conjugate"],
    )
    @pytest.mark.parametrize(
        "content", [None, *MALFORMED_SPECS.values()], ids=["missing", *MALFORMED_SPECS]
    )
    def test_unreadable_spec_exits_two(self, tmp_path, capsys, command, content):
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        argv = [command[0], str(path), *command[1:], str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [["render", "--out"], ["conjugate", "--map", "a=a", "--out"]],
        ids=["render", "conjugate"],
    )
    @pytest.mark.parametrize(
        "kind, param, value",
        [("dihedral", "n", 6.9), ("p4m_quotient", "N", 2.7), ("dihedral", "n", True),
         ("dihedral", "n", "6")],
        ids=["float", "float-N", "bool", "string"],
    )
    def test_group_parameter_that_is_not_an_int_exits_two(
        self, tmp_path, capsys, d6, hexH, command, kind, param, value
    ):
        # Each spec is valid once its parameter is truncated to an int: the
        # parameter is refused, not read as dihedral:6, p4m_quotient:2 or
        # dihedral:1.
        if kind == "dihedral":
            spec = ColoringSpec.type2(hexH, subgroup_from_words(d6, "a2b"), hexH, d6.element("a3"))
        else:
            g = build_p4m_quotient(2)
            H = subgroup_from_words(g, "b,a2b,x,y")
            spec = ColoringSpec.type2(H, subgroup_from_words(g, "b"), subgroup_from_words(g, "a2,x"))
        data = spec.to_json()
        data["group"] = {**data["group"], param: value}  # the group's own dict stays as it is
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [command[0], str(path), *command[1:], str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: group descriptor {data['group']!r} needs an integer {param!r}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command",
        [["render", "--out"], ["conjugate", "--map", "a=a", "--out"]],
        ids=["render", "conjugate"],
    )
    @pytest.mark.parametrize("content", [None, b"\xff\xfe{"], ids=["directory", "not-utf8"])
    def test_spec_that_cannot_be_read_exits_two(self, tmp_path, capsys, command, content):
        # A directory or a file that is not UTF-8 gives one error line, as a
        # write that fails does.
        path = tmp_path / "spec"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = [command[0], str(path), *command[1:], str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cells", ["0x0", "-1x2", "2x0", "0"])
    def test_cells_below_one_exit_two(self, tmp_path, capsys, cells):
        self._assert_render_rejects(tmp_path, capsys, cells, 2)

    # Only N or MxN in ASCII digits: int() alone would take signs, spaces,
    # underscores and non-ASCII digits.
    @pytest.mark.parametrize("cells", ["4x", "1_0x2", "+2x2", " 3 x2", "x4", "2x2x2", "\u0662x2"])
    def test_malformed_cells_exit_two(self, tmp_path, capsys, cells):
        err = self._assert_render_rejects(tmp_path, capsys, cells, 2)
        assert err == f"error: cannot parse cells {cells!r}\n"

    # More than 64x64 repeat blocks are refused before anything is drawn.
    @pytest.mark.parametrize("cells", ["65x64", "4097x1"])
    def test_cells_above_bound_exit_three(self, tmp_path, capsys, cells):
        self._assert_render_rejects(tmp_path, capsys, cells, 3)

    @staticmethod
    def _assert_render_rejects(tmp_path, capsys, cells, code):
        spec = {
            "group": {"kind": "p4m_quotient", "N": 1},
            "H": ["e", "a^2", "b", "a^2b"],
            "kind": "type2",
            "J1": ["e", "b"],
            "J2": ["e"],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out.svg"
        assert main(["render", str(path), f"--cells={cells}", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
        return err


def test_r_inside_H_gives_render_and_conjugate_one_error(tmp_path, capsys):
    spec = {
        "group": {"kind": "dihedral", "n": 6},
        "H": ["e", "a^2", "a^4", "b", "a^2b", "a^4b"],
        "kind": "type1",
        "J": ["e"],
        "r": "b",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    for argv in (
        ["render", str(path), "--out", str(out)],
        ["conjugate", str(path), "--map", "a=a5,b=ab"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: r must lie outside H\n"
    assert not out.exists()


class TestConjugateCommand:
    def test_explicit_map(self, capsys, four_color_spec_file):
        code = main(["conjugate", str(four_color_spec_file), "--map", "a=a5,b=ab"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "semiperfect"
        assert ["e", "a^5b"] in data["blocks"]

    def test_search_for_target(self, capsys, four_color_spec_file):
        code = main(["conjugate", str(four_color_spec_file), "--onto", "a2,ab"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(data["spec"]["H"]) == sorted(
            ["e", "a^2", "a^4", "ab", "a^3b", "a^5b"]
        )

    def test_recoloring_table_rows(self, capsys, four_color_spec_file):
        code = main(
            ["conjugate", str(four_color_spec_file), "--map", "a=a5,b=ab", "--table"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("domain,original,image,new")
        assert len(lines) - header - 1 == 12

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_table_without_layout_exits_two_before_writing(self, tmp_path, capsys, to_file):
        # dihedral:4 has no tile layout, so --table fails; nothing is written.
        g = build_dihedral(4)
        H = subgroup_from_words(g, "a2,b")
        path, out = tmp_path / "spec.json", tmp_path / "moved.json"
        path.write_text(json.dumps(ColoringSpec.type2(H, H, H).to_json()), encoding="utf-8")
        argv = ["conjugate", str(path), "--map", "a=a,b=b", "--table"]
        assert main([*argv, "--out", str(out)] if to_file else argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_map_that_drops_an_image_exits_two(self, tmp_path, capsys):
        # In p4m_quotient:1 the generators x and y are the identity, so the
        # image a^2 given for x extends to no automorphism.
        spec = {
            "group": {"kind": "p4m_quotient", "N": 1},
            "H": ["e", "a", "a^2", "a^3"],
            "kind": "type2",
            "J1": ["e"],
            "J2": ["e", "a^2"],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["conjugate", str(path), "--map", "a=a,b=b,x=a2,y=b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "options",
        [
            ["--map", "a=a5,b=ab,a=a"],
            ["--map", "a=a,b=b,a=a"],
            ["--map", "a=a5,b=ab", "--onto", "a2,ab"],
        ],
        ids=["generator-twice", "same-image-twice", "map-and-onto"],
    )
    def test_ambiguous_automorphism_exits_two(self, capsys, four_color_spec_file, options):
        # Neither a later image nor one of two ways to choose the map wins.
        assert main(["conjugate", str(four_color_spec_file), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_search_from_a_color_group_of_index_three_exits_two(self, tmp_path, capsys):
        spec = {
            "group": {"kind": "dihedral", "n": 6},
            "H": ["e", "a^2", "a^4"],
            "kind": "type1",
            "J": ["e"],
            "r": "a",
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["conjugate", str(path), "--onto", "a2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the color group H must have index 2\n"

    def test_requires_map_or_target(self, capsys, four_color_spec_file):
        assert main(["conjugate", str(four_color_spec_file)]) == 2


P4M4_SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "p4m4_spec.json"


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["render", "{type1}", "--out", "{out}"], 1),
        (["render", "{type2}", "--out", "{out}"], 1),
        (["conjugate", "{type2}", "--map", "a=a5,b=ab", "--table"], 2),
        (["conjugate", str(P4M4_SPEC), "--onto", "xa,ab,xy,Xy", "--table"], 2),
    ],
    ids=["render-type1", "render-type2", "conjugate-map", "conjugate-onto"],
)
def test_each_command_builds_each_partition_once(
    tmp_path, capsys, monkeypatch, d6, hexH, four_color_spec_file, argv, builds
):
    # ColoringSpec.partition builds anew on every read, so a command reads it
    # once into a local: one build for render's spec, and one each for
    # conjugate's spec and moved spec.
    type1 = tmp_path / "type1.json"
    spec = ColoringSpec.type1(hexH, subgroup_from_words(d6, "b"), d6.element("a"))
    type1.write_text(json.dumps(spec.to_json()), encoding="utf-8")
    paths = {"{type1}": str(type1), "{type2}": str(four_color_spec_file)}
    paths["{out}"] = str(tmp_path / "out.svg")
    built = []
    for fn in ("type1_partition", "type2_partition"):
        def counting(*args, plain=getattr(semicolor.census, fn)):
            built.append(args)
            return plain(*args)

        monkeypatch.setattr(semicolor.census, fn, counting)
    assert main([paths.get(a, a) for a in argv]) == 0
    capsys.readouterr()
    assert len(built) == builds

import json

import pytest

from semicolor.census import ColoringSpec
from semicolor.cli import main
from semicolor.groups import subgroup_from_words


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
}


@pytest.fixture
def four_color_spec_file(tmp_path, d6, hexH):
    spec = ColoringSpec.type2(
        hexH, subgroup_from_words(d6, "a2b"), hexH, d6.element("a3")
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()), encoding="utf-8")
    return path


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

    def test_resource_limit_exits_three(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMICOLOR_MAX_ORDER", "8")
        assert main(["subgroups", "--group", "dihedral:6"]) == 3


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

    @pytest.mark.parametrize("cells", ["0x0", "-1x2", "2x0", "0"])
    def test_cells_below_one_exit_two(self, tmp_path, capsys, cells):
        self._assert_render_rejects(tmp_path, capsys, cells, 2)

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

    def test_requires_map_or_target(self, capsys, four_color_spec_file):
        assert main(["conjugate", str(four_color_spec_file)]) == 2

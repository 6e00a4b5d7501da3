"""Byte-level pins of CLI outputs.

Each test compares the sha256 digest of one command's output with a fixed
value, so any change to the census JSON or CSV, the reference grid or the
SVG renderer fails here.
"""

import hashlib
import json

from semicolor.cli import main

HEXAGON_SPEC = {
    "group": {"kind": "dihedral", "n": 6},
    "H": ["e", "a^2", "a^4", "b", "a^2b", "a^4b"],
    "kind": "type2",
    "J1": ["e", "a^2b"],
    "J2": ["e", "a^2", "a^4", "b", "a^2b", "a^4b"],
    "y": "a^3",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_hexagon_census_json(tmp_path, capsys):
    out = tmp_path / "d6.json"
    assert main(["enumerate", "--group", "dihedral:6", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == (
        "a89bd88d0ad648865be5c9b3bd560b6f2f360c657b52ba7f863f5407a3519c88"
    )


def test_square_census_csv(tmp_path, capsys):
    # Names all three index-2 color groups of the N = 1 quotient; without
    # --H the command falls back to the same three, in another order.
    out = tmp_path / "p4m1.csv"
    argv = ["enumerate", "--group", "p4m_quotient:1", "--H", "a2,b", "--H", "a"]
    argv += ["--H", "a2,ab", "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    assert _sha(out.read_bytes()) == (
        "da9707fca8dba52a21c8fb36708a5894d0ce0b8cbe65aeb05b70ee17f6329a22"
    )


def test_square_census_json(tmp_path, capsys):
    # Both standard color groups and both kinds; the type-2 kernels here
    # depend on conjugating J2 by an element outside H.
    out = tmp_path / "p4m2.json"
    assert main(["enumerate", "--group", "p4m_quotient:2", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == (
        "e772fb3830146a849ae6bd9921160443d9e58c67e098810ba0d36abf3f36975a"
    )


def test_largest_square_census_json(tmp_path, capsys):
    # The order-128 group, capped at six colors: the largest census the
    # tests pin, where blocks span the most cosets.
    out = tmp_path / "p4m4.json"
    argv = ["enumerate", "--group", "p4m_quotient:4", "--max-colors", "6", "--out", str(out)]
    assert main(argv) == 0
    assert _sha(out.read_bytes()) == (
        "d680712e400155ef810afe739e1d84d79c0aee0aa1ca05606c8fa785a3652ccb"
    )


def test_table1(capsys):
    assert main(["table1"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == (
        "fa3378379e7a84dda2bc5dac424cd7ae5e561decc2a53e22133a4d50975a2fb4"
    )


def test_quad_palette_svg(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(HEXAGON_SPEC), encoding="utf-8")
    out = tmp_path / "quad.svg"
    assert main(["render", str(spec), "--palette", "quad", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == (
        "acbdb7623195ca22d1a2949b7803984466c218486fa980bb26e79ca73ec99962"
    )


def test_conjugate_map_table(tmp_path, capsys):
    # An explicit generator map, extended to an automorphism, and the
    # recoloring table it induces.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(HEXAGON_SPEC), encoding="utf-8")
    assert main(["conjugate", str(spec), "--map", "a=a5,b=ab", "--table"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == (
        "ad109c5a43f770dd440f9fa0a0511a71c794a221781e81c8420dc240bb83a333"
    )

import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from tverberg_nd import cli
from tverberg_nd.colorful import partition_colorful
from tverberg_nd.hamsandwich import generalized_ham_sandwich
from tverberg_nd.tverberg import partition_nearly_balanced

SVG_NS = "{http://www.w3.org/2000/svg}"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- loading


def test_load_points_csv_with_header_and_mixed_separators(tmp_path):
    path = _write(tmp_path / "pts.csv", "x,y\n1,2\n3 4\n# comment\n5,6\n")
    ps = cli.load_points(path)
    assert ps.coords.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_load_points_csv_errors_carry_line_numbers(tmp_path):
    path = _write(tmp_path / "bad.csv", "1,2\n3,nope\n")
    with pytest.raises(cli.ParseError, match=r"bad\.csv:2"):
        cli.load_points(path)
    path = _write(tmp_path / "ragged.csv", "1,2\n3\n")
    with pytest.raises(cli.ParseError, match="expected 2 columns"):
        cli.load_points(path)
    path = _write(tmp_path / "empty.csv", "")
    with pytest.raises(cli.ParseError, match="no data rows"):
        cli.load_points(path)


def test_load_points_json(tmp_path):
    path = _write(tmp_path / "pts.json", '{"dim": 2, "points": [[0, 1], [2, 3]]}')
    assert cli.load_points(path).coords.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    bad_dim = _write(tmp_path / "dim.json", '{"dim": 3, "points": [[0, 1]]}')
    with pytest.raises(cli.ParseError, match="dim field"):
        cli.load_points(bad_dim)
    no_points = _write(tmp_path / "nopts.json", '{"rows": []}')
    with pytest.raises(cli.ParseError, match='"points"'):
        cli.load_points(no_points)
    ragged = _write(tmp_path / "rag.json", '{"points": [[0, 1], [2]]}')
    with pytest.raises(cli.ParseError):
        cli.load_points(ragged)


def test_load_classes_json(tmp_path):
    path = _write(tmp_path / "cls.json", '{"dim": 1, "classes": [[[0], [1]], [[2], [3]]]}')
    inst = cli.load_classes(path)
    assert (inst.n_classes, inst.k, inst.dim) == (2, 2, 1)
    csv = _write(tmp_path / "cls.csv", "1,2\n")
    with pytest.raises(cli.ParseError, match="JSON"):
        cli.load_classes(csv)


# ------------------------------------------------------------- round trips


def test_tverberg_document_round_trip():
    pts = np.random.default_rng(1).standard_normal((20, 3))
    cert = partition_nearly_balanced(pts, 3)
    doc = cli._tverberg_doc(cert, "sha256:x", None)
    rebuilt = cli._tverberg_from_doc(json.loads(cli.emit_document(doc)))
    assert cli.emit_document(cli._tverberg_doc(rebuilt, "sha256:x", None)) == cli.emit_document(doc)


def test_colorful_document_round_trip():
    classes = np.random.default_rng(2).standard_normal((8, 3, 2))
    cert = partition_colorful(classes)
    doc = cli._colorful_doc(cert, "sha256:y", None)
    rebuilt = cli._colorful_from_doc(json.loads(cli.emit_document(doc)))
    assert cli.emit_document(cli._colorful_doc(rebuilt, "sha256:y", None)) == cli.emit_document(doc)


def test_hamsandwich_document_round_trip():
    rng = np.random.default_rng(3)
    sets = [rng.standard_normal((20, 3)), rng.standard_normal((18, 3)) + 1.0]
    cert = generalized_ham_sandwich(sets, (4, 4))
    doc = cli._hamsandwich_doc(cert, ["sha256:a", "sha256:b"], None)
    rebuilt = cli._hamsandwich_from_doc(json.loads(cli.emit_document(doc)))
    doc2 = cli._hamsandwich_doc(rebuilt, ["sha256:a", "sha256:b"], None)
    assert cli.emit_document(doc2) == cli.emit_document(doc)


def test_float_emission_is_lossless():
    vals = [0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0]
    emitted = cli.emit_document({"vals": vals})
    assert json.loads(emitted)["vals"] == vals


# ------------------------------------------------------------ command flow


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["gen", "--n", "50", "--d", "3", "--seed", "9", "--out", str(a)]) == 0
    assert cli.main(["gen", "--n", "50", "--d", "3", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = cli.load_points(str(a))
    assert rows.coords.shape == (50, 3)


def test_gen_clustered_and_classes(tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["gen", "--dist", "clustered", "--n", "100", "--d", "2", "--out", str(out)]) == 0
    assert cli.load_points(str(out)).coords.shape == (100, 2)
    cls = tmp_path / "cls.json"
    assert cli.main(["gen", "--classes", "6", "--k", "3", "--d", "2", "--out", str(cls)]) == 0
    inst = cli.load_classes(str(cls))
    assert (inst.n_classes, inst.k, inst.dim) == (6, 3, 2)
    assert cli.main(["gen", "--classes", "6", "--d", "2", "--out", str(cls)]) == cli.EXIT_INFEASIBLE


def test_gen_empty_file_is_rejected_downstream(tmp_path):
    empty = tmp_path / "none.csv"
    assert cli.main(["gen", "--n", "0", "--d", "2", "--out", str(empty)]) == 0
    rc = cli.main(["tverberg", str(empty), "--k", "2", "--out", str(tmp_path / "o.json")])
    assert rc == cli.EXIT_PARSE


def test_tverberg_run_verify_and_determinism(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    cli.main(["gen", "--n", "60", "--d", "4", "--seed", "3", "--out", str(data)])
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert cli.main(["tverberg", str(data), "--k", "5", "--out", str(out1)]) == 0
    assert cli.main(["tverberg", str(data), "--k", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert cli.main(["verify", str(out1), str(data)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_tverberg_sizes_mode_and_infeasible(tmp_path):
    data = tmp_path / "pts.csv"
    cli.main(["gen", "--n", "30", "--d", "2", "--seed", "5", "--out", str(data)])
    out = tmp_path / "c.json"
    assert cli.main(["tverberg", str(data), "--sizes", "15,10,5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "general"
    assert doc["parameters"]["sizes"] == [15, 10, 5]
    assert cli.main(["verify", str(out), str(data)]) == 0
    rc = cli.main(["tverberg", str(data), "--sizes", "15,10", "--out", str(out)])
    assert rc == cli.EXIT_INFEASIBLE
    rc = cli.main(["tverberg", str(data), "--out", str(out)])
    assert rc == cli.EXIT_INFEASIBLE  # neither --k nor --sizes


def test_colorful_run_verify_and_ragged_classes(tmp_path):
    data = tmp_path / "cls.json"
    cli.main(["gen", "--classes", "12", "--k", "4", "--d", "3", "--seed", "2", "--out", str(data)])
    out = tmp_path / "c.json"
    assert cli.main(["colorful", str(data), "--out", str(out)]) == 0
    assert cli.main(["verify", str(out), str(data)]) == 0
    ragged = tmp_path / "ragged.json"
    ragged.write_text('{"classes": [[[0], [1]], [[2]]]}')
    assert cli.main(["colorful", str(ragged), "--out", str(out)]) == cli.EXIT_PARSE
    flat = tmp_path / "flat.json"
    flat.write_text('{"classes": [[0, 1], [2, 3]]}')
    assert cli.main(["colorful", str(flat), "--out", str(out)]) == cli.EXIT_INFEASIBLE


def _hamsandwich_run(tmp_path, n):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["gen", "--n", str(n), "--d", "3", "--seed", "7", "--out", str(a)])
    cli.main(["gen", "--n", str(n), "--d", "3", "--seed", "8", "--out", str(b)])
    out = tmp_path / "hs.json"
    assert cli.main(["hamsandwich", str(a), str(b), "--m", "6,6", "--out", str(out)]) == 0
    return out, [str(a), str(b)]


def test_hamsandwich_run_verify_and_digest_order(tmp_path):
    out, (a, b) = _hamsandwich_run(tmp_path, 60)
    assert cli.main(["verify", str(out), a, b]) == 0
    # wrong input order trips the digest gate, not a check failure
    assert cli.main(["verify", str(out), b, a]) == cli.EXIT_DIGEST


def test_verify_digest_and_tamper_exit_codes(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    other = tmp_path / "other.csv"
    cli.main(["gen", "--n", "24", "--d", "2", "--seed", "1", "--out", str(data)])
    cli.main(["gen", "--n", "24", "--d", "2", "--seed", "2", "--out", str(other)])
    out = tmp_path / "c.json"
    cli.main(["tverberg", str(data), "--k", "4", "--out", str(out)])

    assert cli.main(["verify", str(out), str(other)]) == cli.EXIT_DIGEST

    doc = json.loads(out.read_text())
    doc["ball"]["radius_achieved"] = doc["ball"]["radius_achieved"] + 1.0
    tampered = tmp_path / "tampered.json"
    tampered.write_bytes(cli.emit_document(doc))
    assert cli.main(["verify", str(tampered), str(data)]) == cli.EXIT_CHECK_FAILED
    assert "FAIL radius_achieved_matches" in capsys.readouterr().out

    doc["schema"] = "tverberg-nd/999"
    tampered.write_bytes(cli.emit_document(doc))
    assert cli.main(["verify", str(tampered), str(data)]) == cli.EXIT_PARSE

    not_json = _write(tmp_path / "nj.json", "{broken")
    assert cli.main(["verify", not_json, str(data)]) == cli.EXIT_PARSE


@pytest.mark.parametrize(
    "case",
    [
        "sizes_not_integer",
        "m_not_integer",
        "n_grid_not_integer",
        "k_grid_not_integer",
        "points_dim_not_integer",
        "classes_dim_not_integer",
        "top_level_list",
        "parts_missing",
        "parts_not_indices",
        "mode_unknown",
        "per_set_mode_unknown",
    ],
)
def test_malformed_input_exits_parse_without_traceback(tmp_path, capsys, case):
    data = tmp_path / "pts.csv"
    cli.main(["gen", "--n", "24", "--d", "2", "--seed", "1", "--out", str(data)])
    out = tmp_path / "c.json"
    cli.main(["tverberg", str(data), "--k", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    bad = tmp_path / "bad.json"
    argvs = {
        "sizes_not_integer": ["tverberg", str(data), "--sizes", "10,a", "--out", str(bad)],
        "m_not_integer": ["hamsandwich", str(data), str(data), "--m", "5,a", "--out", str(bad)],
        "n_grid_not_integer": ["bench", "--algo", "tverberg", "--n-grid", "16,a"],
        "k_grid_not_integer": ["bench", "--algo", "colorful", "--k-grid", "4,a"],
        "points_dim_not_integer": ["tverberg", str(bad), "--k", "1", "--out", str(out)],
        "classes_dim_not_integer": ["colorful", str(bad), "--out", str(out)],
    }
    if case == "points_dim_not_integer":
        bad.write_text('{"dim": "a", "points": [[0.0, 1.0]]}')
    elif case == "classes_dim_not_integer":
        bad.write_text('{"dim": "a", "classes": [[[0.0, 1.0]], [[2.0, 3.0]]]}')
    elif case == "per_set_mode_unknown":
        hs, inputs = _hamsandwich_run(tmp_path, 60)
        hdoc = json.loads(hs.read_text())
        hdoc["per_set"][0]["mode"] = "nosuch"
        bad.write_bytes(cli.emit_document(hdoc))
        argvs[case] = ["verify", str(bad), *inputs]
    elif case not in argvs:
        edits = {
            "top_level_list": lambda d: [d],
            "parts_missing": lambda d: {k: v for k, v in d.items() if k != "parts"},
            "parts_not_indices": lambda d: {**d, "parts": ["x"]},
            "mode_unknown": lambda d: {**d, "mode": "nosuch"},
        }
        bad.write_bytes(cli.emit_document(edits[case](doc)))
        argvs[case] = ["verify", str(bad), str(data)]
    capsys.readouterr()
    assert cli.main(argvs[case]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


def _shrink_radius(sub):
    sub["ball"]["radius_guaranteed"] *= 0.5


def _move_index(sub):
    sub["parts"][1].append(sub["parts"][0].pop())


def _nudge_centroid(sub):
    sub["part_centroids"][0][0] += 1e-6


def _empty_parts(sub):
    sub["parts"] = []


@pytest.mark.parametrize("kind", ["tverberg", "hamsandwich"])
@pytest.mark.parametrize(
    "edit",
    [_shrink_radius, _move_index, _nudge_centroid, _empty_parts],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_tampered_certificate_fails_verify(tmp_path, capsys, kind, edit):
    # 62 rows in 11 or 5 parts leave a remainder, so every partition is nearly balanced
    if kind == "tverberg":
        data = tmp_path / "pts.csv"
        cli.main(["gen", "--n", "62", "--d", "3", "--seed", "1", "--out", str(data)])
        out = tmp_path / "c.json"
        cli.main(["tverberg", str(data), "--k", "5", "--out", str(out)])
        doc, inputs = json.loads(out.read_text()), [str(data)]
        sub, expected = doc, "FAIL "
    else:
        out, inputs = _hamsandwich_run(tmp_path, 62)
        doc = json.loads(out.read_text())
        sub, expected = doc["per_set"][0], "FAIL set0_partition_certificate"
    assert sub["mode"] == "nearly_balanced"
    edit(sub)
    bad = tmp_path / "bad.json"
    bad.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(bad), *inputs]) == cli.EXIT_CHECK_FAILED
    assert expected in capsys.readouterr().out


def test_timing_flag_controls_timing_field(tmp_path):
    data = tmp_path / "pts.csv"
    cli.main(["gen", "--n", "20", "--d", "2", "--seed", "4", "--out", str(data)])
    out = tmp_path / "c.json"
    cli.main(["tverberg", str(data), "--k", "2", "--out", str(out)])
    assert json.loads(out.read_text())["timing_ms"] is None
    cli.main(["tverberg", str(data), "--k", "2", "--out", str(out), "--timing"])
    assert json.loads(out.read_text())["timing_ms"] >= 0.0


def test_svg_structure(tmp_path):
    data = tmp_path / "pts.csv"
    cli.main(["gen", "--n", "40", "--d", "2", "--seed", "6", "--out", str(data)])
    out = tmp_path / "c.json"
    svg = tmp_path / "fig.svg"
    assert cli.main(["tverberg", str(data), "--k", "4", "--out", str(out), "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    circles = list(root.iter(f"{SVG_NS}circle"))
    rects = list(root.iter(f"{SVG_NS}rect"))
    assert sum(1 for c in circles if c.get("class") == "point") == 40
    assert sum(1 for c in circles if c.get("class") == "ball") == 1
    assert sum(1 for r in rects if r.get("class") == "centroid") == 4


def test_svg_skipped_off_plane(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    cli.main(["gen", "--n", "12", "--d", "3", "--seed", "6", "--out", str(data)])
    out = tmp_path / "c.json"
    svg = tmp_path / "fig.svg"
    assert cli.main(["tverberg", str(data), "--k", "3", "--out", str(out), "--svg", str(svg)]) == 0
    assert "svg skipped" in capsys.readouterr().err
    assert not svg.exists()


def test_colorful_svg_counts(tmp_path):
    data = tmp_path / "cls.json"
    cli.main(["gen", "--classes", "5", "--k", "3", "--d", "2", "--seed", "1", "--out", str(data)])
    out = tmp_path / "c.json"
    svg = tmp_path / "fig.svg"
    assert cli.main(["colorful", str(data), "--out", str(out), "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    circles = list(root.iter(f"{SVG_NS}circle"))
    assert sum(1 for c in circles if c.get("class") == "point") == 15
    assert sum(1 for r in root.iter(f"{SVG_NS}rect") if r.get("class") == "centroid") == 3


def test_console_entry_point_subprocess(tmp_path):
    data = tmp_path / "pts.csv"
    out = tmp_path / "c.json"
    # run from the package's parent directory so an uninstalled checkout imports it
    src = Path(cli.__file__).resolve().parents[1]
    gen = subprocess.run(
        [sys.executable, "-m", "tverberg_nd.cli", "gen", "--n", "20", "--d", "2", "--out", str(data)],
        capture_output=True,
        text=True,
        cwd=src,
    )
    assert gen.returncode == 0
    run = subprocess.run(
        [sys.executable, "-m", "tverberg_nd.cli", "tverberg", str(data), "--k", "4", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=src,
    )
    assert run.returncode == 0
    assert "radius_guaranteed" in run.stdout
    assert json.loads(out.read_text())["schema"] == "tverberg-nd/1"

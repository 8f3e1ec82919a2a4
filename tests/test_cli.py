import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


_BODY_KEYS = {"mode", "parameters", "parts", "part_centroids", "ball", "bound", "diameter_used", "diameter_exact"}
_TVERBERG_BALL_KEYS = {"center", "radius_guaranteed", "radius_achieved"}
_TVERBERG_PARAMETER_KEYS = {"sizes", "arity"}


@pytest.mark.parametrize(
    "kind, keys, ball_keys, parameter_keys",
    [
        ("balanced", _BODY_KEYS, _TVERBERG_BALL_KEYS, _TVERBERG_PARAMETER_KEYS),
        (
            "colorful",
            {"parameters", "shifts", "part_centroids", "ball", "lifted_sum_norm", "max_class_diameter"},
            {"radius_guaranteed", "radius_achieved"},
            {"n_classes", "k"},
        ),
        (
            "hamsandwich_d3",
            {
                "parameters", "translation", "subspace_basis", "ball", "existential_radius",
                "depth_lower_bounds", "set_diameters", "set_diameters_exact", "oracle_depths", "per_set",
            },
            {"radius"},
            {"m"},
        ),
    ],
    ids=["tverberg", "colorful", "hamsandwich"],
)
def test_document_keys_are_the_schema(tmp_path, kind, keys, ball_keys, parameter_keys):
    # each stored value is a source: a key restating another would need its own decode step and check
    doc, _ = _document(tmp_path, kind)
    assert doc["schema"] == "tverberg-nd/3"
    assert set(doc) == {"schema", "command", "input_digest", "timing_ms"} | keys
    assert set(doc["ball"]) == ball_keys and set(doc["parameters"]) == parameter_keys
    for sub in doc.get("per_set", []):
        assert set(sub) == _BODY_KEYS and set(sub["ball"]) == _TVERBERG_BALL_KEYS
        assert set(sub["parameters"]) == _TVERBERG_PARAMETER_KEYS
    for body in [doc] if kind == "balanced" else doc.get("per_set", []):
        assert set(body["bound"]) == {"traversal_centroid_norm", "traversal_norm_bound"}


def _document(tmp_path, kind):
    """A CLI document of one kind and the input files it verifies against."""
    data, out = tmp_path / "in", tmp_path / "c.json"
    if kind.startswith("hamsandwich"):
        out, inputs = _hamsandwich_run(tmp_path, 60, kind[-1])
        return json.loads(out.read_text()), inputs
    if kind == "colorful":
        cli.main(["gen", "--classes", "3", "--k", "4", "--d", "3", "--seed", "1", "--out", str(data)])
        cli.main(["colorful", str(data), "--out", str(out)])
    else:
        cli.main(["gen", "--n", "42", "--d", "3", "--seed", "1", "--out", str(data)])
        params = {"balanced": ["--k", "6"], "nearly_balanced": ["--k", "4"], "general": ["--sizes", "20,12,10"]}
        cli.main(["tverberg", str(data), *params[kind], "--out", str(out)])
        assert json.loads(out.read_text())["mode"] == kind
    return json.loads(out.read_text()), [str(data)]


def _doc_key_paths(value, path=()):
    """The path of every key of a document, entering lists of objects."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield path + (key,)
            yield from _doc_key_paths(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            if isinstance(sub, dict):
                yield from _doc_key_paths(sub, path + (i,))


def _perturb_first_leaf(doc, path):
    """Change the first scalar under path: +1 to a number, flip a bool, append "x" to a string, null to 0."""
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    key = path[-1]
    while isinstance(holder[key], (dict, list)):
        inner = holder[key]
        holder, key = inner, (next(iter(inner)) if isinstance(inner, dict) else 0)
    leaf = holder[key]
    if leaf is None:
        holder[key] = 0
    elif isinstance(leaf, bool):
        holder[key] = not leaf
    elif isinstance(leaf, str):
        holder[key] = leaf + "x"
    else:
        holder[key] = leaf + 1


@pytest.mark.parametrize(
    "kind", ["balanced", "nearly_balanced", "general", "colorful", "hamsandwich_d3", "hamsandwich_d2"]
)
def test_every_key_is_read(tmp_path, capsys, kind):
    # a key whose value verify ignores could hold anything: perturbing any stored value must fail verify
    doc, inputs = _document(tmp_path, kind)
    bad = tmp_path / "bad.json"
    passed = []
    for path in _doc_key_paths(doc):
        if path == ("timing_ms",):
            continue
        edited = json.loads(json.dumps(doc))
        _perturb_first_leaf(edited, path)
        bad.write_bytes(cli.emit_document(edited))
        if cli.main(["verify", str(bad), *inputs]) == cli.EXIT_OK:
            passed.append(path)
    capsys.readouterr()
    assert passed == []


_FUZZ_KINDS = ["nearly_balanced", "general", "colorful", "hamsandwich_d3", "hamsandwich_d2"]
_FUZZ_EDITS = [("drop", None), ("duplicate", None)] + [
    ("set", value) for value in (None, True, False, "x", math.nan, 1e308, -1e308, 10**400, [], [[]], {})
]


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    return {kind: _document(tmp_path_factory.mktemp(kind), kind) for kind in _FUZZ_KINDS}


def _entry_paths(value, path=()):
    """The path of every list entry of a document, at any depth."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _entry_paths(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield path + (i,)
            yield from _entry_paths(sub, path + (i,))


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_fuzzed_document_exits_cleanly(fuzz_documents, data):
    # one key or list entry dropped, duplicated in a list, or set to a wrong type or an extreme value
    kind = data.draw(st.sampled_from(_FUZZ_KINDS), label="kind")
    doc, inputs = fuzz_documents[kind]
    paths = _doc_key_paths if data.draw(st.booleans(), label="key path") else _entry_paths
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    op, value = data.draw(st.sampled_from(_FUZZ_EDITS), label="edit")
    edited = json.loads(json.dumps(doc))
    holder = edited
    for step in path[:-1]:
        holder = holder[step]
    key = path[-1]
    if op == "drop":
        del holder[key]
    elif op == "duplicate":
        entries = holder[key]
        assume(isinstance(entries, list) and entries)
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        entries.insert(i, entries[i])
    else:
        holder[key] = value
    bad = Path(inputs[0]).parent / "fuzzed.json"
    bad.write_text(json.dumps(edited))  # NaN and 10**400 as Python's json writes them
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(bad), *inputs])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_PARSE, cli.EXIT_DIGEST)
    assert not caught and "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == cli.EXIT_OK:
        # at k = 3 arities 2 and 3 build the same tree, so another arity can state the same claim
        unchanged = json.dumps(edited) == json.dumps(doc)
        assert unchanged or path[-1] == "timing_ms" or path[-2:] == ("parameters", "arity")


_EXTRA_KEYS = {
    "colorful_extra": ("colorful", lambda doc: doc.update(extra=1)),
    "colorful_parts": ("colorful", lambda doc: doc.update(parts=[[[c, 0] for c in range(3)]])),
    "axes_local": ("hamsandwich_d3", lambda doc: doc.update(axes_local=[[1.0, 0.0, 0.0]])),
    "parameters_k": ("nearly_balanced", lambda doc: doc["parameters"].update(k=4)),
    "bound_name": ("general", lambda doc: doc["bound"].update(name="tree_lift_min_size_scaled")),
    "per_set_parameters_k": ("hamsandwich_d3", lambda doc: doc["per_set"][1]["parameters"].update(k=10)),
    "timing_missing": ("balanced", lambda doc: doc.pop("timing_ms")),
}


@pytest.mark.parametrize("case", list(_EXTRA_KEYS))
def test_key_outside_the_schema_exits_parse(tmp_path, capsys, case):
    # a key of an earlier schema, or one no schema defines, is not silently ignored
    kind, edit = _EXTRA_KEYS[case]
    doc, inputs = _document(tmp_path, kind)
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(bad), *inputs]) == cli.EXIT_PARSE
    assert "keys outside schema tverberg-nd/3" in capsys.readouterr().err


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


def _hamsandwich_run(tmp_path, n, d="3"):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["gen", "--n", str(n), "--d", d, "--seed", "7", "--out", str(a)])
    cli.main(["gen", "--n", str(n), "--d", d, "--seed", "8", "--out", str(b)])
    out = tmp_path / "hs.json"
    assert cli.main(["hamsandwich", str(a), str(b), "--m", "6,6", "--out", str(out)]) == 0
    return out, [str(a), str(b)]


def test_hamsandwich_mixed_dimensions_is_infeasible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["gen", "--n", "20", "--d", "2", "--seed", "7", "--out", str(a)])
    cli.main(["gen", "--n", "20", "--d", "3", "--seed", "8", "--out", str(b)])
    capsys.readouterr()
    argv = ["hamsandwich", str(a), str(b), "--m", "2,2", "--out", str(tmp_path / "hs.json")]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and "Traceback" not in err


def test_hamsandwich_run_verify_and_digest_order(tmp_path):
    out, (a, b) = _hamsandwich_run(tmp_path, 60)
    assert cli.main(["verify", str(out), a, b]) == 0
    # wrong input order trips the digest gate, not a check failure
    assert cli.main(["verify", str(out), b, a]) == cli.EXIT_DIGEST


@pytest.mark.parametrize("d,oracle_depths", [("2", None), ("3", [1, 1])], ids=["missing", "extra"])
def test_verify_fails_a_missing_or_extra_oracle_list(tmp_path, capsys, d, oracle_depths):
    # the planar oracle list is present exactly when d = 2 and no set exceeds 1000 points
    out, inputs = _hamsandwich_run(tmp_path, 60, d=d)
    doc = json.loads(out.read_text())
    assert (doc["oracle_depths"] is None) == (d == "3")
    doc["oracle_depths"] = oracle_depths
    out.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out), *inputs]) == cli.EXIT_CHECK_FAILED
    assert "FAIL oracle_depths_match" in capsys.readouterr().out


def test_verify_huge_basis_fails_without_a_warning(tmp_path, capsys):
    out, inputs = _hamsandwich_run(tmp_path, 60, d="2")
    doc = json.loads(out.read_text())
    doc["subspace_basis"] = [[1e300, 0.0]]  # its Gram product overflows
    out.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", str(out), *inputs]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "FAIL basis_orthonormal" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize(
    "translation",
    [
        pytest.param([1.7e308, -1.7e308, 1.7e308], id="projection_overflows"),
        pytest.param([1e308, 0.0, 0.0], id="norm_overflows"),
    ],
)
def test_verify_huge_translation_fails_without_a_warning(tmp_path, capsys, translation):
    out, inputs = _hamsandwich_run(tmp_path, 60)
    doc = json.loads(out.read_text())
    doc["translation"] = translation
    out.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", str(out), *inputs]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "FAIL translation_is_first_centroid" in captured.out
    assert captured.err == ""


def test_verify_huge_ball_center_fails_without_a_warning(tmp_path, capsys):
    data, out = tmp_path / "pts.csv", tmp_path / "c.json"
    cli.main(["gen", "--n", "24", "--d", "2", "--seed", "1", "--out", str(data)])
    cli.main(["tverberg", str(data), "--k", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["ball"]["center"][0] = 1e308  # its squared distance to every centroid overflows
    out.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", str(out), str(data)]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    for check in ("ball_center_matches_mode", "radius_achieved_matches", "radius_within_guarantee"):
        assert f"FAIL {check}" in captured.out
    assert captured.err == ""


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

    # unknown, and the earlier schemas: /1 stored copies, /2 the projection chain and keys verify never read
    for schema in ("tverberg-nd/999", "tverberg-nd/2", "tverberg-nd/1"):
        fresh = {**json.loads(out.read_text()), "schema": schema}
        tampered.write_bytes(cli.emit_document(fresh))
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
        "points_dim_fractional",
        "points_zero_width",
        "classes_zero_width",
        "top_level_list",
        "parts_missing",
        "parts_not_indices",
        "mode_unknown",
        "command_not_string",
        "per_set_mode_unknown",
        "m_zero",
        "m_negative",
        "m_fractional",
        "m_string",
        "dim_bool",
        "sizes_bool",
        "part_index_fractional",
        "shift_fractional",
        "shift_string",
        "points_string",
        "points_bool",
        "points_bool_among_numbers",
        "classes_string",
        "classes_bool",
        "points_int_overflow",
        "classes_int_overflow",
        "classes_beyond_bound",
        "csv_beyond_bound",
        "csv_beyond_bound_hamsandwich",
        "arity_too_small",
        "csv_separators_only",
        "csv_not_utf8",
        "json_points_not_utf8",
        "certificate_not_utf8",
        "radius_string",
        "centroid_string",
        "center_bool",
        "diameter_exact_string",
        "diameter_exact_int",
        "radius_nan",
        "sizes_empty",
        "sizes_object",
        "sizes_zero",
        "timing_string",
        "timing_negative",
        "timing_list",
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
        "points_dim_fractional": ["tverberg", str(bad), "--k", "1", "--out", str(out)],
        "points_zero_width": ["tverberg", str(bad), "--k", "1", "--out", str(out)],
        "classes_zero_width": ["colorful", str(bad), "--out", str(out)],
        "points_string": ["tverberg", str(bad), "--k", "2", "--out", str(out)],
        "points_bool": ["tverberg", str(bad), "--k", "2", "--out", str(out)],
        "points_bool_among_numbers": ["tverberg", str(bad), "--k", "2", "--out", str(out)],
        "classes_string": ["colorful", str(bad), "--out", str(out)],
        "classes_bool": ["colorful", str(bad), "--out", str(out)],
        "points_int_overflow": ["tverberg", str(bad), "--k", "2", "--out", str(out)],
        "classes_int_overflow": ["colorful", str(bad), "--out", str(out)],
        "classes_beyond_bound": ["colorful", str(bad), "--out", str(out)],
    }
    if case == "points_dim_not_integer":
        bad.write_text('{"dim": "a", "points": [[0.0, 1.0]]}')
    elif case == "classes_dim_not_integer":
        bad.write_text('{"dim": "a", "classes": [[[0.0, 1.0]], [[2.0, 3.0]]]}')
    elif case == "points_dim_fractional":
        bad.write_text('{"dim": 2.5, "points": [[0.0, 1.0]]}')
    elif case == "points_zero_width":
        bad.write_text('{"points": [[]]}')
    elif case == "classes_zero_width":
        bad.write_text('{"classes": [[[]]]}')
    elif case == "points_string":
        bad.write_text('{"points": [["1", "2"], ["3", "4"]]}')
    elif case == "points_bool":
        bad.write_text('{"points": [[true, false], [false, true]]}')
    elif case == "points_bool_among_numbers":
        bad.write_text('{"points": [[0.5, 2.0], [1.5, true], [3.0, 4.0]]}')
    elif case == "classes_string":
        bad.write_text('{"classes": [[["1", "2"]], [["3", "4"]]]}')
    elif case == "classes_bool":
        bad.write_text('{"classes": [[[0.5, 2.0], [true, 1.0]], [[3.0, 4.0], [5.0, 6.0]]]}')
    elif case == "points_int_overflow":
        bad.write_text('{"points": [[0.5, 1%s], [3.0, 4.0]]}' % ("0" * 400))  # beyond the float range
    elif case == "classes_int_overflow":
        bad.write_text('{"classes": [[[0.5, 1%s]], [[3.0, 4.0]]]}' % ("0" * 400))
    elif case == "classes_beyond_bound":
        bad.write_text('{"classes": [[[0.5, 1e200], [1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]]}')
    elif case in ("arity_too_small", "sizes_empty", "sizes_object", "sizes_zero"):
        cli.main(["tverberg", str(data), "--sizes", "5,6,6,7", "--out", str(out)])
        gdoc = json.loads(out.read_text())
        if case == "arity_too_small":
            gdoc["parameters"]["arity"] = 1
        else:
            gdoc["parameters"]["sizes"] = {"sizes_empty": [], "sizes_object": {}, "sizes_zero": [0, 6, 6, 12]}[case]
        bad.write_bytes(cli.emit_document(gdoc))
        argvs[case] = ["verify", str(bad), str(data)]
    elif case in ("per_set_mode_unknown", "m_zero", "m_negative", "m_fractional", "m_string", "dim_bool"):
        hs, inputs = _hamsandwich_run(tmp_path, 60)
        hdoc = json.loads(hs.read_text())
        if case == "per_set_mode_unknown":
            hdoc["per_set"][0]["mode"] = "nosuch"
        elif case == "dim_bool":
            hdoc["parameters"]["dim"] = True  # a key of schema /2 that /3 does not define
        else:
            # the true m is 6, which int() would read off 6.9 and "6" alike
            hdoc["parameters"]["m"][0] = {"m_zero": 0, "m_negative": -6, "m_fractional": 6.9, "m_string": "6"}[case]
        bad.write_bytes(cli.emit_document(hdoc))
        argvs[case] = ["verify", str(bad), *inputs]
    elif case in ("shift_fractional", "shift_string"):
        classes = tmp_path / "classes.json"
        cli.main(["gen", "--classes", "3", "--k", "4", "--d", "2", "--seed", "1", "--out", str(classes)])
        cli.main(["colorful", str(classes), "--out", str(out)])
        cdoc = json.loads(out.read_text())
        if case == "shift_fractional":
            cdoc["shifts"][0] += 0.5
        else:
            cdoc["shifts"][0] = str(cdoc["shifts"][0])
        bad.write_bytes(cli.emit_document(cdoc))
        argvs[case] = ["verify", str(bad), str(classes)]
    elif case == "csv_separators_only":
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0 # note\n,\n")  # the header line leaves no data row
        argvs[case] = ["tverberg", str(bad), "--k", "1", "--out", str(out)]
    elif case in ("csv_beyond_bound", "csv_beyond_bound_hamsandwich"):
        bad = tmp_path / "bad.csv"
        bad.write_text("1e308,-1e308\n-1e308,1e308\n1e308,1e308\n-1e308,-1e308\n")  # finite, but sums overflow
        argvs[case] = (
            ["tverberg", str(bad), "--k", "2", "--out", str(out)]
            if case == "csv_beyond_bound"
            else ["hamsandwich", str(bad), str(bad), "--m", "2,2", "--out", str(out)]
        )
    elif case == "csv_not_utf8":
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0.0,1.0\n2.0,\xff\n")
        argvs[case] = ["tverberg", str(bad), "--k", "1", "--out", str(out)]
    elif case == "json_points_not_utf8":
        bad.write_bytes(b'{"points": [[0.0, 1.0]], "note": "\xff"}')
        argvs[case] = ["tverberg", str(bad), "--k", "1", "--out", str(out)]
    elif case == "certificate_not_utf8":
        bad.write_bytes(b"\xff" + cli.emit_document(doc))
        argvs[case] = ["verify", str(bad), str(data)]
    elif case == "radius_nan":
        doc["ball"]["radius_guaranteed"] = math.nan
        bad.write_text(json.dumps(doc))  # json writes NaN, which its reader accepts
        argvs[case] = ["verify", str(bad), str(data)]
    elif case not in argvs:
        edits = {
            "top_level_list": lambda d: [d],
            "parts_missing": lambda d: {k: v for k, v in d.items() if k != "parts"},
            "parts_not_indices": lambda d: {**d, "parts": ["x"]},
            "mode_unknown": lambda d: {**d, "mode": "nosuch"},
            "command_not_string": lambda d: {**d, "command": ["tverberg"]},
            "sizes_bool": lambda d: {**d, "parameters": {**d["parameters"], "sizes": [True, 11, 6, 6]}},
            "part_index_fractional": lambda d: {
                **d, "parts": [[d["parts"][0][0] + 0.5, *d["parts"][0][1:]], *d["parts"][1:]]
            },
            # each holds the true value in a wrong JSON type, which a coercing decoder would accept
            "radius_string": lambda d: {
                **d, "ball": {**d["ball"], "radius_guaranteed": repr(d["ball"]["radius_guaranteed"])}
            },
            "centroid_string": lambda d: {
                **d,
                "part_centroids": [
                    [repr(d["part_centroids"][0][0]), *d["part_centroids"][0][1:]],
                    *d["part_centroids"][1:],
                ],
            },
            "center_bool": lambda d: {**d, "ball": {**d["ball"], "center": [True, *d["ball"]["center"][1:]]}},
            "diameter_exact_string": lambda d: {**d, "diameter_exact": "false"},
            "diameter_exact_int": lambda d: {**d, "diameter_exact": int(d["diameter_exact"])},
            "timing_string": lambda d: {**d, "timing_ms": "soon"},
            "timing_negative": lambda d: {**d, "timing_ms": -5},
            "timing_list": lambda d: {**d, "timing_ms": [1.0]},
        }
        bad.write_bytes(cli.emit_document(edits[case](doc)))
        argvs[case] = ["verify", str(bad), str(data)]
    capsys.readouterr()
    assert cli.main(argvs[case]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err
    if case == "csv_not_utf8":
        assert err.rstrip().endswith("bad.csv:2: not valid UTF-8")  # the line holding the bad byte
    if case in ("csv_beyond_bound", "csv_beyond_bound_hamsandwich"):
        assert err.rstrip().endswith("bad.csv:1: a coordinate's magnitude exceeds 1e+100")


def test_coordinates_within_the_bound_solve_and_verify(tmp_path, capsys):
    a, b, classes = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "classes.json"
    a.write_text("1e99,-1e99\n-1e99,1e99\n1e99,1e99\n-1e99,-0.5e99\n3e98,2e98\n")
    b.write_text("1e99,-1e99\n-1e99,1e99\n1e99,1e99\n-1e99,-0.5e99\n3e98,-2e98\n")
    classes.write_text('{"classes": [[[0.5, 1e99], [1.0, 2.0]], [[3.0, -4e98], [5.0, 6.0]]]}')
    runs = [
        (["tverberg", str(a), "--k", "2"], [str(a)]),
        (["hamsandwich", str(a), str(b), "--m", "2,2"], [str(a), str(b)]),
        (["colorful", str(classes)], [str(classes)]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (solve, inputs) in enumerate(runs):
            out = str(tmp_path / f"c{i}.json")
            assert cli.main([*solve, "--out", out]) == cli.EXIT_OK
            assert cli.main(["verify", out, *inputs]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("m0", [1, 61, pytest.param(10**400, id="10**400")])
def test_m_out_of_range_fails_depth_bound(tmp_path, capsys, m0):
    # m_i = 1 and m_i > |P_i| decode, then fail the named check; 10**400 is beyond the float range
    out, inputs = _hamsandwich_run(tmp_path, 60)
    doc = json.loads(out.read_text())
    doc["parameters"]["m"][0] = m0
    bad = tmp_path / "bad.json"
    bad.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(bad), *inputs]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "FAIL set0_depth_bound" in captured.out and "Traceback" not in captured.err


def _shrink_radius(sub):
    sub["ball"]["radius_guaranteed"] *= 0.5


def _move_index(sub):
    sub["parts"][1].append(sub["parts"][0].pop())


def _nudge_centroid(sub):
    sub["part_centroids"][0][0] += 1e-6


def _empty_parts(sub):
    sub["parts"] = []


def _truncate_centroids(sub):
    sub["part_centroids"] = sub["part_centroids"][:2]


def _index_out_of_range(sub):
    sub["parts"][0][0] = 10**6


def _push_centroid_out(sub):
    sub["part_centroids"][0] = [v + 1e3 for v in sub["part_centroids"][0]]


def _empty_centroids(sub):
    sub["part_centroids"] = []


@pytest.mark.parametrize("kind", ["tverberg", "hamsandwich"])
@pytest.mark.parametrize(
    "edit",
    [
        _shrink_radius, _move_index, _nudge_centroid, _empty_parts, _truncate_centroids, _index_out_of_range,
        _push_centroid_out, _empty_centroids,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_tampered_certificate_fails_verify(tmp_path, capsys, kind, edit):
    # 62 rows in 11 or 5 parts leave a remainder, so every partition is nearly balanced;
    # the depth ball's cover is measured on the stored part centroids, so moving one out fails it too
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
    printed = capsys.readouterr().out
    assert expected in printed
    if kind == "hamsandwich" and edit in (_push_centroid_out, _empty_centroids):
        assert "FAIL ball_covers_all_part_centroids" in printed


@pytest.mark.parametrize("resize", ["append", "truncate"])
@pytest.mark.parametrize("kind, check", [("tverberg", "ball_center_matches_mode")])
def test_wrong_length_ball_center_fails_named_check(tmp_path, capsys, kind, check, resize):
    # only Tverberg documents store a ball center; a colorful ball sits at the hub centroid
    data, out = tmp_path / "in", tmp_path / "c.json"
    cli.main(["gen", "--n", "40", "--d", "3", "--seed", "1", "--out", str(data)])
    cli.main([kind, str(data), "--k", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    center = doc["ball"]["center"]
    doc["ball"]["center"] = center + [0.0] if resize == "append" else center[:1]
    bad = tmp_path / "bad.json"
    bad.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(bad), str(data)]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert f"FAIL {check}  (recomputed inf stored 0.0)" in captured.out
    assert "Traceback" not in captured.err
    assert "FAIL radius_achieved_matches" in captured.out


# each row of subspace_basis is one axis of the frame the ball lives in (d=3, k=2: two rows)


def _tilt_axis(doc):
    doc["subspace_basis"][0][0] += 0.5


def _swap_line(doc):
    # still an orthonormal basis of the same subspace, but the per-set parts were split in the other frame
    basis = doc["subspace_basis"]
    basis[0], basis[1] = basis[1], basis[0]


@pytest.mark.parametrize(
    "edit, check",
    [(_tilt_axis, "basis_orthonormal"), (_swap_line, "set0_partition_certificate")],
    ids=["tilt_axis", "swap_line"],
)
def test_tampered_chain_fails_verify(tmp_path, capsys, edit, check):
    out, inputs = _hamsandwich_run(tmp_path, 60)
    doc = json.loads(out.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(bad), *inputs]) == cli.EXIT_CHECK_FAILED
    assert f"FAIL {check}" in capsys.readouterr().out


def _halve_radius(doc):
    doc["ball"]["radius"] *= 0.5


def _shift_translation(doc):
    doc["translation"][0] += 1e-3


@pytest.mark.parametrize(
    "edit, check",
    [(_halve_radius, "radius_is_twice_worst_guarantee"), (_shift_translation, "translation_is_first_centroid")],
    ids=["radius", "translation"],
)
def test_tampered_stored_source_fails_named_check(tmp_path, capsys, edit, check):
    # the ball's center and the ambient center are derived from these, so they must fail on their own
    out, inputs = _hamsandwich_run(tmp_path, 60)
    doc = json.loads(out.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(bad), *inputs]) == cli.EXIT_CHECK_FAILED
    assert f"FAIL {check}" in capsys.readouterr().out


def test_tampered_colorful_hub_centroid_fails_verify(tmp_path, capsys):
    # the colorful ball sits at the hub centroid, which is checked against the input
    data, out = tmp_path / "cls.json", tmp_path / "c.json"
    cli.main(["gen", "--classes", "3", "--k", "4", "--d", "3", "--seed", "1", "--out", str(data)])
    cli.main(["colorful", str(data), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["part_centroids"][0][0] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(bad), str(data)]) == cli.EXIT_CHECK_FAILED
    assert "FAIL part_centroids_match" in capsys.readouterr().out


def _cut_set_diameters(doc):
    # one exactness flag for two sets, and a tripled second diameter that
    # the existential radius is recomputed from
    doc["set_diameters_exact"] = doc["set_diameters_exact"][:1]
    doc["set_diameters"][1] *= 3.0
    pairs = zip(doc["set_diameters"], doc["parameters"]["m"])
    doc["existential_radius"] = (2.0 + 2.0 * math.sqrt(2.0)) * max(v / math.sqrt(m) for v, m in pairs)


_MISSHAPEN_FRAMES = {
    "basis_one_row": lambda doc: doc.update(subspace_basis=doc["subspace_basis"][:1]),
    "basis_column_cut": lambda doc: doc.update(subspace_basis=[row[:-1] for row in doc["subspace_basis"]]),
    "translation_too_short": lambda doc: doc.update(translation=doc["translation"][:2]),
    "m_one_entry": lambda doc: doc["parameters"].update(m=doc["parameters"]["m"][:1]),
    "set_diameters_cut": _cut_set_diameters,
}


@pytest.mark.parametrize("edit", list(_MISSHAPEN_FRAMES))
def test_misshapen_frame_fails_shapes_consistent(tmp_path, capsys, edit):
    out, inputs = _hamsandwich_run(tmp_path, 60)
    doc = json.loads(out.read_text())
    _MISSHAPEN_FRAMES[edit](doc)
    bad = tmp_path / "bad.json"
    bad.write_bytes(cli.emit_document(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(bad), *inputs]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "FAIL shapes_consistent" in captured.out and "Traceback" not in captured.err


def test_timing_flag_controls_timing_field(tmp_path):
    data = tmp_path / "pts.csv"
    cli.main(["gen", "--n", "20", "--d", "2", "--seed", "4", "--out", str(data)])
    out = tmp_path / "c.json"
    cli.main(["tverberg", str(data), "--k", "2", "--out", str(out)])
    assert json.loads(out.read_text())["timing_ms"] is None
    cli.main(["tverberg", str(data), "--k", "2", "--out", str(out), "--timing"])
    assert json.loads(out.read_text())["timing_ms"] >= 0.0


def test_one_point_bench_grid_fits_no_exponent():
    # a line through one point has any slope: polyfit would warn and return noise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, expo = cli.run_bench_colorful([128], n_classes=16, d=64, reps=1)
    assert [k for k, _ in rows] == [128] and math.isnan(expo)


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
    assert json.loads(out.read_text())["schema"] == "tverberg-nd/3"

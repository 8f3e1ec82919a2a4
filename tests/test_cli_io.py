"""The CLI's fast CSV reader and flat emitter against their reference rules."""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tverberg_nd import cli
from tverberg_nd.colorful import ColorInstance, partition_colorful
from tverberg_nd.hamsandwich import generalized_ham_sandwich
from tverberg_nd.tverberg import partition_general, partition_nearly_balanced

# ---------------------------------------------------------------- ingest


def _read(path):
    """(array, None) from load_points, or (None, the ParseError text)."""
    try:
        return cli.load_points(path).coords, None
    except cli.ParseError as exc:
        return None, str(exc)


def _read_lines(path):
    try:
        return cli._load_csv_lines(path), None
    except cli.ParseError as exc:
        return None, str(exc)


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_bom_keeps_the_first_row(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff1,2\n3,4\n".encode("utf-8"))
    assert cli._load_csv_fast(str(path)) is not None
    assert cli._load_csv_lines(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert cli.load_points(str(path)).coords.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # a BOM before a header: the line parser reads it and skips the header
    path.write_bytes("\ufeffx,y\n1,2\n".encode("utf-8"))
    assert cli._load_csv_fast(str(path)) is None
    assert cli.load_points(str(path)).coords.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("size", [0, 1, (1 << 18) - 1, 1 << 18, (1 << 18) + 1, 3 * (1 << 18) + 5])
def test_digest_hashes_every_byte_across_buffer_edges(tmp_path, size):
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob.csv"
    path.write_bytes(data)
    assert cli._digest(str(path)) == "sha256:" + hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "text",
    ["x,y\n1,2\n", "# c\n1,2\n", "1,2\n  \n3,4\n", "1 2\n", "1,2,\n", "1,2\n3\n", "1_0,2\n",
     "\uff11,2\n", "1,2 # note\n", "inf,1\n", "nan,1\n", "1e400,1\n", "0x10,1\n", ""],
)
def test_fast_reader_defers_on_everything_but_plain_rows(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    assert cli._load_csv_fast(str(path)) is None
    got, err = _read(str(path))
    ref, ref_err = _read_lines(str(path))
    assert err == ref_err and (ref is None or _same(got, ref))


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(str),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0", "+1", "1.", ".5", "1e5", "1E-5", "5e-324", "1e-400", "007"]),
)
_ODD_TOKENS = st.sampled_from(
    ["inf", "-inf", "nan", "Infinity", "1e400", "0x10", "0x1p3", "0X1", "1_0", "\uff11", "1d5",
     "x", "#", "'1'", "", "1#2"]
)
_SEPARATORS = st.sampled_from([", ", " ,", " ", "\t", ",,", "\u3000"])
_PADDING = st.sampled_from(["", "", "", " ", "\t", "\u3000", "\x0c", "\x85"])


def _rare(draw, odds):
    return draw(st.integers(1, odds)) == 1


@st.composite
def _csv_text(draw):
    """CSV text that is mostly plain rows, with rare irregularities of every kind."""
    width = draw(st.integers(1, 4))
    lines = []
    if _rare(draw, 4):
        lines.append(draw(st.sampled_from(["x,y", "a b c", "# header", "1,y"])))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 16 + ["blank", "spaces", "comment", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t "])))
        elif kind == "comment":
            lines.append("# " + draw(st.text(max_size=5)).replace("\n", "").replace("\r", ""))
        else:
            n = width if kind == "row" else draw(st.integers(0, 5))
            tokens = [draw(_ODD_TOKENS if _rare(draw, 40) else _NUMBERS) for _ in range(n)]
            line = tokens[0] if tokens else ""
            for tok in tokens[1:]:
                line += (draw(_SEPARATORS) if _rare(draw, 20) else ",") + tok
            if _rare(draw, 6):
                line = draw(_PADDING) + line + draw(_PADDING) + draw(st.sampled_from(["", ",", " # note"]))
            lines.append(line)
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    return ("\ufeff" if _rare(draw, 8) else "") + text


@settings(deadline=None, max_examples=400)
@given(_csv_text())
def test_fast_reader_agrees_with_the_line_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast = cli._load_csv_fast(path)
        ref, ref_err = _read_lines(path)
        if fast is not None:
            assert ref is not None and _same(fast, ref)
        got, err = _read(path)
    assert err == ref_err
    if ref is not None:
        assert _same(got, ref)


def test_fast_reader_reads_generated_files_exactly(tmp_path):
    path = tmp_path / "pts.csv"
    cli.main(["gen", "--n", "200", "--d", "7", "--seed", "3", "--dist", "gaussian", "--out", str(path)])
    fast = cli._load_csv_fast(str(path))
    assert fast is not None and _same(fast, cli._load_csv_lines(str(path)))


# ------------------------------------------------------------------ emit


def _recursive_jsonify(value):
    """The one-rule-per-type renderer that emit_document's output must match."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_recursive_jsonify(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_recursive_jsonify(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _recursive_jsonify(value.tolist())
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _certificate_docs():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((90, 4))
    yield cli._tverberg_doc(partition_nearly_balanced(pts, 7), "sha256:0", None)
    yield cli._tverberg_doc(partition_general(pts, [40, 30, 20], 2), "sha256:0", 1.5)
    inst = ColorInstance(rng.standard_normal((5, 6, 3)))
    yield cli._colorful_doc(partition_colorful(inst), "sha256:0", None)
    sets = [rng.standard_normal((40, 3)), rng.standard_normal((50, 3)) + 1.0]
    yield cli._hamsandwich_doc(generalized_ham_sandwich(sets, [4, 5]), ["sha256:0", "sha256:1"], None)


def test_emit_matches_recursive_rules_on_certificates():
    for doc in _certificate_docs():
        assert cli.emit_document(doc) == (_recursive_jsonify(doc) + "\n").encode("utf-8")


def test_emit_matches_recursive_rules_on_mixed_fragments():
    doc = {
        "mixed": [True, 1, np.int64(2), -0.0, 0, False, np.bool_(True), 2**70, None, "s"],
        "ints": [0, -1, 2**63, 10**30],
        "int_tuple": (3, 1, 2),
        "empty": [],
        "bools": [True, False],
        "np_ints": [np.int64(5), np.int32(-6)],
        "matrix": np.array([[-0.0, 0.1, 5e-324], [1e308, -1e-300, 1.0 / 3.0]]),
        "empty_rows": np.zeros((0, 3)),
        "empty_cols": np.zeros((2, 0)),
        "f32": np.array([[0.1, 0.2]], dtype=np.float32),
        "int_matrix": np.arange(6).reshape(2, 3),
        "vector": np.array([-0.0, 2.5]),
        "cube": np.ones((2, 1, 2)),
        "strided": np.arange(12.0).reshape(3, 4)[:, ::2],
        "nonfinite": np.array([[np.inf, -np.inf]]),
    }
    assert cli.emit_document(doc) == (_recursive_jsonify(doc) + "\n").encode("utf-8")


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.text(max_size=4),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=4)),
)


_FRAGMENTS = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=20,
)


@settings(deadline=None, max_examples=200)
@given(_FRAGMENTS)
def test_emit_matches_recursive_rules_on_generated_fragments(value):
    doc = {"value": value}
    assert cli.emit_document(doc) == (_recursive_jsonify(doc) + "\n").encode("utf-8")

"""Blocked scans: the same results under any block budget, and bounded peaks.

The traversal, the class sums, diameter_upper and depth_2d_exact walk
their input one geom._SCAN_BYTES block at a time. Shrinking the budget to
a few rows must not change a single output byte, and at the default
budget the traced peak must stay far below one input-sized temporary.
A ham-sandwich build and its check hold a bounded number of projected
sets at once.
"""

import tracemalloc

import numpy as np
import pytest

from tverberg_nd import cli, geom, tverberg
from tverberg_nd.hamsandwich import check_depth_certificate, generalized_ham_sandwich
from tverberg_nd.oracle import depth_2d_exact

D = 3
ROWS = 4  # rows of D floats per block under TINY
TINY = 8 * D * ROWS
WHOLE = 1 << 40  # one block for every input here


def _doc_bytes(cert) -> bytes:
    return cli.emit_document(cli._tverberg_doc(cert, "sha256:x", None))


@pytest.mark.parametrize(
    "n, k",
    [
        (1, 1),  # a single row
        (3, 2),  # below one block
        (4, 2),  # exactly one block
        (5, 2),  # one row above a block; the nearly balanced run covers 4 rows
        (5, 5),
        (9, 3),  # two full blocks and one row
        (11, 3),  # nearly balanced: 9 rows traversed, 2 leftovers
        (13, 2),  # nearly balanced: three full blocks traversed, 1 leftover
    ],
)
def test_row_blocks_leave_certificate_bytes_unchanged(monkeypatch, n, k):
    pts = np.random.default_rng(n).standard_normal((n, D)) * 100.0 + 7.0
    sizes = [n // k] * (k - 1) + [n - (k - 1) * (n // k)]
    blocks = []
    whole_block = tverberg._centered_block

    def counted(rows, center, carry):
        blocks.append(rows.shape[0])
        return whole_block(rows, center, carry)

    monkeypatch.setattr(tverberg, "_centered_block", counted)
    runs = {}
    for budget in (WHOLE, TINY):
        monkeypatch.setattr(geom, "_SCAN_BYTES", budget)
        blocks.clear()
        certs = [
            tverberg.partition_nearly_balanced(pts, k, diameter_exact_threshold=0),
            tverberg.partition_general(pts, sizes),
        ]
        runs[budget] = [c.parts for c in certs], [_doc_bytes(c) for c in certs], list(blocks)

    assert runs[TINY][0] == runs[WHOLE][0]  # the assignments
    assert runs[TINY][1] == runs[WHOLE][1]
    traversed = [n - n % k, n]
    assert runs[WHOLE][2] == traversed
    # under TINY each traversal makes a forward pass over all blocks but the last
    per_run = [2 * -(-rows // ROWS) - 1 for rows in traversed]
    assert len(runs[TINY][2]) == sum(per_run)
    assert max(runs[TINY][2]) <= ROWS


def test_blocked_upper_diameter_and_planar_depth_match_one_block(monkeypatch):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((37, D)) + 5.0
    planar = rng.standard_normal((50, 2))
    values = {}
    for budget in (WHOLE, TINY):
        monkeypatch.setattr(geom, "_SCAN_BYTES", budget)
        values[budget] = (
            geom.diameter_upper(pts),
            depth_2d_exact(planar.mean(axis=0), planar),
            depth_2d_exact(planar[0], planar),
        )
    assert values[TINY] == values[WHOLE]


def _traced(fn, *args):
    """fn(*args) and the traced peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_partition_general_peak_stays_within_a_few_blocks():
    n, d = 20000, 64
    pts = np.random.default_rng(0).standard_normal((n, d))  # 10 MiB, made before tracing
    _, peak = _traced(tverberg.partition_general, pts, [n // 4] * 4)
    # a few blocks plus O(n) index state; one n x d float temporary alone is 10 MiB
    assert peak < 4 * geom._SCAN_BYTES + 64 * n


def test_planar_depth_peak_stays_within_a_few_blocks():
    planar = np.random.default_rng(1).standard_normal((1000, 2))
    _, peak = _traced(depth_2d_exact, planar.mean(axis=0), planar)
    # one count over all 4n directions at once would be 1000 x 4000 floats, 30 MiB
    assert peak < 4 * geom._SCAN_BYTES


@pytest.fixture(scope="module")
def wide_hamsandwich():
    """Two 20000 x 64 sets (10 MiB each, made before tracing), the build on them and its traced peak."""
    rng = np.random.default_rng(4)
    sets = [rng.standard_normal((20000, 64)), rng.standard_normal((20000, 64)) + 0.5]
    cert, peak = _traced(generalized_ham_sandwich, sets, (50, 50))
    return sets, cert, peak


def test_hamsandwich_build_holds_one_projection_of_each_set(wide_hamsandwich):
    sets, _, peak = wide_hamsandwich
    # one set translated and projected while it is partitioned: about 2 sets' bytes;
    # every set translated and projected at once would be about 4
    assert peak < 2.5 * sets[0].nbytes


def test_depth_check_projects_one_set_at_a_time(wide_hamsandwich):
    sets, cert, _ = wide_hamsandwich
    checks, peak = _traced(check_depth_certificate, cert, sets)
    assert all(c.ok for c in checks)
    # one set translated and projected: about 2 sets' bytes; every set projected at once would be 3
    assert peak < 2.5 * sets[0].nbytes

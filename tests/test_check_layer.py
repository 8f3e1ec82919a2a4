"""The shared check layer: cached container invariants, one self-check per build, one tolerance rule."""

import collections
import math

import numpy as np
import pytest

from reference import diameter_pairwise
from tverberg_nd import colorful, geom, hamsandwich, tverberg
from tverberg_nd.colorful import ColorInstance, check_colorful_certificate, partition_colorful
from tverberg_nd.geom import PointSet
from tverberg_nd.hamsandwich import check_depth_certificate, generalized_ham_sandwich
from tverberg_nd.tverberg import ABS_GUARD, REL_SLACK, CertificateError

# Every binding through which the package calls these functions.
_COUNTED = [
    (geom, "diameter_exact"),
    (geom, "diameter_upper"),
    (colorful, "diameter_exact"),
    (tverberg, "check_certificate"),
    (hamsandwich, "check_certificate"),
    (hamsandwich, "depth_2d_exact"),
]


@pytest.fixture
def calls(monkeypatch):
    counts = collections.Counter()
    for module, name in _COUNTED:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_containers_cache_their_exact_diameters(calls):
    rng = np.random.default_rng(30)
    pts = PointSet(rng.standard_normal((50, 4)))
    assert pts.diameter == diameter_pairwise(pts.coords)
    assert pts.diameter == geom.diameter_bound(pts)[0]
    assert calls["diameter_exact"] == 1
    inst = ColorInstance(rng.standard_normal((5, 7, 3)))
    assert inst.max_class_diameter == max(diameter_pairwise(c) for c in inst.classes)
    assert inst.max_class_diameter > 0.0
    assert calls["diameter_exact"] == 1 + 5


def test_tverberg_build_computes_the_upper_diameter_once(calls):
    pts = np.random.default_rng(34).standard_normal((5000, 3))
    cert = tverberg.partition_nearly_balanced(pts, 7)
    assert not cert.diameter_exact  # 5000 rows lie above the exact-diameter threshold
    # the build and its self-check share the bound cached on one PointSet
    assert {name: calls[name] for name in ("diameter_upper", "diameter_exact", "check_certificate")} == {
        "diameter_upper": 1,
        "diameter_exact": 0,
        "check_certificate": 1,
    }


@pytest.mark.parametrize("d,planar", [(3, False), (2, True)])
def test_hamsandwich_build_checks_each_piece_once(calls, d, planar):
    rng = np.random.default_rng(31)
    sets = [rng.standard_normal((40, d)), rng.standard_normal((45, d)) + 1.5]
    cert = generalized_ham_sandwich(sets, (5, 5))
    assert (cert.oracle_depths is not None) == planar
    k = len(sets)
    # one exact diameter per raw set and per projected set, one check per
    # per-set certificate (inside its builder), one depth per planar set
    built = {"diameter_exact": 2 * k, "check_certificate": k, "depth_2d_exact": k if planar else 0}
    assert {name: calls[name] for name in built} == built
    calls.clear()
    checks = check_depth_certificate(cert, [PointSet(x) for x in sets])
    assert all(c.ok for c in checks)
    assert {name: calls[name] for name in built} == built  # fresh containers recompute everything


def test_colorful_build_computes_each_class_diameter_once(calls):
    classes = np.random.default_rng(32).standard_normal((6, 8, 3))
    cert = partition_colorful(classes)
    assert calls["diameter_exact"] == 6
    calls.clear()
    assert all(c.ok for c in check_colorful_certificate(cert, ColorInstance(classes)))
    assert calls["diameter_exact"] == 6


def test_frame_self_check_catches_a_bad_composition(monkeypatch):
    joint_depth_ball = hamsandwich.joint_depth_ball

    def halved_radius(sets, translation, basis, m):
        radius, certs, depths = joint_depth_ball(sets, translation, basis, m)
        return radius / 2.0, certs, depths

    monkeypatch.setattr(hamsandwich, "joint_depth_ball", halved_radius)
    rng = np.random.default_rng(33)
    with pytest.raises(CertificateError) as err:
        generalized_ham_sandwich([rng.standard_normal((30, 3)), rng.standard_normal((30, 3))], (5, 5))
    assert "radius_is_twice_worst_guarantee" in {f.name for f in err.value.failures}


def test_close_states_the_tolerance_rule():
    checks = tverberg._Checks()
    tol = REL_SLACK * 10.0 + ABS_GUARD
    checks.close("at_tolerance", tol, 0.0, 10.0)
    checks.close("past_tolerance", 2.0 * tol, 0.0, 10.0)
    checks.close("scale_floor_is_one", ABS_GUARD + REL_SLACK, 0.0, 1e-3)
    checks.close("entrywise", np.array([[1.0, 2.0]]), np.array([[1.0, 2.0 + 2.0 * tol]]), 10.0)
    checks.close("shape_mismatch", np.zeros(3), np.zeros(2), 1.0)
    checks.close("nan", math.nan, 0.0, 1.0)
    assert [c.ok for c in checks] == [True, False, True, False, False, False]
    assert checks[0].detail.startswith("recomputed ") and checks[4].detail == "max err inf"

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tsurf
from tsurf import (
    Disconnected,
    EdgeMismatch,
    InvalidParams,
    NonConvexPolygon,
    NoSingularities,
    ParseError,
)

from oracles import corner_angle, float_excess


def test_lshape_invariants(lshape):
    assert lshape.genus == 2
    assert lshape.area == 3
    assert len(lshape.cone_points) == 1
    c = lshape.cone_points[0]
    assert c.k == 2
    assert len(c.star) == 12


def test_slit_tori_invariants(slit):
    assert slit.genus == 2
    assert slit.area == 2
    assert sorted(c.k for c in slit.cone_points) == [1, 1]


def test_gauss_bonnet(lshape, slit):
    for S in (lshape, slit):
        assert sum(c.k for c in S.cone_points) == 2 * S.genus - 2


def test_lshape_params():
    S = tsurf.builtin_surface("lshape", [Fraction(3), Fraction(5, 2)])
    assert S.area == Fraction(3) + Fraction(5, 2) - 1
    assert S.genus == 2


def test_lshape_rejects_degenerate_arms():
    with pytest.raises(InvalidParams):
        tsurf.builtin_surface("lshape", [Fraction(1), Fraction(2)])


def test_unknown_builtin():
    with pytest.raises(InvalidParams):
        tsurf.builtin_surface("donut")


def test_roundtrip_through_json(lshape, tmp_path):
    f = tmp_path / "s.json"
    f.write_text(lshape.dumps())
    S2 = tsurf.load_surface_file(f)
    assert S2.polygons == lshape.polygons
    assert S2.genus == lshape.genus
    assert [c.k for c in S2.cone_points] == [c.k for c in lshape.cone_points]


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        tsurf.load_surface("not json {")
    with pytest.raises(ParseError):
        tsurf.load_surface('{"polygons": []}')


def test_square_torus_has_no_singularity():
    # one square, opposite sides glued: flat torus, k would be 0
    sq = [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]
    gl = [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]
    with pytest.raises(NoSingularities):
        tsurf.load_surface(json.dumps({"polygons": sq, "gluings": gl}))


def test_mismatched_edge_vectors():
    polys = [[["0", "0"], ["2", "0"], ["2", "1"], ["0", "1"]],
             [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]
    # bottom of a 2x1 rectangle against top of a unit square
    gl = [[[0, 0], [1, 2]], [[0, 1], [0, 3]], [[0, 2], [1, 0]], [[1, 1], [1, 3]]]
    with pytest.raises(EdgeMismatch):
        tsurf.load_surface(json.dumps({"polygons": polys, "gluings": gl}))


def test_nonconvex_polygon_rejected():
    # reflex vertex at (1,1)
    poly = [[["0", "0"], ["2", "0"], ["2", "2"], ["1", "1"], ["0", "2"]]]
    gl = []
    with pytest.raises((NonConvexPolygon, ParseError, EdgeMismatch)):
        tsurf.load_surface(json.dumps({"polygons": poly, "gluings": gl}))


def test_disconnected_surface_rejected():
    # two tori with no gluing between them would each need k=0 anyway,
    # so build two separate lshape copies instead
    L = tsurf.builtin_surface("lshape")
    polys = [[[str(x), str(y)] for (x, y) in p] for p in L.polygons]
    gl = [[[a, b], [c, d]] for ((a, b), (c, d)) in L.gluing_pairs]
    polys2 = polys + [[[str(x), str(y)] for (x, y) in p] for p in L.polygons]
    gl2 = gl + [[[a + 3, b], [c + 3, d]] for ((a, b), (c, d)) in L.gluing_pairs]
    with pytest.raises(Disconnected):
        tsurf.load_surface(json.dumps({"polygons": polys2, "gluings": gl2}))


def test_scale_surface(lshape):
    S2 = tsurf.scale_surface(lshape, Fraction(3, 2))
    assert S2.area == lshape.area * Fraction(9, 4)
    assert [c.k for c in S2.cone_points] == [2]
    with pytest.raises(InvalidParams):
        tsurf.scale_surface(lshape, -1)


def test_corner_angles_sum_around_cone(lshape):
    c = lshape.cone_points[0]
    total = sum(corner_angle(lshape, p, v) for (p, v) in c.star)
    assert abs(total - 6 * math.pi) < 1e-12


_SIDES = st.fractions(min_value=1, max_value=6, max_denominator=60).filter(
    lambda side: side > 1)


@settings(max_examples=60, deadline=None)
@given(p=_SIDES, q=_SIDES)
def test_lshape_cone_angle_matches_the_float_sum(p, q):
    S = tsurf.builtin_surface("lshape", [p, q])
    assert [c.k for c in S.cone_points] == [float_excess(S, c.star)
                                            for c in S.cone_points] == [2]
    assert [float_excess(S, cyc) for cyc in S.regular_classes] == [0] * len(
        S.regular_classes)
    # the last sector's first ray lies in the last half-turn
    assert S.star_half_turns[0][-1] == 2 * S.cone_points[0].k + 1


def test_polygon_winding_twice_rejected():
    # a five-pointed star: a left turn at every vertex, winding number 2
    star = [["10", "0"], ["-8", "6"], ["3", "-10"], ["3", "10"], ["-8", "-6"]]
    gl = [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]
    with pytest.raises(NonConvexPolygon, match="winds more than once"):
        tsurf.load_surface(json.dumps({"polygons": [star], "gluings": gl}))

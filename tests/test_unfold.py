"""Ray tracing and saddle-connection enumeration."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import tsurf
from tsurf import enumerate_saddle_connections, trace_ray
from tsurf.geometry import Wedge, neg
from tsurf.unfold import (TracePoint, cone_direction, integer_polygons,
                          opposite_sectors, unfold_wedge)

from oracles import (arc_run_predecessors, fraction_saddle_connections,
                     reversal_permutation, scan_opposite_sectors,
                     wedge_unfold_wedge)


def test_trace_straight_across_square(lshape):
    r = trace_ray(lshape, TracePoint(0, (Fraction(1, 2), Fraction(1, 2))),
                  (1, 0), Fraction(1, 16))
    assert not r.hit_singularity
    assert r.end.position == (Fraction(3, 4), Fraction(1, 2))
    assert r.consumed_length_sq == Fraction(1, 16)


def test_trace_hits_cone_point(lshape):
    # from the square center along the diagonal: the corner is a cone point
    r = trace_ray(lshape, TracePoint(0, (Fraction(1, 2), Fraction(1, 2))),
                  (1, 1), Fraction(10))
    assert r.hit_singularity
    assert r.consumed_length_sq == Fraction(1, 2)


def test_trace_segments_cover_the_chord(lshape):
    r = trace_ray(lshape, TracePoint(0, (Fraction(1, 3), Fraction(1, 5))),
                  (3, 1), Fraction(4))
    total = Fraction(0)
    for (_, a, b) in r.segments:
        total += (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    # chord pieces of a straight line: squared lengths add along the
    # direction, so compare the summed displacement instead
    disp = sum(b[0] - a[0] for (_, a, b) in r.segments)
    assert disp * disp * Fraction(10, 9) == r.consumed_length_sq


def test_zero_direction_rejected(lshape):
    with pytest.raises(tsurf.InvalidParams):
        trace_ray(lshape, TracePoint(0, (Fraction(1, 2), Fraction(1, 2))),
                  (0, 0), Fraction(1))


def test_saddle_count_small_budgets(lshape):
    by_sq = Counter(s.length_sq for s in enumerate_saddle_connections(lshape, 9))
    assert by_sq[Fraction(1)] == 12
    assert by_sq[Fraction(2)] == 12
    assert by_sq[Fraction(5)] == 24
    assert sum(by_sq.values()) == 48


def test_holonomy_matches_length(lshape):
    for s in enumerate_saddle_connections(lshape, 9):
        hx, hy = s.holonomy
        assert hx * hx + hy * hy == s.length_sq
        assert s.length == pytest.approx(math.sqrt(float(s.length_sq)), rel=1e-15)


def test_reversal_is_an_involution(lshape):
    sad = enumerate_saddle_connections(lshape, 9)
    perm = reversal_permutation(sad)
    for s in sad:
        t = sad[perm[s.id]]
        assert perm[t.id] == s.id
        assert t.holonomy == (-s.holonomy[0], -s.holonomy[1])
        assert t.length_sq == s.length_sq
        assert (t.start, t.end) == (s.end, s.start)


def test_ids_sorted_by_length_then_data(lshape):
    sad = enumerate_saddle_connections(lshape, 9)
    assert [s.id for s in sad] == list(range(len(sad)))
    for a, b in zip(sad, sad[1:]):
        assert a.length_sq <= b.length_sq


def test_budget_is_inclusive(lshape):
    # length^2 = 2 connections must appear at budget exactly 2
    sad = enumerate_saddle_connections(lshape, 2)
    assert len(sad) == 24


def test_cone_direction_validates_sector(lshape):
    d = cone_direction(lshape, 0, 0, (1, 1))
    assert d.slot == 0
    with pytest.raises(tsurf.InvalidParams):
        cone_direction(lshape, 0, 0, (-1, 0))


def test_slit_tori_saddles_exist(slit):
    sad = enumerate_saddle_connections(slit, 2)
    assert len(sad) > 0
    # both cone points appear as endpoints
    assert {s.start for s in sad} == {0, 1}


@pytest.mark.parametrize("name, params, scale, budget", [
    ("lshape", None, 1, 49),
    ("slit_tori", None, 1, 25),
    ("lshape", ("7/3", "5/2"), 1, Fraction(121, 4)),
    ("lshape", None, Fraction(2, 3), 9),
])
def test_saddles_match_fraction_oracle(name, params, scale, budget):
    S = tsurf.scale_surface(tsurf.builtin_surface(name, params), scale)
    assert enumerate_saddle_connections(S, budget) == \
        fraction_saddle_connections(S, budget)


@pytest.mark.parametrize("name", ["lshape", "slit_tori"])
def test_opposite_sectors_match_the_scan(name):
    # every out- and back-direction, including those along a sector's ray
    S = tsurf.builtin_surface(name)
    sad = enumerate_saddle_connections(S, 49)
    assert any(S.star_rays[s.start][s.out_dir.slot][0] == s.out_dir.vec
               for s in sad)
    for s in sad:
        for d in (s.out_dir, s.back_dir):
            assert opposite_sectors(S, d) == scan_opposite_sectors(S, d)


@pytest.mark.parametrize("name, params, scale", [
    ("lshape", None, 1),
    ("lshape", ("7/3", "5/2"), 1),
    ("slit_tori", None, 1),
    ("lshape", None, Fraction(2, 3)),
])
def test_kernel_develops_as_the_wedge_objects(name, params, scale):
    # every sector whole at B = 49, copy by copy in the same order
    S = tsurf.scale_surface(tsurf.builtin_surface(name, params), scale)
    D, polys = integer_polygons(S)
    B = 49 * D * D
    for cone in S.cone_points:
        for slot, (p, v) in enumerate(cone.star):
            r1, r2 = S.star_rays[cone.id][slot]
            w = Wedge(r1, True, r2, False)
            t = neg(polys[p][v])
            got = [(c[0], c[1], c[4]) for c in
                   unfold_wedge(S, polys, B, p, t, (w.a, w.ia, w.b, w.ib))]
            want = [(c[0], c[1], c[4]) for c in
                    wedge_unfold_wedge(S, polys, B, p, t, w)]
            assert got == want
            assert any(hits for _, _, hits in got)


@pytest.mark.parametrize("name, budget", [("lshape", 49), ("slit_tori", 49),
                                          ("lshape", 100)])
def test_reversal_matches_the_holonomy_dict(name, budget):
    sad = enumerate_saddle_connections(tsurf.builtin_surface(name), budget)
    assert sad.reversal == reversal_permutation(sad)


@pytest.mark.parametrize("name, params, budget", [
    ("lshape", None, 100),
    ("slit_tori", None, 49),
    ("lshape", ("7/3", "5/2"), Fraction(121, 4)),
])
def test_predecessors_are_the_conjugated_successors(name, params, budget):
    S = tsurf.builtin_surface(name, params)
    G = tsurf.build_concat_graph(S, budget)
    want = arc_run_predecessors(S, G.saddles)
    assert np.diff(G.before.ptr).max() <= 2
    got_rows, got_ids = G.before.pairs()
    want_rows, want_ids = want.pairs()
    assert set(zip(got_rows.tolist(), got_ids.tolist())) == \
        set(zip(want_rows.tolist(), want_ids.tolist()))
    assert G.before.size == want.size == G.edges

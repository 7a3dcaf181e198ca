"""Ray tracing and saddle-connection enumeration."""

import functools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tsurf
from tsurf import enumerate_saddle_connections, trace_ray, unfold
from tsurf.geometry import cross, neg, norm_dir
from tsurf.surface import TranslationSurface
from tsurf.unfold import (TracePoint, angle_key, integer_polygons,
                          opposite_sectors, unfold_wedge)

from oracles import (Wedge, arc_run_predecessors, ccw_sort_key,
                     comparator_arc_runs, cone_direction, float_excess,
                     fraction_saddle_connections, fraction_trace_ray,
                     reversal_permutation, scan_opposite_sectors,
                     sheared_lshape, wedge_unfold_wedge)


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


def _lshape_with_regular_vertices():
    """lshape with the arm [1,2]x[0,1] cut at x = 3/2 into two squares and
    with the point (1/2, 0) ~ (1/2, 2) made a vertex of both polygons it
    lies on. Both new vertex classes are regular (angle 2*pi), the second
    one flat in each of its polygons."""
    h, t = Fraction(1, 2), Fraction(3, 2)
    polygons = [
        [(0, 0), (h, 0), (1, 0), (1, 1), (0, 1)],
        [(1, 0), (t, 0), (t, 1), (1, 1)],
        [(t, 0), (2, 0), (2, 1), (t, 1)],
        [(0, 1), (1, 1), (1, 2), (h, 2), (0, 2)],
    ]
    gluings = [((0, 0), (3, 3)), ((0, 1), (3, 2)), ((0, 2), (1, 3)),
               ((0, 3), (3, 0)), ((0, 4), (2, 1)), ((1, 0), (1, 2)),
               ((1, 1), (2, 3)), ((2, 0), (2, 2)), ((3, 1), (3, 4))]
    return TranslationSurface(
        [[(Fraction(x), Fraction(y)) for x, y in poly] for poly in polygons],
        gluings)


def _seeded_rays(S, seed):
    """Endless rays (start, direction, budget): starts inside a polygon, on
    an edge or at a vertex; small rational directions or unit directions
    rounded to denominators of at most 10**12; budgets up to 60."""
    rng = random.Random(seed)
    while True:
        p = rng.randrange(len(S.polygons))
        verts = S.polygons[p]
        kind = rng.randrange(3)
        if kind == 0:
            w = [rng.randint(1, 6) for _ in verts]
            pos = tuple(sum(wi * v[c] for wi, v in zip(w, verts)) / sum(w)
                        for c in (0, 1))
        elif kind == 1:
            e = rng.randrange(len(verts))
            a, b = verts[e], verts[(e + 1) % len(verts)]
            s = Fraction(rng.randint(1, 11), 12)
            pos = (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))
        else:
            pos = verts[rng.randrange(len(verts))]
        if rng.random() < 0.5:
            d = (0, 0)
            while d == (0, 0):
                d = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(2))
        else:
            a = rng.uniform(0, 2 * math.pi)
            d = (Fraction(math.cos(a)).limit_denominator(10 ** 12),
                 Fraction(math.sin(a)).limit_denominator(10 ** 12))
        yield TracePoint(p, pos), d, Fraction(rng.randint(0, 240), 4)


@pytest.mark.parametrize("name, params", [
    ("lshape", None),
    ("lshape", ("7/3", "5/2")),
    ("slit_tori", None),
    ("slit_tori", ("1/3",)),
    ("regular_vertices", None),
])
def test_trace_ray_matches_the_fraction_tracer(name, params):
    # 260 rays per surface on which the oracle runs; it raises on a
    # boundary start whose direction leaves the polygon (see the test below)
    S = (_lshape_with_regular_vertices() if name == "regular_vertices"
         else tsurf.builtin_surface(name, params))
    seen = Counter()
    for start, d, B in _seeded_rays(S, 19):
        try:
            want = fraction_trace_ray(S, start, d, B)
        except AssertionError:
            continue
        assert trace_ray(S, start, d, B) == want, (start, d, B)
        seen[want.hit_singularity] += 1
        if seen.total() == 260:
            break
    assert min(seen.values()) > 15  # cone hits and budget ends alike


@pytest.mark.parametrize("start, direction, glued", [
    # edge starts pointing out: A bottom ~ C top, A right ~ B left
    (TracePoint(0, (Fraction(1, 2), 0)), (0, -1),
     TracePoint(2, (Fraction(1, 2), 2))),
    (TracePoint(0, (1, Fraction(1, 2))), (1, 0),
     TracePoint(1, (1, Fraction(1, 2)))),
    # a vertex start pointing out of A's corner at (1, 0): two corners ccw
    # around the cone, C's corner at (0, 2) holds the direction
    (TracePoint(0, (1, 0)), (2, -1), TracePoint(2, (0, 2))),
])
def test_boundary_start_continues_across(lshape, start, direction, glued):
    with pytest.raises(AssertionError):
        fraction_trace_ray(lshape, start, direction, 4)
    want = fraction_trace_ray(lshape, glued, direction, 4)
    assert trace_ray(lshape, start, direction, 4) == want
    assert trace_ray(lshape, glued, direction, 4) == want


@pytest.mark.parametrize("polygon", [3, -1])
def test_start_polygon_outside_the_surface_rejected(lshape, polygon):
    with pytest.raises(tsurf.InvalidParams):
        trace_ray(lshape, TracePoint(polygon, (Fraction(1, 2), Fraction(1, 2))),
                  (1, 0), 1)


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


def _flat_corner_lshape():
    """lshape with its squares [0,1]x[0,1] and [1,2]x[0,1] joined into one
    hexagon: its corners at (1, 0) and (1, 1) are corners of the cone point
    of angle pi, one sector the upper half-plane and one the lower."""
    polygons = [[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)],
                [(0, 1), (1, 1), (1, 2), (0, 2)]]
    gluings = [((0, 0), (1, 2)), ((0, 4), (1, 0)), ((0, 5), (0, 2)),
               ((0, 1), (0, 3)), ((1, 1), (1, 3))]
    return TranslationSurface(
        [[(Fraction(x), Fraction(y)) for x, y in poly] for poly in polygons],
        gluings)


def _surface(name, params=None, scale=1):
    S = {"sheared_lshape": sheared_lshape,
         "flat_corner_lshape": _flat_corner_lshape,
         "regular_vertex_lshape": _lshape_with_regular_vertices}.get(name)
    S = S() if S else tsurf.builtin_surface(name, params)
    return tsurf.scale_surface(S, scale)


# the surfaces on which the integer kernel and the exact direction key are
# checked against the `Wedge` objects and the comparator order
SURFACES = [("lshape", None, 1), ("slit_tori", None, 1),
            ("lshape", ("7/3", "5/2"), 1), ("lshape", None, Fraction(2, 3)),
            ("sheared_lshape", None, 1), ("flat_corner_lshape", None, 1)]


@pytest.mark.parametrize("name, params, scale", SURFACES + [
    ("regular_vertex_lshape", None, 1), ("regular_vertex_lshape", None, 3)])
def test_half_turn_count_gives_the_float_cone_angle(name, params, scale):
    # k from the half-plane changes of the star walk, against the float sum
    # of the corner angles, at every cone and every regular class
    S = _surface(name, params, scale)
    for cone in S.cone_points:
        assert cone.k == float_excess(S, cone.star) >= 1
    for cyc in S.regular_classes:
        assert float_excess(S, cyc) == 0
    # each class starts at its least corner, the classes in that order
    classes = [cone.star for cone in S.cone_points] + list(S.regular_classes)
    assert all(cyc[0] == min(cyc) for cyc in classes)
    assert [cone.star[0] for cone in S.cone_points] == sorted(
        cone.star[0] for cone in S.cone_points)
    assert sorted(c for cyc in classes for c in cyc) == [
        (p, v) for p, poly in enumerate(S.polygons) for v in range(len(poly))]


@pytest.mark.parametrize("name, params, scale, budget", [
    ("lshape", None, 1, 49),
    ("slit_tori", None, 1, 25),
    ("lshape", ("7/3", "5/2"), 1, Fraction(121, 4)),
    ("lshape", None, Fraction(2, 3), 9),
] + [case + (budget,) for case in SURFACES for budget in (49, 100)
     if case + (budget,) != ("lshape", None, 1, 49)])
def test_saddles_match_fraction_oracle(name, params, scale, budget):
    S = _surface(name, params, scale)
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
    ("sheared_lshape", None, 1),
    ("flat_corner_lshape", None, 1),
])
def test_kernel_develops_as_the_wedge_objects(name, params, scale):
    # every sector whole at B = 49, copy by copy in the same order
    S = _surface(name, params, scale)
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


@pytest.mark.parametrize("budget", [49, 100])
@pytest.mark.parametrize("name, params, scale", SURFACES)
def test_runs_match_the_comparator_order(name, params, scale, budget):
    # the runs of `after` and `before` array for array, as when directions
    # were sorted and bisected with the cmp_to_key comparator
    S = _surface(name, params, scale)
    G = tsurf.build_concat_graph(S, budget)
    leaving = [(s.start, s.out_dir) for s in G.saddles]
    arriving = [(s.end, s.back_dir) for s in G.saddles]
    after = comparator_arc_runs(functools.partial(opposite_sectors, S),
                                leaving, arriving)
    before = after.conjugate(reversal_permutation(G.saddles))
    for got, want in ((G.after, after), (G.before, before)):
        for name in ("order", "ptr", "lo", "hi"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _in_sector(r1, r2, coeffs):
    """The coprime directions of a * r1 + b * m: in the closed sector [r1,
    r2] of angle < pi with m = r2 and |a|, in the half-open half-turn [r1,
    r2) with m the quarter-turn from r1 and b > 0 or a > 0."""
    if cross(r1, r2) > 0:
        m, coeffs = r2, [(abs(a), b) for a, b in coeffs]
    else:
        m, coeffs = (-r1[1], r1[0]), [(a, b) for a, b in coeffs if b or a > 0]
    return [norm_dir((a * r1[0] + b * m[0], a * r1[1] + b * m[1]))
            for a, b in coeffs]


def _check_angle_key(r1, dirs):
    # the key order is the comparator's, ties and all; equal keys are equal
    # directions, with float keys and with the exact ones
    by_cmp = sorted(range(len(dirs)), key=lambda i: ccw_sort_key(dirs[i]))
    for bound in (unfold._FLOAT_KEY_SQ, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(unfold, "_FLOAT_KEY_SQ", bound)
            key = angle_key([r1, *dirs])
        keys = [key(r1, d) for d in dirs]
        assert sorted(range(len(dirs)), key=keys.__getitem__) == by_cmp
        for i, j in zip(by_cmp, by_cmp[1:]):
            assert (keys[i] == keys[j]) == (dirs[i] == dirs[j])


_BUILTIN_SECTORS = sorted({
    rays for name, params in [("lshape", None), ("lshape", ("7/3", "5/2")),
                              ("slit_tori", None), ("slit_tori", ("1/3",))]
    for cone in tsurf.builtin_surface(name, params).star_rays for rays in cone})


def _coprime_ray():
    return st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(
        lambda v: v != (0, 0)).map(norm_dir)


_SECTORS = st.one_of(
    st.sampled_from(_BUILTIN_SECTORS),
    st.tuples(_coprime_ray(), _coprime_ray()).filter(
        lambda rr: cross(*rr) > 0))


@settings(max_examples=300, deadline=None)
@given(sector=_SECTORS,
       coeffs=st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 40)).filter(
           any), min_size=1, max_size=10),
       n=st.one_of(st.integers(1, 1 << 12), st.integers(1, 1 << 24)),
       repeats=st.lists(st.integers(0, 100), max_size=5))
def test_angle_key_orders_as_the_comparator(sector, coeffs, n, repeats):
    r1, r2 = sector
    # near-parallel pairs from the coefficients (n, n + 1) and (n + 1, n + 2),
    # and r1 itself
    dirs = _in_sector(r1, r2, coeffs + [(n, n + 1), (n + 1, n + 2), (1, 0)])
    dirs += [dirs[i % len(dirs)] for i in repeats]
    _check_angle_key(r1, dirs)


def test_angle_key_falls_back_past_the_float_bound():
    # 2**-61 apart at an angle near pi/4, whose float ulp is 2**-53: the
    # float keys tie, the exact ones do not
    n = 1 << 30
    dirs = [(n + 1, n + 2), (n, n + 1), (1, 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unfold, "_FLOAT_KEY_SQ", 1 << 200)
        key = angle_key([(1, 0), *dirs])
    assert key((1, 0), dirs[0]) == key((1, 0), dirs[1])
    key = angle_key([(1, 0), *dirs])
    assert key((1, 0), dirs[2]) < key((1, 0), dirs[0]) < key((1, 0), dirs[1])
    _check_angle_key((1, 0), dirs)


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

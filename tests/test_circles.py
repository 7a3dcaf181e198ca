import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tsurf
from tsurf import CellGrid, circle_measure, region_volume
from tsurf import circles
from tsurf.circles import _window_wedges
from tsurf.geodesics import saddle_cell_lengths
from tsurf.geometry import cross, dot, polygon_area
from tsurf.unfold import ConeDirection, opposite_sectors

from oracles import (antipodal_direction, bounding_box, cell_of_point,
                     direction_window, fraction_cell_areas,
                     monte_carlo_circle_measure,
                     monte_carlo_region_volume, per_arc_circle_measure,
                     per_arc_region_volume, sheared_lshape,
                     wedge_window_wedges)


def _wedges_angle(wedges) -> float:
    """The float angle the wedges (slot, (a, ia, b, ib)) sweep together."""
    return sum(math.atan2(cross(a, b), dot(a, b)) for _, (a, _, b, _) in wedges)


def test_full_cone_window(lshape, G9):
    w = direction_window(G9, x=0)
    assert w.cone_id == 0
    assert w.width == pytest.approx(6 * math.pi, abs=1e-12)
    wedges = _window_wedges(lshape, (0, None))
    assert [slot for slot, _ in wedges] == list(range(12))
    assert _wedges_angle(wedges) == pytest.approx(6 * math.pi, abs=1e-12)


def test_path_window_is_terminal_excess(lshape, G9):
    # every terminal cone here has k=2, so each path window spans 4*pi
    j = int(G9.out[0][0])
    for i in (0, 12, 24, j):
        w = direction_window(G9, 0, terminal=i)
        assert w.width == pytest.approx(4 * math.pi, abs=1e-12)
        back = G9.saddles[i].back_dir
        assert _wedges_angle(_window_wedges(lshape, (back.cone_id, back))) \
            == pytest.approx(4 * math.pi, abs=1e-12)


def test_window_of_width_zero_holds_no_wedge(lshape, G9):
    # a path ending at a point of angle 2*pi leaves no angle to continue
    # in: at the regular point of the square torus, whose four corners are
    # the square's, the opposite direction lies in one sector
    quarter = ((1, 0), (0, 1), (-1, 0), (0, -1))
    torus = SimpleNamespace(
        star_rays=(tuple(zip(quarter, quarter[1:] + quarter[:1])),),
        star_half_turns=((0, 0, 1, 1),), cone_points=(SimpleNamespace(k=0),))
    for slot, vec in enumerate([(1, 1), (-1, 0), (-1, -2), (0, -1)]):
        back = ConeDirection(0, slot, vec)
        assert len(opposite_sectors(torus, back)) == 1
        assert _window_wedges(torus, (0, back)) == []
    back = G9.saddles[0].back_dir
    assert len(_window_wedges(lshape, (back.cone_id, back))) >= 2


@pytest.mark.parametrize("name, params, budget", [
    ("lshape", None, 36), ("slit_tori", None, 25), ("lshape", ["7/3", "5/2"], 25)])
def test_window_wedges_match_the_sector_scan(name, params, budget):
    S = tsurf.builtin_surface(name, params)
    G = tsurf.build_concat_graph(S, budget)
    windows = [((c.id, None), direction_window(G, c.id)) for c in S.cone_points]
    windows += [((s.back_dir.cone_id, s.back_dir), direction_window(G, 0, t))
                for t, s in enumerate(G.saddles)]
    for window, oracle in windows:
        assert _window_wedges(S, window) == [
            (slot, (v.a, v.ia, v.b, v.ib))
            for slot, v in wedge_window_wedges(S, oracle)]


def test_antipode_order_matches_cone(lshape, G9):
    d = direction_window(G9, x=0).start
    a = antipodal_direction(lshape, d)
    assert a != d
    assert a.vec == (-d.vec[0], -d.vec[1])
    # rotating by pi twice shifts the sheet but keeps the vector
    aa = antipodal_direction(lshape, a)
    assert aa.vec == d.vec
    assert aa.slot != d.slot
    # the cone angle is 6*pi: six half-turns come back around
    cur = d
    for _ in range(6):
        cur = antipodal_direction(lshape, cur)
    assert cur == d


def test_synthetic_graphs_carry_no_geometry(lshape, C3):
    grid = CellGrid(lshape, 2)
    with pytest.raises(tsurf.InvalidParams, match="no geometry"):
        circle_measure(C3, 0, 2, grid)
    with pytest.raises(tsurf.InvalidParams, match="no geometry"):
        region_volume(C3, 0, 2, grid, [0, 1])
    with pytest.raises(tsurf.InvalidParams, match="no geometry"):
        saddle_cell_lengths(C3, grid)


def test_grid_areas_exact(lshape):
    # construction itself asserts the exact rational total; the stored
    # array is the float image of those areas
    for n in (1, 2, 3):
        grid = CellGrid(lshape, n)
        assert grid.num_cells == 3 * n * n
        assert np.all(grid.areas == float(Fraction(1, n * n)))


def _cell_surfaces(sheared_lshape):
    return [tsurf.builtin_surface("lshape"),
            tsurf.builtin_surface("lshape", ["7/3", "5/2"]),
            tsurf.builtin_surface("slit_tori"),
            tsurf.builtin_surface("slit_tori", ["2/7"]),
            sheared_lshape]


def test_integer_cell_areas_equal_the_fraction_clip(sheared_lshape):
    for S in _cell_surfaces(sheared_lshape):
        for n in range(1, 6):
            grid = CellGrid(S, n)
            want = fraction_cell_areas(S, n)
            assert [polygon_area(piece) / grid.scale ** 2
                    for piece in grid.pieces] == want, n
            assert grid.areas.tolist() == [float(a) for a in want]


def test_cell_lookup(lshape):
    grid = CellGrid(lshape, 2)
    s = grid.scale
    cid = grid.cell_of(0, s, s, 8)  # (1/8, 1/8) of the polygon
    assert grid.cell_meta(cid) == (0, 0, 0)
    cid = grid.cell_of(0, 7 * s, 7 * s, 8)
    assert grid.cell_meta(cid) == (0, 1, 1)


@pytest.fixture(scope="module")
def cell_grids(sheared_lshape):
    return [[CellGrid(S, n) for n in range(1, 6)]
            for S in _cell_surfaces(sheared_lshape)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cell_of_matches_the_fraction_lookup(cell_grids, data):
    # rational points a / b of the way across the box, b <= 3n: on a cell
    # line whenever n * a / b is an integer (always when b = n), outside the
    # box (and clamped) when a < 0 or a > b; located as integers over den
    # and as floats
    grid = data.draw(st.sampled_from(cell_grids).flatmap(st.sampled_from))
    n, S = grid.n, grid.surface
    p = data.draw(st.integers(0, len(S.polygons) - 1))
    box = bounding_box(S.polygons[p])
    point = []
    for lo, hi in (box[0::2], box[1::2]):
        b = data.draw(st.integers(1, 3 * n))
        a = data.draw(st.integers(-b, 2 * b))
        point.append(lo + (hi - lo) * Fraction(a, b))
    want = cell_of_point(grid, p, point)
    X, Y = (c * grid.scale for c in point)
    den = math.lcm(X.denominator, Y.denominator) * data.draw(st.integers(1, 3))
    assert grid.cell_of(p, int(X * den), int(Y * den), den) == want
    assert grid.cell_of(p, float(X), float(Y)) == want


def test_measure_is_probability(G9, lshape):
    grid = CellGrid(lshape, 2)
    hist = circle_measure(G9, 0, 2.0, grid)
    assert np.all(hist.masses >= 0)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert hist.meta["dropped"] == 0
    assert hist.meta["unnormalized_total"] == pytest.approx(
        tsurf.circle_length(G9, 0, 2.0), rel=1e-9)


def test_measure_deterministic_per_seed(G9, lshape):
    grid = CellGrid(lshape, 2)
    a = monte_carlo_circle_measure(G9, 0, 1.8, grid, seed=3)
    b = monte_carlo_circle_measure(G9, 0, 1.8, grid, seed=3)
    c = monte_carlo_circle_measure(G9, 0, 1.8, grid, seed=4)
    assert np.array_equal(a.masses, b.masses)
    assert not np.array_equal(a.masses, c.masses)


def test_l1_distance(G9, lshape):
    grid = CellGrid(lshape, 2)
    a = monte_carlo_circle_measure(G9, 0, 1.8, grid, seed=3)
    c = monte_carlo_circle_measure(G9, 0, 1.8, grid, seed=4)
    assert a.l1_distance(a) == 0.0
    d = a.l1_distance(c)
    assert d == c.l1_distance(a)
    assert 0 < d < 2


def test_region_volume_whole_surface(G9, lshape):
    grid = CellGrid(lshape, 2)
    est = region_volume(G9, 0, 1.5, grid, range(grid.num_cells))
    exact = tsurf.ball_volume_closed(G9, 0, 1.5)
    assert est == pytest.approx(exact, rel=1e-12)


def test_region_volume_additive_under_fixed_seed(G9, lshape):
    grid = CellGrid(lshape, 2)
    A = list(range(4))
    B = list(range(4, grid.num_cells))
    va = region_volume(G9, 0, 1.5, grid, A)
    vb = region_volume(G9, 0, 1.5, grid, B)
    vall = region_volume(G9, 0, 1.5, grid, A + B)
    assert va + vb == pytest.approx(vall, rel=1e-12)


def test_region_volume_empty_region(G9, lshape):
    grid = CellGrid(lshape, 2)
    assert region_volume(G9, 0, 1.5, grid, []) == 0.0


def test_csv_and_svg_outputs(G9, lshape):
    grid = CellGrid(lshape, 2)
    hist = circle_measure(G9, 0, 1.6, grid)
    text = hist.to_csv()
    assert text.startswith("# R=1.6")
    body = [l for l in text.strip().split("\n") if not l.startswith("#")]
    assert body[0].split(",")[:4] == ["cell_id", "polygon", "i", "j"]
    assert len(body) == grid.num_cells + 1
    svg = hist.to_svg()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(list(root)) == grid.num_cells


def test_truncation_guard(G2, lshape):
    grid = CellGrid(lshape, 2)
    with pytest.raises(tsurf.TruncationError):
        circle_measure(G2, 0, 4.0, grid)


@pytest.fixture(scope="module")
def grid4(lshape):
    return CellGrid(lshape, 4)


def test_measure_matches_monte_carlo_oracle(G36, grid4):
    exact = circle_measure(G36, 0, 2.0, grid4)
    sampled = monte_carlo_circle_measure(G36, 0, 2.0, grid4,
                                         samples_per_unit_angle=128, seed=0)
    assert sampled.meta["dropped"] == 0
    assert exact.l1_distance(sampled) <= 0.01


def test_region_volume_matches_monte_carlo_oracle(G36, lshape):
    grid = CellGrid(lshape, 2)
    cells = [0, 3, 5, 10]
    exact = region_volume(G36, 0, 2.3, grid, cells)
    est, se = monte_carlo_region_volume(G36, 0, 2.3, grid, cells,
                                        samples=64, seed=1)
    assert 0 < se and abs(exact - est) <= 4 * se, (exact, est, se)


@pytest.mark.parametrize("name, params, budget, R", [
    ("lshape", None, 36, 2.0),
    ("lshape", None, 9, Fraction(3, 2)),
    ("slit_tori", None, Fraction(25, 4), Fraction(5, 2)),
    ("lshape", ("7/3", "5/2"), 9, 3.0),
])
def test_measure_mass_is_circle_length(name, params, budget, R):
    S = tsurf.builtin_surface(name, params)
    G = tsurf.build_concat_graph(S, budget)
    hist = circle_measure(G, 0, R, CellGrid(S, 3))
    assert hist.meta["unnormalized_total"] == pytest.approx(
        hist.meta["circle_length"], rel=1e-12)
    assert hist.meta["circle_length"] == tsurf.circle_length(G, 0, R)
    assert np.all(hist.masses >= 0)


ORACLE_CASES = {
    "slit_tori-5_2": (lambda: tsurf.builtin_surface("slit_tori"),
                      Fraction(25, 4), Fraction(5, 2), 4),
    "lshape-36-4": (lambda: tsurf.builtin_surface("lshape"), 36, 4, 4),
    "lshape_7_3_5_2-9-3": (
        lambda: tsurf.builtin_surface("lshape", ["7/3", "5/2"]), 9, 3, 3),
    "lshape_x2-144-4": (
        lambda: tsurf.scale_surface(tsurf.builtin_surface("lshape"), 2),
        144, 4, 4),
    "sheared_lshape-9-3": (sheared_lshape, 9, 3, 3),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def oracle_case(request):
    surface, budget, R, n = ORACLE_CASES[request.param]
    S = surface()
    G = tsurf.build_concat_graph(S, budget)
    return G, R, CellGrid(S, n), tsurf.path_length_census(G, 0, R)


def test_measure_matches_the_per_arc_development(oracle_case):
    G, R, grid, census = oracle_case
    got = circle_measure(G, 0, R, grid, census=census)
    want = per_arc_circle_measure(G, 0, R, grid, census=census)
    assert got.l1_distance(want) <= 1e-12
    assert got.meta["unnormalized_total"] == pytest.approx(
        want.meta["unnormalized_total"], rel=1e-12, abs=0)
    assert {k: v for k, v in got.meta.items() if k != "unnormalized_total"} == {
        k: v for k, v in want.meta.items() if k != "unnormalized_total"}


def test_region_volume_matches_the_per_arc_development(oracle_case):
    G, R, grid, census = oracle_case
    cells = range(1, grid.num_cells, 2)
    got = region_volume(G, 0, R, grid, cells, census=census)
    want = per_arc_region_volume(G, 0, R, grid, cells, census=census)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_each_sector_is_developed_once_per_call(G36, lshape, monkeypatch):
    # 15,985 arcs in 277 distinct (window, radius) pairs, at one cone of
    # twelve sectors
    calls = []

    def counting(S, polys, B, p, t, w):
        calls.append((p, t, w))
        return unfold_wedge(S, polys, B, p, t, w)

    unfold_wedge = circles.unfold_wedge
    monkeypatch.setattr(circles, "unfold_wedge", counting)
    grid = CellGrid(lshape, 2)
    sectors = sum(len(c.star) for c in lshape.cone_points)
    hist = circle_measure(G36, 0, 4, grid)
    assert hist.meta["arcs"] == 15985
    assert len(calls) == len(set(calls)) <= sectors
    calls.clear()
    region_volume(G36, 0, 4, grid, [0, 5, 7])
    assert len(calls) == len(set(calls)) <= sectors


def test_measure_is_scale_invariant(G36, lshape, grid4):
    big = tsurf.scale_surface(lshape, 2)
    G = tsurf.build_concat_graph(big, 144)
    a = circle_measure(G36, 0, 2.0, grid4)
    b = circle_measure(G, 0, 4.0, CellGrid(big, 4))
    assert np.allclose(a.masses, b.masses, rtol=0, atol=1e-12)


def test_volume_derivative_is_circle_mass(G36, lshape):
    # V_A'(R) is the length of the circle inside A, away from census
    # breakpoints; the central difference of the piecewise smooth volume
    # matches it to O(d^2)
    grid = CellGrid(lshape, 2)
    cells = [0, 1, 6, 9]
    census = tsurf.path_length_census(G36, 0, 3.0)
    for R in (1.2, 2.35, 2.9):
        d = 1e-4
        lo = region_volume(G36, 0, R - d, grid, cells, census=census)
        hi = region_volume(G36, 0, R + d, grid, cells, census=census)
        hist = circle_measure(G36, 0, R, grid, census=census)
        want = hist.meta["circle_length"] * hist.masses[cells].sum()
        assert abs((hi - lo) / (2 * d) - want) / want < 1e-6, R

import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

import tsurf
from tsurf import CellGrid, antipodal_direction, circle_measure, direction_window, region_volume

from oracles import monte_carlo_circle_measure, monte_carlo_region_volume


def test_full_cone_window(G9):
    w = direction_window(G9, x=0)
    assert w.cone_id == 0
    assert w.width == pytest.approx(6 * math.pi, abs=1e-12)


def test_path_window_is_terminal_excess(G9):
    # every terminal cone here has k=2, so each path window spans 4*pi
    for i in (0, 12, 24):
        w = direction_window(G9, 0, terminal=i)
        assert w.width == pytest.approx(4 * math.pi, abs=1e-12)
    j = int(G9.out[0][0])
    assert direction_window(G9, 0, terminal=j).width == pytest.approx(4 * math.pi, abs=1e-12)


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


def test_grid_areas_exact(lshape):
    # construction itself asserts the exact rational total; the stored
    # array is the float image of those areas
    for n in (1, 2, 3):
        grid = CellGrid(lshape, n)
        assert grid.num_cells == 3 * n * n
        assert np.all(grid.areas == float(Fraction(1, n * n)))


def test_cell_lookup(lshape):
    grid = CellGrid(lshape, 2)
    cid = grid.cell_of_point(0, (Fraction(1, 8), Fraction(1, 8)))
    assert grid.cell_meta(cid) == (0, 0, 0)
    cid = grid.cell_of_point(0, (Fraction(7, 8), Fraction(7, 8)))
    assert grid.cell_meta(cid) == (0, 1, 1)


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

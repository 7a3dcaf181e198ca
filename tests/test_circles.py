import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

import tsurf
from tsurf import CellGrid, antipodal_direction, circle_measure, direction_window, region_volume


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
    hist = circle_measure(G9, 0, 2.0, grid, samples_per_unit_angle=2, seed=1)
    assert np.all(hist.masses >= 0)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert hist.meta["dropped"] == 0
    assert hist.meta["unnormalized_total"] == pytest.approx(
        tsurf.circle_length(G9, 0, 2.0), rel=1e-9)


def test_measure_deterministic_per_seed(G9, lshape):
    grid = CellGrid(lshape, 2)
    a = circle_measure(G9, 0, 1.8, grid, seed=3)
    b = circle_measure(G9, 0, 1.8, grid, seed=3)
    c = circle_measure(G9, 0, 1.8, grid, seed=4)
    assert np.array_equal(a.masses, b.masses)
    assert not np.array_equal(a.masses, c.masses)


def test_l1_distance(G9, lshape):
    grid = CellGrid(lshape, 2)
    a = circle_measure(G9, 0, 1.8, grid, seed=3)
    c = circle_measure(G9, 0, 1.8, grid, seed=4)
    assert a.l1_distance(a) == 0.0
    d = a.l1_distance(c)
    assert d == c.l1_distance(a)
    assert 0 < d < 2


def test_region_volume_whole_surface(G9, lshape):
    grid = CellGrid(lshape, 2)
    est, se = region_volume(G9, 0, 1.5, grid, range(grid.num_cells), seed=2)
    exact = tsurf.ball_volume_closed(G9, 0, 1.5)
    assert est == pytest.approx(exact, rel=1e-9)


def test_region_volume_additive_under_fixed_seed(G9, lshape):
    grid = CellGrid(lshape, 2)
    A = list(range(4))
    B = list(range(4, grid.num_cells))
    va, _ = region_volume(G9, 0, 1.5, grid, A, samples=16, seed=9)
    vb, _ = region_volume(G9, 0, 1.5, grid, B, samples=16, seed=9)
    vall, _ = region_volume(G9, 0, 1.5, grid, A + B, samples=16, seed=9)
    assert va + vb == pytest.approx(vall, rel=1e-12)


def test_region_volume_empty_region(G9, lshape):
    grid = CellGrid(lshape, 2)
    est, se = region_volume(G9, 0, 1.5, grid, [], seed=2)
    assert est == 0.0
    assert se == 0.0


def test_csv_and_svg_outputs(G9, lshape):
    grid = CellGrid(lshape, 2)
    hist = circle_measure(G9, 0, 1.6, grid, seed=0)
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

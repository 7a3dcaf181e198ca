"""End-to-end checks at desk scale, with pinned tolerances and runtimes.

Each test states its own numeric target next to the assertion. Heavier
fixtures (the budget-36 graph, the T = 5.5 geodesic census) are shared at
module scope; everything here runs on one core.
"""

import json
import math
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

import tsurf
from tsurf import CellGrid, circle_measure, enumerate_closed, region_volume, solve_entropy
from tsurf.cli import main as cli_main

from oracles import brute_closed_words

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def h36(G36):
    return solve_entropy(G36)


@pytest.fixture(scope="module")
def census55(G36):
    return enumerate_closed(G36, 5.5)


# 1 ---------------------------------------------------------------------


def test_builtin_validation_is_instant():
    t0 = time.monotonic()
    L = tsurf.builtin_surface("lshape")
    T = tsurf.builtin_surface("slit_tori")
    assert L.genus == 2
    assert [c.k for c in L.cone_points] == [2]
    assert T.genus == 2
    assert sorted(c.k for c in T.cone_points) == [1, 1]
    for S in (L, T):
        assert sum(c.k for c in S.cone_points) == 2 * S.genus - 2
    assert time.monotonic() - t0 < 1.0


# 2 ---------------------------------------------------------------------


def test_saddle_census_equals_lattice_count(lshape):
    t0 = time.monotonic()
    sad = tsurf.enumerate_saddle_connections(lshape, 25)
    sq = sorted(s.length_sq for s in sad)

    def primitive_vectors(bound_sq):
        c = 0
        m = int(math.isqrt(bound_sq))
        for a in range(-m, m + 1):
            for b in range(-m, m + 1):
                if (a, b) != (0, 0) and a * a + b * b <= bound_sq \
                        and math.gcd(abs(a), abs(b)) == 1:
                    c += 1
        return c

    for L2 in (1, 2, 4, 5, 8, 9, 10, 13, 16, 25):
        have = sum(1 for x in sq if x <= L2)
        assert have == 3 * primitive_vectors(L2), f"L^2={L2}"
    assert time.monotonic() - t0 < 30.0


# 3 ---------------------------------------------------------------------


def test_concatenation_two_of_three(G2):
    by_hol = defaultdict(list)
    for s in G2.saddles:
        by_hol[s.holonomy].append(s.id)
    assert len(by_hol) == 8 and all(len(v) == 3 for v in by_hol.values())
    for s in G2.saddles:
        for hol, members in by_hol.items():
            allowed = sum(G2.allowed(s.id, j) for j in members)
            if hol == s.holonomy:
                assert allowed == 3, (s.id, hol)
            else:
                assert allowed == 2, (s.id, hol)


# 4 ---------------------------------------------------------------------


def test_circle_length_formula(G9):
    census = tsurf.path_length_census(G9, 0, 3.0)
    pi = math.pi
    got = tsurf.circle_length(G9, 0, 0.5, census)
    assert abs(got - 3 * pi) / (3 * pi) < 1e-12

    # At R = 1.5 the census holds 24 paths: twelve of length 1 and twelve
    # of length sqrt(2) (sqrt(2) <= 1.5), all with terminal excess k = 2,
    # so S0 = 48, S1 = 24 + 24*sqrt(2) and the formula gives
    # (105 - 48*sqrt(2)) * pi.  A cross-check at R = 1.4 (before the
    # diagonal connections enter, S0 = 24, S1 = 24) gives 138*pi/5.
    got = tsurf.circle_length(G9, 0, 1.5, census)
    want = (105 - 48 * SQRT2) * pi
    assert abs(got - want) / want < 1e-12
    got = tsurf.circle_length(G9, 0, 1.4, census)
    assert abs(got - 27.6 * pi) / (27.6 * pi) < 1e-12

    rs = np.linspace(0.01, 3.0, 1000)
    vals = tsurf.circle_length_grid(G9, 0, rs, census)
    assert np.all(np.diff(vals) > 0)
    # affine between census breakpoints, with slope 2*pi*(k+1+S0)
    for r0, r1, v0, v1 in zip(rs, rs[1:], vals, vals[1:]):
        inside = np.any((census.lengths > r0) & (census.lengths <= r1))
        if not inside:
            slope = (v1 - v0) / (r1 - r0)
            want = tsurf.circle_slope(G9, 0, r1, census)
            assert abs(slope - want) / want < 1e-6


# 5 ---------------------------------------------------------------------


def test_entropy_self_consistency(lshape, G36, h36):
    t0 = time.monotonic()

    est3 = solve_entropy(tsurf.complete_graph(3), cutoffs=[1.0])
    assert abs(est3.h - math.log(3)) < 1e-10

    G16 = tsurf.build_concat_graph(lshape, 16)
    H64 = tsurf.build_concat_graph(tsurf.scale_surface(lshape, 2), 64)
    h1 = solve_entropy(G16, cutoffs=[4.0]).h
    h2 = solve_entropy(H64, cutoffs=[8.0]).h
    assert abs(h2 - h1 / 2) < 1e-8

    hs = [p["h"] for p in h36.per_cutoff]
    assert abs(hs[-1] - hs[-2]) < 1e-2

    # regress log N and log l(C) over the last decade of growth: the
    # window of width ln(10)/h ending at the largest reachable radius.
    # Slopes are insensitive to the constant prefactor; ratios are not.
    census = tsurf.path_length_census(G36, 0, 6.0)
    rs = np.linspace(6.0 - math.log(10.0) / h36.h, 6.0, 200)
    ns = np.array([census.count(r) for r in rs], dtype=float)
    slope_n = np.polyfit(rs, np.log(ns), 1)[0]
    assert abs(slope_n - h36.h) / h36.h < 0.05, slope_n
    vals = tsurf.circle_length_grid(G36, 0, rs, census)
    slope_l = np.polyfit(rs, np.log(vals), 1)[0]
    assert abs(slope_l - h36.h) / h36.h < 0.05, slope_l

    assert time.monotonic() - t0 < 300.0


# 6 ---------------------------------------------------------------------


def test_circle_growth_prefactor_stabilizes(lshape):
    G49 = tsurf.build_concat_graph(lshape, 49)
    h = solve_entropy(G49).h
    census = tsurf.path_length_census(G49, 0, 7.0)
    # discrete jumps and the subleading terms both fade by the top end of
    # the reachable range; sample the final decade of growth only
    rs = np.linspace(7.0 - math.log(10.0) / h, 7.0, 33)
    vals = tsurf.circle_length_grid(G49, 0, rs, census)
    pref = vals * np.exp(-h * rs)
    variation = (pref.max() - pref.min()) / pref.mean()
    assert variation < 0.10, variation


# 7 ---------------------------------------------------------------------


def test_ball_volume_monte_carlo_and_derivative(G36, lshape):
    grid = CellGrid(lshape, 2)
    for i, R in enumerate((1.1, 1.7, 2.3, 2.9, 3.5)):
        est, se = region_volume(G36, 0, R, grid, range(grid.num_cells),
                                samples=16, seed=100 + i)
        exact = tsurf.ball_volume_closed(G36, 0, R)
        assert abs(est - exact) <= max(3 * se, 1e-9 * exact), R

    # V'(R) equals the circle length away from census breakpoints; the
    # central difference of a locally quadratic function is exact
    census = tsurf.path_length_census(G36, 0, 3.0)
    for R in (1.2, 2.35, 2.9):
        d = 1e-4
        lo = tsurf.ball_volume_closed(G36, 0, R - d, census)
        hi = tsurf.ball_volume_closed(G36, 0, R + d, census)
        want = tsurf.circle_length(G36, 0, R, census)
        assert abs((hi - lo) / (2 * d) - want) / want < 1e-8, R


# 8 ---------------------------------------------------------------------


def test_circle_measures_equidistribute(G36, lshape):
    t0 = time.monotonic()
    grid = CellGrid(lshape, 4)
    # spacing of 1.0 keeps the successive distances well above the Monte
    # Carlo noise floor (about 0.03 in L1 at R = 4 with one sample per
    # unit angle), so the decreasing trend is a property of the measures
    radii = (2.0, 3.0, 4.0)
    hists = [circle_measure(G36, 0, R, grid, samples_per_unit_angle=1, seed=0)
             for R in radii]
    d12 = hists[0].l1_distance(hists[1])
    d23 = hists[1].l1_distance(hists[2])
    d13 = hists[0].l1_distance(hists[2])
    assert d23 < d12, (d12, d23)
    assert d23 < d13, (d13, d23)
    assert np.all(hists[2].masses > 0)

    # non-constant density, far beyond the sampling noise: compare the
    # densest and thinnest cells across independent replicates
    dens = []
    for seed in (1, 2, 3):
        h = circle_measure(G36, 0, 4.0, grid, samples_per_unit_angle=1,
                           seed=seed)
        areas = np.array([float(a) for a in grid.areas])
        dens.append(h.masses / areas)
    dens = np.array(dens)
    mean = dens.mean(axis=0)
    se = dens.std(axis=0, ddof=1) / math.sqrt(len(dens))
    i, j = int(mean.argmax()), int(mean.argmin())
    gap = mean[i] - mean[j]
    noise = math.hypot(se[i], se[j])
    assert gap > 5 * max(noise, 1e-12), (gap, noise)

    assert time.monotonic() - t0 < 600.0


# 9 ---------------------------------------------------------------------


def test_closed_geodesic_counts(C3, G36, census55, h36):
    c3 = enumerate_closed(C3, 4.0)
    assert c3.pi(1.0) == 3
    assert c3.pi(2.0) == 6
    assert {g.word for g in c3.geodesics} == brute_closed_words(C3, 4.0)

    # growth rate: regression of log pi over the last e-fold of counts
    T = census55.T
    h = h36.h
    lo = T - math.log(10.0) / h
    ts = np.linspace(lo, T, 12)
    logpi = np.log([census55.pi(t) for t in ts])
    slope = np.polyfit(ts, logpi, 1)[0]
    # the raw quotient log pi(T) / T converges like h - O(log T / T) and
    # still sits ~17% low at T = 5.5; the regression slope is the honest
    # finite-T estimate of the exponent
    literal = math.log(census55.pi()) / T
    print(f"closed-geodesic growth: slope {slope:.4f}, "
          f"log pi/T {literal:.4f}, target h {h:.4f}")
    assert abs(slope - h) / h < 0.10, (slope, literal, h)

    assert census55.pi_saddle().sum() == pytest.approx(census55.pi(), rel=1e-12)


# 10 --------------------------------------------------------------------


def test_saddle_weights(C3, G36, census55, h36, lshape):
    ids3, w3 = tsurf.v_weights(C3, cutoff=1.0)
    assert np.allclose(w3, 1 / 3, atol=1e-9)

    ids, w = tsurf.v_weights(G36, h=h36.h)
    shares = census55.pi_saddle() / census55.pi()
    wmap = dict(zip(ids.tolist(), w))
    for s in (0, 1, 2):
        rel = abs(shares[s] - wmap[s]) / wmap[s]
        assert rel < 0.15, (s, rel)

    # weight mass accumulates along the length ladder and never exceeds 1
    lens = G36.lengths[ids]
    partial = [w[lens <= c].sum() for c in (1.0, 1.5, 2.1, 3.0, 6.0)]
    assert all(b >= a for a, b in zip(partial, partial[1:]))
    assert all(p <= 1 + 1e-12 for p in partial)
    assert partial[0] < partial[-1]
    assert partial[-1] == pytest.approx(1.0, abs=1e-12)

    # at every truncation level the weights are a probability vector
    for cut in (3.0, 4.0, 6.0):
        _, wc = tsurf.v_weights(G36, cutoff=cut)
        assert wc.sum() == pytest.approx(1.0, abs=1e-6)

    grid = CellGrid(lshape, 2)
    hist = tsurf.occupancy(G36, census55, grid)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert shares.sum() == pytest.approx(1.0, rel=1e-12)
    from tsurf.geodesics import saddle_cell_lengths
    cl = saddle_cell_lengths(G36, grid)
    used = set()
    for g in census55.geodesics:
        for s in set(g.word):
            used |= set(cl[s])
    for cid in range(grid.num_cells):
        if cid not in used:
            assert hist.masses[cid] == 0.0


# 11 --------------------------------------------------------------------


PIPELINES = [
    ["validate", "--builtin", "slit_tori"],
    ["info", "--builtin", "lshape"],
    ["saddles", "--builtin", "lshape", "--max-length-sq", "2", "--svg"],
    ["entropy", "--builtin", "lshape", "--max-length-sq", "9",
     "--cutoffs", "2,3"],
    ["circle", "--builtin", "lshape", "--rmax", "2", "--step", "1/4"],
    ["measure", "--builtin", "lshape", "--radius", "3/2", "--grid", "2",
     "--samples", "1", "--seed", "5"],
    ["volume", "--builtin", "lshape", "--radius", "3/2", "--grid", "2",
     "--samples", "8", "--seed", "5"],
    ["geodesics", "--builtin", "lshape", "--tmax", "2"],
    ["weights", "--builtin", "lshape", "--tmax", "2", "--grid", "2",
     "--svg", "--seed", "5"],
]


def test_every_pipeline_is_deterministic(tmp_path, capsys):
    for n, argv in enumerate(PIPELINES):
        runs = []
        for rep in (0, 1):
            d = tmp_path / f"p{n}r{rep}"
            code = cli_main(argv + ["--out", str(d)])
            capsys.readouterr()
            assert code == 0, argv
            runs.append({f.name: f.read_bytes() for f in sorted(d.iterdir())})
        assert runs[0] == runs[1], argv
        assert runs[0], argv

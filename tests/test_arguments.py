"""The arguments of the public entry points: every radius, bound, cutoff,
cone id, cell list and grid goes through the one parser of its kind in
`tsurf.rational`, so a bad value returns or raises a `TsurfError`, never
another exception."""

import inspect
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tsurf
from tsurf.geodesics import saddle_cell_lengths
from tsurf.rational import GRID_MAX
from tsurf.unfold import TracePoint

# The parameter names of the argument kinds.
KIND_NAMES = {"R", "Rmax", "T", "radii", "x", "cells", "grid", "n", "cutoff",
              "cutoffs", "h", "sigma", "max_length_sq", "len_sq_budget"}

R = Fraction(3, 2)

# Per swept entry point: the arguments of a call that works, and the kind
# of each parameter that the sweep replaces.
SWEEP = {
    "CellGrid": (lambda w: dict(surface=w.S, n=2), {"n": "size"}),
    "build_concat_graph": (lambda w: dict(S=w.S, max_length_sq=2),
                           {"max_length_sq": "length"}),
    "enumerate_saddle_connections": (lambda w: dict(S=w.S, max_length_sq=2),
                                     {"max_length_sq": "length"}),
    "trace_ray": (lambda w: dict(S=w.S, start=TracePoint(0, (R / 3, R / 3)),
                                 direction=(1, 2), len_sq_budget=5),
                  {"len_sq_budget": "length"}),
    "path_length_census": (lambda w: dict(G=w.G, x=0, Rmax=R),
                           {"x": "id", "Rmax": "length"}),
    "circle_length": (lambda w: dict(G=w.G, x=0, R=R), {"x": "id", "R": "length"}),
    "circle_slope": (lambda w: dict(G=w.G, x=0, R=R), {"x": "id", "R": "length"}),
    "ball_volume_closed": (lambda w: dict(G=w.G, x=0, R=R),
                           {"x": "id", "R": "length"}),
    "circle_length_grid": (lambda w: dict(G=w.G, x=0, radii=[1, R]),
                           {"x": "id", "radii": "lengths"}),
    "ball_volume_grid": (lambda w: dict(G=w.G, x=0, radii=[1, R]),
                         {"x": "id", "radii": "lengths"}),
    "circle_measure": (lambda w: dict(G=w.G, x=0, R=R, grid=w.grid),
                       {"x": "id", "R": "length", "grid": "grid"}),
    "region_volume": (lambda w: dict(G=w.G, x=0, R=R, grid=w.grid, cells=[0, 3]),
                      {"x": "id", "R": "length", "grid": "grid", "cells": "ids"}),
    "enumerate_closed": (lambda w: dict(G=w.G, T=2), {"T": "length"}),
    "occupancy": (lambda w: dict(G=w.G, census=w.closed, grid=w.grid),
                  {"grid": "grid"}),
    "pi_stats": (lambda w: dict(census=w.closed, h=2.5, grid=[2, 3]),
                 {"h": "real", "grid": "lengths"}),
    "solve_entropy": (lambda w: dict(G=w.G, cutoffs=[2]), {"cutoffs": "reals"}),
    "truncated_scc": (lambda w: dict(G=w.G, cutoff=2), {"cutoff": "real"}),
    "weight_matrix": (lambda w: dict(G=w.G, sigma=2.5, cutoff=2),
                      {"sigma": "real", "cutoff": "real"}),
    "v_weights": (lambda w: dict(G=w.G, cutoff=2), {"cutoff": "real", "h": "real"}),
}

# Bad values, and a few good ones, of every scalar kind: negative, zero,
# non-finite, bool, None, rational and garbage strings, Fractions, numpy
# scalars, floats, values past the float range or too long to print, and
# things of no kind.
SCALARS = [-1, Fraction(-1, 2), "-3/2", 0, 0.0, math.nan, math.inf, -math.inf,
           True, False, None, "3/2", "abc", "", " ", "1/0", "1e400",
           "1e5000", Fraction(3, 2), np.int64(1), np.float64(1.5),
           np.float64(math.nan), np.bool_(True), 1.5, 10 ** 400, 10 ** 5000,
           Fraction(10 ** 5000 + 1, 10 ** 5000), [1], object()]


# Examples per swept parameter: at least the longest draw list.
_EXAMPLES = 80


def _draws(w) -> dict:
    ids = SCALARS + [1, 10 ** 9, np.int64(-2)]
    lists = [[], np.array([1.5, 0.5]), np.array(1.5), (1, "3/2"), "1,2"]
    return {
        "length": SCALARS,
        "real": SCALARS,
        "id": ids,
        "size": SCALARS + [10 ** 9, GRID_MAX + 1],
        "grid": [w.other_grid, w.scaled_grid, 4, None, "grid", w.S, w.G],
        "lengths": [[v] for v in SCALARS] + SCALARS + lists,
        "reals": [[v] for v in SCALARS] + SCALARS + lists,
        "ids": [[v] for v in ids] + SCALARS + lists,
    }


@pytest.fixture(scope="module")
def world(lshape, slit, G9):
    w = SimpleNamespace(S=lshape, G=G9, grid=tsurf.CellGrid(lshape, 2),
                        closed=tsurf.enumerate_closed(G9, 3),
                        other_grid=tsurf.CellGrid(slit, 2),
                        scaled_grid=tsurf.CellGrid(tsurf.scale_surface(lshape, 2), 2))
    w.draws = _draws(w)
    return w


@pytest.mark.parametrize("name, param", [(name, param)
                                         for name, (_, kinds) in SWEEP.items()
                                         for param in kinds])
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_every_entry_point_returns_or_raises_a_tsurf_error(world, name, param, data):
    args, kinds = SWEEP[name]
    call = args(world)
    call[param] = data.draw(st.sampled_from(world.draws[kinds[param]]))
    try:
        getattr(tsurf, name)(**call)
    except tsurf.TsurfError:
        pass


def test_every_entry_point_with_an_argument_kind_is_swept():
    found = {}
    for name in tsurf.__all__:
        obj = getattr(tsurf, name)
        if inspect.isfunction(obj) or obj is tsurf.CellGrid:
            params = set(inspect.signature(obj).parameters) & KIND_NAMES
            if params:
                found[name] = params
    assert found == {name: set(kinds) for name, (_, kinds) in SWEEP.items()}


def test_the_sweep_draws_every_value(world):
    # hypothesis draws k distinct values of a sampled_from in k examples,
    # so the sweep's budget reaches every value of its longest draw list
    k = max(len(draws) for draws in world.draws.values())
    seen = []

    @settings(max_examples=_EXAMPLES, deadline=None, database=None)
    @given(st.sampled_from(range(k)))
    def draw(i):
        seen.append(i)

    draw()
    assert sorted(set(seen)) == list(range(k))


def test_string_radii_measure_as_their_fractions(G9, lshape):
    grid = tsurf.CellGrid(lshape, 2)
    a = tsurf.circle_measure(G9, 0, "3/2", grid)
    b = tsurf.circle_measure(G9, 0, Fraction(3, 2), grid)
    assert a.masses.tobytes() == b.masses.tobytes() and a.meta == b.meta
    assert (tsurf.region_volume(G9, 0, "3/2", grid, [0, 3])
            == tsurf.region_volume(G9, 0, Fraction(3, 2), grid, [0, 3]))


def test_float_of_the_census_bound_stands_for_the_bound(G9, lshape):
    # 2.2 as a float lies above 11/5; a census built up to 11/5 answers it
    grid = tsurf.CellGrid(lshape, 2)
    census = tsurf.path_length_census(G9, 0, Fraction(11, 5))
    a = tsurf.circle_measure(G9, 0, 2.2, grid, census)
    b = tsurf.circle_measure(G9, 0, Fraction(11, 5), grid, census)
    assert a.masses.tobytes() == b.masses.tobytes()
    assert tsurf.circle_length(G9, 0, 2.2, census) == a.meta["circle_length"]


def test_negative_census_radius_is_degenerate(G9):
    with pytest.raises(tsurf.DegenerateRadius):
        tsurf.path_length_census(G9, 0, -1)
    assert tsurf.path_length_census(G9, 0, 0).count(0) == 0


def test_grid_size_past_the_cap_raises_before_building(lshape):
    start = time.perf_counter()
    with pytest.raises(tsurf.InvalidParams):
        tsurf.CellGrid(lshape, 10 ** 9)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(tsurf.ParseError):
        tsurf.CellGrid(lshape, 2.5)


def test_grid_on_another_surface_raises(G9, lshape, slit):
    other = tsurf.CellGrid(slit, 2)
    census = tsurf.enumerate_closed(G9, 3)
    for call in (lambda: tsurf.circle_measure(G9, 0, 1, other),
                 lambda: tsurf.region_volume(G9, 0, 1, other, [0]),
                 lambda: tsurf.occupancy(G9, census, other),
                 lambda: saddle_cell_lengths(G9, other)):
        with pytest.raises(tsurf.InvalidParams, match="another surface"):
            call()
    # the same polygons and gluings built again are the same surface
    same = tsurf.CellGrid(tsurf.builtin_surface("lshape"), 2)
    mine = tsurf.CellGrid(lshape, 2)
    assert (tsurf.circle_measure(G9, 0, 1, same).masses.tobytes()
            == tsurf.circle_measure(G9, 0, 1, mine).masses.tobytes())


def test_numpy_scalars_are_lengths_and_ids(G9):
    assert (tsurf.circle_length(G9, np.int64(0), np.int64(2))
            == tsurf.circle_length(G9, 0, 2))
    assert (tsurf.circle_length(G9, 0, np.float64(1.25))
            == tsurf.circle_length(G9, 0, Fraction(5, 4)))

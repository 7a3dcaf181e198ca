"""Geometric circles: direction windows, cell grids, measure histograms.

A circle of radius R around a cone point is a union of arcs, one per
admissible path p (radius R - l(p), angular width 2*pi*k at the terminal
cone) plus the full arc around the center. The histogram estimator samples
each arc with stratified angles, traces the straight continuation with the
exact tracer, and deposits the arc-length weight in the landing cell. Cell
areas are exact; only the arc-versus-cell split is Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateRadius, InvalidParams
from .geometry import convex_clip, cross, dot, polygon_area
from .paths import ConcatGraph, PathCensus, path_length_census, circle_length
from .surface import TranslationSurface
from .unfold import ConeDirection, TracePoint, cone_direction, opposite_sectors, trace_ray

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class DirectionWindow:
    """CCW angular interval of allowed continuation directions at a cone,
    given as a start direction plus an exact width in radians."""

    cone_id: int
    start: ConeDirection
    width: float


def antipodal_direction(S: TranslationSurface, d: ConeDirection) -> ConeDirection:
    """The direction exactly pi counterclockwise from d. A boundary landing
    belongs to the next slot (wedges are half-open on their far ray)."""
    slot = opposite_sectors(S, d)[0]
    return cone_direction(S, d.cone_id, slot, (-d.vec[0], -d.vec[1]))


def direction_window(G: ConcatGraph, x: int,
                     terminal: int | None = None) -> DirectionWindow:
    """Continuations after a path ending with saddle `terminal` leave 2*pi*k
    of angle at its end cone, starting a half-turn past the incoming
    direction. The empty path (terminal None) sees the whole cone x, width
    2*pi*(k+1)."""
    S = G.surface
    if S is None:
        raise InvalidParams("synthetic graphs carry no geometry")
    if terminal is None:
        k = S.cone_points[x].k
        start = cone_direction(S, x, 0, S.star_rays[x][0][0])
        return DirectionWindow(x, start, TWO_PI * (k + 1))
    back = G.saddles[terminal].back_dir
    k = S.cone_points[back.cone_id].k
    return DirectionWindow(back.cone_id, antipodal_direction(S, back),
                           TWO_PI * k)


# ----------------------------------------------------------------------------
# Cell grids with exact areas


@dataclass
class CellGrid:
    """Per-polygon n x n congruent axis-aligned cells over each polygon's
    bounding box, with the exact area of cell-intersect-polygon. Degenerate
    cells (zero area) keep their id so indexing stays rectangular."""

    surface: TranslationSurface
    n: int
    offsets: list[int] = field(default_factory=list)
    areas: np.ndarray | None = None
    boxes: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("grid resolution must be >= 1")
        areas = []
        for poly in self.surface.polygons:
            xs = [p[0] for p in poly]
            ys = [p[1] for p in poly]
            x0, x1 = min(xs), max(xs)
            y0, y1 = min(ys), max(ys)
            self.boxes.append((x0, y0, x1, y1))
            self.offsets.append(len(areas))
            cw = Fraction(x1 - x0, self.n)
            ch = Fraction(y1 - y0, self.n)
            for j in range(self.n):
                for i in range(self.n):
                    piece = convex_clip(poly, x0 + i * cw, x0 + (i + 1) * cw,
                                        y0 + j * ch, y0 + (j + 1) * ch)
                    areas.append(polygon_area(piece) if len(piece) >= 3 else Fraction(0))
        total = sum(areas)
        assert total == self.surface.area, "grid cells must partition the area"
        self.areas = np.array([float(a) for a in areas])

    @property
    def num_cells(self) -> int:
        return len(self.areas)

    def cell_of(self, pt: TracePoint) -> int:
        return self.cell_of_point(pt.polygon, pt.position)

    def cell_of_point(self, polygon: int, position) -> int:
        x0, y0, x1, y1 = self.boxes[polygon]
        px, py = position
        i = int((Fraction(px) - x0) * self.n // (x1 - x0))
        j = int((Fraction(py) - y0) * self.n // (y1 - y0))
        i = min(max(i, 0), self.n - 1)
        j = min(max(j, 0), self.n - 1)
        return self.offsets[polygon] + j * self.n + i

    def cell_meta(self, cid: int) -> tuple[int, int, int]:
        poly = max(p for p in range(len(self.offsets)) if self.offsets[p] <= cid)
        rem = cid - self.offsets[poly]
        return poly, rem % self.n, rem // self.n


# ----------------------------------------------------------------------------
# Sampling helpers


def _slot_angle_offset(S, d: ConeDirection) -> float:
    """Float angle from the slot's first ray to d.vec, in [0, sector)."""
    r1 = S.star_rays[d.cone_id][d.slot][0]
    return math.atan2(cross(r1, d.vec), dot(r1, d.vec)) % TWO_PI


def _direction_at(S, window: DirectionWindow, theta: float):
    """Resolve window-start + theta to a (corner, rational direction) pair
    ready for the tracer. Rationalization of the unit vector perturbs the
    angle by ~1e-12, well under a stratum."""
    cone = S.cone_points[window.cone_id]
    nslots = len(cone.star)
    angles = S.star_angles[window.cone_id]
    slot = window.start.slot
    rem = _slot_angle_offset(S, window.start) + theta
    guard = 0
    while rem >= angles[slot]:
        rem -= angles[slot]
        slot = (slot + 1) % nslots
        guard += 1
        if guard > 16 * nslots:
            raise AssertionError("angle walk overflow")
    r1 = S.star_rays[window.cone_id][slot][0]
    base = math.atan2(r1[1], r1[0])
    ang = base + rem
    dx = Fraction(math.cos(ang)).limit_denominator(10 ** 12)
    dy = Fraction(math.sin(ang)).limit_denominator(10 ** 12)
    if dx == 0 and dy == 0:
        dx = Fraction(1)
    corner = cone.star[slot]
    start = TracePoint(corner[0], S.polygons[corner[0]][corner[1]])
    return start, (dx, dy)


@dataclass
class MeasureHistogram:
    grid: CellGrid
    masses: np.ndarray
    total: float
    meta: dict

    def normalized(self) -> np.ndarray:
        return self.masses / self.total

    def l1_distance(self, other: "MeasureHistogram") -> float:
        return float(np.abs(self.normalized() - other.normalized()).sum())

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in sorted(self.meta.items())]
        lines.append("cell_id,polygon,i,j,area,mass,density")
        dens = np.divide(self.masses, self.grid.areas,
                         out=np.zeros_like(self.masses),
                         where=self.grid.areas > 0)
        for cid in range(self.grid.num_cells):
            poly, i, j = self.grid.cell_meta(cid)
            lines.append(f"{cid},{poly},{i},{j},{self.grid.areas[cid]:.17g},"
                         f"{self.masses[cid]:.17g},{dens[cid]:.17g}")
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        """Density heat map, one block of cells per polygon, laid out left to
        right. Self-contained: plain rects, no external assets."""
        grid = self.grid
        dens = np.divide(self.masses, grid.areas,
                         out=np.zeros_like(self.masses),
                         where=grid.areas > 0)
        dmax = dens.max() if dens.max() > 0 else 1.0
        scale = 80.0
        gap = 20.0
        xoff = 0.0
        rects = []
        height = 0.0
        for poly in range(len(grid.offsets)):
            x0, y0, x1, y1 = grid.boxes[poly]
            w = float(x1 - x0) * scale
            h = float(y1 - y0) * scale
            height = max(height, h)
            cw, ch = w / grid.n, h / grid.n
            for j in range(grid.n):
                for i in range(grid.n):
                    cid = grid.offsets[poly] + j * grid.n + i
                    if grid.areas[cid] == 0:
                        continue
                    frac = dens[cid] / dmax
                    r = int(255 * frac)
                    b = 255 - r
                    rects.append(
                        f'<rect x="{xoff + i * cw:.2f}" '
                        f'y="{h - (j + 1) * ch:.2f}" width="{cw:.2f}" '
                        f'height="{ch:.2f}" fill="rgb({r},40,{b})" '
                        f'stroke="#222" stroke-width="0.5"/>')
            xoff += w + gap
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{xoff - gap:.0f}" height="{height:.0f}">'
                + "".join(rects) + "</svg>\n")


def _stratified(rng, n: int, width: float) -> np.ndarray:
    u = rng.random(n)
    return (np.arange(n) + u) / n * width


def _trace_to_cell(S, grid, start, dvec, r: float):
    """Trace a straight segment of length r; returns the cell id or None on a
    mid-flight singular hit."""
    if r <= 0:
        return grid.cell_of(start)
    budget = Fraction(r) ** 2
    res = trace_ray(S, start, dvec, budget)
    if res.hit_cone is not None and res.consumed_length_sq < budget:
        return None
    return grid.cell_of(res.end)


def _circle_arcs(G: ConcatGraph, x: int, R, census: PathCensus | None):
    """Checks shared by the estimators, then the arcs of the radius-R circle
    around cone x: (window, radius) for the full cone at the center, then
    one per census path of length <= R in census order. An arc's index in
    the list keys its random stream. Returns (R, census, arcs)."""
    R = float(R)
    if R <= 0:
        raise DegenerateRadius(f"radius must be positive, got {R}")
    G.check_radius(R)
    if census is None or census.Rmax < R:
        census = path_length_census(G, x, R)
    arcs = [(direction_window(G, x), R)]
    windows: dict[int, DirectionWindow] = {}
    idx = int(np.searchsorted(census.lengths, R, side="right"))
    for length, term in zip(census.lengths[:idx].tolist(),
                            census.terminal_saddle[:idx].tolist()):
        if term not in windows:
            windows[term] = direction_window(G, x, term)
        arcs.append((windows[term], R - length))
    return R, census, arcs


def circle_measure(G: ConcatGraph, x: int, R, grid: CellGrid,
                   samples_per_unit_angle: int = 1, seed: int = 0,
                   census: PathCensus | None = None) -> MeasureHistogram:
    """Histogram of the radius-R circle around cone x over the grid cells,
    normalized to total mass 1. Deterministic for a fixed seed: each arc uses
    its own counter-based stream keyed by (seed, arc index)."""
    if samples_per_unit_angle < 1:
        raise InvalidParams("need at least one sample per unit angle")
    R, census, arcs = _circle_arcs(G, x, R, census)
    S = G.surface
    masses = np.zeros(grid.num_cells)
    retried = 0
    dropped = 0

    for arc_index, (window, r) in enumerate(arcs):
        nsamp = max(1, round(samples_per_unit_angle * window.width))
        rng = np.random.Generator(np.random.Philox(key=[seed, arc_index]))
        thetas = _stratified(rng, nsamp, window.width)
        wgt = r * window.width / nsamp
        ulp = window.width / nsamp * 2 ** -30
        for th in thetas:
            start, dvec = _direction_at(S, window, float(th))
            cid = _trace_to_cell(S, grid, start, dvec, r)
            if cid is None:
                retried += 1
                start, dvec = _direction_at(S, window, float(th) + ulp)
                cid = _trace_to_cell(S, grid, start, dvec, r)
            if cid is None:
                dropped += 1
                continue
            masses[cid] += wgt

    total = circle_length(G, x, R, census)
    meta = {"R": R, "seed": seed, "arcs": len(arcs),
            "samples_per_unit_angle": samples_per_unit_angle,
            "retried": retried, "dropped": dropped,
            "unnormalized_total": float(masses.sum()),
            "circle_length": total}
    return MeasureHistogram(grid, masses / total, 1.0, meta)


def region_volume(G: ConcatGraph, x: int, R, grid: CellGrid, cells,
                  samples: int = 32, seed: int = 0,
                  census: PathCensus | None = None) -> tuple[float, float]:
    """Monte Carlo ball-volume mass inside the given cell set: per sector,
    area-uniform points (radius r_p*sqrt(U)), traced to their landing cell.
    Returns (estimate, standard error)."""
    if samples < 1:
        raise InvalidParams("need at least one sample per sector")
    cells = frozenset(int(c) for c in cells)
    outside = sorted(c for c in cells if not 0 <= c < grid.num_cells)
    if outside:
        raise InvalidParams(f"cell ids {outside} are outside the "
                            f"{grid.num_cells}-cell grid")
    R, census, arcs = _circle_arcs(G, x, R, census)
    S = G.surface
    est = 0.0
    var = 0.0

    for arc_index, (window, r) in enumerate(arcs):
        if r <= 0 or not cells:
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, arc_index]))
        thetas = _stratified(rng, samples, window.width)
        radii = r * np.sqrt(rng.random(samples))
        sector_vol = 0.5 * window.width * r * r
        hits = 0
        for th, rr in zip(thetas, radii):
            start, dvec = _direction_at(S, window, float(th))
            cid = _trace_to_cell(S, grid, start, dvec, float(rr))
            if cid is None:
                start, dvec = _direction_at(S, window, float(th) + 1e-9)
                cid = _trace_to_cell(S, grid, start, dvec, float(rr))
            if cid is not None and cid in cells:
                hits += 1
        p = hits / samples
        est += sector_vol * p
        var += (sector_vol ** 2) * p * (1 - p) / samples
    return est, math.sqrt(var)

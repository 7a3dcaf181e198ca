"""Geometric circles: direction windows, cell grids, measure histograms.

A circle of radius R around a cone point is a union of arcs, one per
admissible path p (radius R - l(p), angular width 2*pi*k at the terminal
cone) plus the full arc around the center. A path's window holds the
directions at least a half-turn from its terminal's back-direction, the
test that decides which saddle may follow which, and is read off the same
slots (`unfold.opposite_sectors`). One development serves every arc: each
cone sector is developed once, to the largest arc radius at its cone, and
a window is its whole sectors plus at most two partial ones clipped to its
rays. Radius by radius, the circle in each polygon copy is cut once against
the copy's edges and the cell lines, and each window copy credits the
pieces inside its wedge to their cells. `CellGrid` owns the one integer
frame that places the cells: their lines, their exact areas and which cell
holds a point. The measure, the ball volume (`volume`) and the occupancy
(`geodesics`) all read the cells from it. Cell areas and the development
are exact; only the clip angles are float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import cross, dot, neg, polygon_area
from .paths import ConcatGraph, PathCensus, path_length_census, circle_length
from .rational import GRID_MAX, parse_grid, parse_int
from .surface import TranslationSurface
from .unfold import (ConeDirection, _meet, integer_polygons, opposite_sectors,
                     unfold_wedge)
# Not called here: the benchmark tracer (perfbench/tracing.py) wraps
# circles.trace_ray by name to count rays.
from .unfold import trace_ray  # noqa: F401

TWO_PI = 2 * math.pi
HALF_PI = math.pi / 2


# ----------------------------------------------------------------------------
# Cell grids with exact areas


def _clip_axis(pts, axis: int, c: int, sign: int) -> list:
    """Sutherland-Hodgman clip of a convex ccw polygon to the closed
    half-plane sign * (coordinate `axis` - c) >= 0, on integer points. Exact
    when every point where the line meets an edge is an integer point."""
    out = []
    n = len(pts)
    for i in range(n):
        P, Q = pts[i], pts[(i + 1) % n]
        sp, sq = sign * (P[axis] - c), sign * (Q[axis] - c)
        if sp >= 0:
            out.append(P)
        if (sp >= 0) != (sq >= 0):
            o = 1 - axis
            v = P[o] + (c - P[axis]) * (Q[o] - P[o]) // (Q[axis] - P[axis])
            out.append((c, v) if axis == 0 else (v, c))
    return out


@dataclass
class CellGrid:
    """Per-polygon n x n congruent axis-aligned cells over each polygon's
    bounding box, in one integer frame that every reader of the cells
    shares. The polygons of `integer_polygons` scaled by n * L, with L a
    multiple of every edge's |dx| and |dy|, put every vertex and cell line
    on integers: a cell line then meets each edge line at an integer point,
    so each cell-intersect-polygon is an integer polygon.

    `scale` is the frame's unit (D * n * L), `polys` the scaled polygons,
    `frames[p]` = (x0, y0, cw, ch) the corner and cell size of polygon p's
    box, and `pieces[cid]` the integer cell-intersect-polygon that the
    exact area comes from. Cell ids are offsets[p] + j * n + i. Degenerate
    cells (zero area) keep their id so indexing stays rectangular; n is at
    most `rational.GRID_MAX`."""

    surface: TranslationSurface
    n: int
    offsets: list[int] = field(init=False, default_factory=list)
    areas: np.ndarray = field(init=False)
    scale: int = field(init=False)
    polys: tuple = field(init=False)
    frames: list[tuple] = field(init=False, default_factory=list)
    pieces: list[list] = field(init=False, default_factory=list)

    def __post_init__(self):
        n = self.n = parse_int(self.n, GRID_MAX + 1, "grid size", first=1)
        D, polys = integer_polygons(self.surface)
        L = 1
        for poly in polys:
            for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
                L = math.lcm(L, abs(x2 - x1) or 1, abs(y2 - y1) or 1)
        m = n * L
        self.scale = D * m
        self.polys = tuple(tuple((x * m, y * m) for x, y in poly)
                           for poly in polys)
        for pts in self.polys:
            self.offsets.append(len(self.pieces))
            x0 = min(x for x, _ in pts)
            y0 = min(y for _, y in pts)
            cw = (max(x for x, _ in pts) - x0) // n
            ch = (max(y for _, y in pts) - y0) // n
            self.frames.append((x0, y0, cw, ch))
            for j in range(n):
                row = _clip_axis(_clip_axis(pts, 1, y0 + j * ch, 1),
                                 1, y0 + (j + 1) * ch, -1)
                for i in range(n):
                    self.pieces.append(_clip_axis(_clip_axis(
                        row, 0, x0 + i * cw, 1), 0, x0 + (i + 1) * cw, -1))
        areas = [polygon_area(piece) / self.scale ** 2 for piece in self.pieces]
        assert sum(areas) == self.surface.area, "grid cells must partition the area"
        self.areas = np.array([float(a) for a in areas])

    @property
    def num_cells(self) -> int:
        return len(self.areas)

    def cell_of(self, p: int, x, y, den: int = 1) -> int:
        """The cell of polygon p holding the point (x / den, y / den) of the
        frame, by floor division on the cell lines; a point outside the
        box clamps to the nearest cell. x and y are floats or integers."""
        x0, y0, cw, ch = self.frames[p]
        n = self.n
        i = min(max(int((x - x0 * den) // (cw * den)), 0), n - 1)
        j = min(max(int((y - y0 * den) // (ch * den)), 0), n - 1)
        return self.offsets[p] + j * n + i

    def cell_meta(self, cid: int) -> tuple[int, int, int]:
        poly = max(p for p in range(len(self.offsets)) if self.offsets[p] <= cid)
        rem = cid - self.offsets[poly]
        return poly, rem % self.n, rem // self.n


@dataclass
class MeasureHistogram:
    """Cell masses summing to 1, with the run's metadata."""

    grid: CellGrid
    masses: np.ndarray
    meta: dict

    def l1_distance(self, other: "MeasureHistogram") -> float:
        return float(np.abs(self.masses - other.masses).sum())

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
        for poly, (_, _, fw, fh) in enumerate(grid.frames):
            w = grid.n * fw / grid.scale * scale
            h = grid.n * fh / grid.scale * scale
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


def _circle_arcs(G: ConcatGraph, x: int, R, census: PathCensus | None):
    """Checks shared by the estimators, then the arcs of the radius-R circle
    around cone x: the full cone at the center, then one per census group
    of length <= R. Returns (R parsed, census, arcs, narcs): arcs maps each
    distinct (window, radius > 0) to its number of paths, in order of first
    appearance; narcs counts every arc. A window is (cone, back): back is
    the terminal saddle's back-direction, or None for the full cone at the
    center. Only the arc radii round R to a float. The census is read in
    blocks, not as per-group lists, and R as given (`lengths.exact_bound`)."""
    x = parse_int(x, len(G.cone_k), "cone point")
    T = G.check_radius(R, positive=True)
    r = float(T)
    if census is None or census.Rmax < r:
        census = path_length_census(G, x, T)
    g = census.groups(R)
    arcs = {((x, None), r): 1}
    narcs = 1
    for lo in range(0, g, 256):
        hi = min(g, lo + 256)
        for length, term, count in zip(census.group_lengths[lo:hi].tolist(),
                                       census.group_saddle[lo:hi].tolist(),
                                       census.counts[lo:hi].tolist()):
            narcs += count
            if r - length <= 0:
                continue
            back = G.saddles[term].back_dir
            key = (back.cone_id, back), r - length
            arcs[key] = arcs.get(key, 0) + count
    return T, census, arcs, narcs


def _window_wedges(S: TranslationSurface,
                   window: tuple[int, ConeDirection | None]) -> list:
    """The window (cone, back) as exact per-sector wedges (slot, (a, ia, b,
    ib)). The full cone (back None) is every sector whole. Otherwise the
    window is the 2*pi*k of directions from -back ccw back to -back, whose
    ends lie in the first and the last of the sectors `opposite_sectors`
    lists: a partial first slot from -back, the whole sectors in between
    and a partial last slot up to -back. At k = 0 that is one slot and no
    wedge."""
    cone, back = window
    rays = S.star_rays[cone]
    if back is None:
        return [(slot, (r1, True, r2, False)) for slot, (r1, r2) in enumerate(rays)]
    slots = opposite_sectors(S, back)
    if len(slots) == 1:
        return []
    vec = (-back.vec[0], -back.vec[1])
    first, last = slots[0], slots[-1]
    out = [(first, (vec, True, rays[first][1], False))]
    slot = (first + 1) % len(rays)
    while slot != last:
        out.append((slot, (rays[slot][0], True, rays[slot][1], False)))
        slot = (slot + 1) % len(rays)
    if vec != rays[last][0]:
        out.append((last, (rays[last][0], True, vec, False)))
    return out


def _distance_bounds(verts) -> tuple[float, float]:
    """Squared distances from the origin to the nearest and the farthest
    point of a convex polygon not holding the origin, as floats."""
    far = max(x * x + y * y for x, y in verts)
    near = far
    x1, y1 = verts[-1]
    for x2, y2 in verts:
        dx, dy = x2 - x1, y2 - y1
        s = -(x1 * dx + y1 * dy)
        dd = dx * dx + dy * dy
        if 0 < s < dd:
            c = x1 * dy - y1 * dx
            near = min(near, c * c / dd)
        else:
            near = min(near, x1 * x1 + y1 * y1)
        x1, y1 = x2, y2
    return float(near), float(far)


class _Development:
    """One development per cone sector, read window by window.

    Each sector a window holds is developed once by `unfold_wedge`, to the
    largest arc radius at its cone (in the coordinates of `polys`), with
    the budget widened by a relative 1e-12 so that no copy the float
    circle enters is pruned by a rounded comparison. A sector keeps its
    copies of nonzero angle in order of near, as (polygon, tx, ty, base,
    width, near, far, ax, ay, ia, bx, by, ib): the translation, the float
    angles of the wedge's first ray and of the wedge, the bounds of
    `_distance_bounds` and the wedge (a, ia, b, ib)."""

    def __init__(self, S: TranslationSurface, polys, arcs):
        # arcs: the (window, rho) pairs that the development serves
        self.S, self.polys = S, polys
        self.reach: dict[int, float] = {}
        for (cone, _), rho in arcs:
            self.reach[cone] = max(self.reach.get(cone, 0.0), rho)
        self.sectors: dict[tuple, list] = {}
        self.rays: dict[tuple, tuple] = {}  # ray -> (coprime ray, angle)

    def angles(self, w) -> tuple[float, float]:
        # from the coprime rays, so that equal directions give equal floats
        rays = self.rays
        for d in w[0], w[2]:
            if d not in rays:
                g = math.gcd(*d)
                rays[d] = (d[0] // g, d[1] // g), math.atan2(d[1], d[0])
        (a, base), (b, _) = rays[w[0]], rays[w[2]]
        return base, math.atan2(cross(a, b), dot(a, b))

    def sector(self, cone: int, slot: int) -> list:
        if (cone, slot) not in self.sectors:
            S, polys = self.S, self.polys
            p, v = S.cone_points[cone].star[slot]
            r1, r2 = S.star_rays[cone][slot]
            B = self.reach[cone] * self.reach[cone] * (1 + 1e-12)
            copies = []
            for q, (tx, ty), verts, w, _ in unfold_wedge(
                    S, polys, B, p, neg(polys[p][v]), (r1, True, r2, False)):
                base, width = self.angles(w)
                if width > 0:
                    (ax, ay), ia, (bx, by), ib = w
                    copies.append((q, tx, ty, base, width)
                                  + _distance_bounds(verts)
                                  + (ax, ay, ia, bx, by, ib))
            copies.sort(key=lambda c: c[5])
            self.sectors[cone, slot] = copies
        return self.sectors[cone, slot]

    def copies(self, window, lo: float, hi: float):
        """The copies the window's rays reach with near <= hi and far
        >= lo. A window is whole sectors plus at most two partial ones,
        whose copies keep the part of their wedge between the window's
        rays (`unfold._meet`): what developing them would give."""
        cone = window[0]
        rays = self.S.star_rays[cone]
        for slot, ((ex, ey), _, (fx, fy), _) in _window_wedges(self.S, window):
            whole = rays[slot] == ((ex, ey), (fx, fy))
            for c in self.sector(cone, slot):
                if c[5] > hi:
                    break
                if c[6] < lo:
                    continue
                if not whole:
                    w = ((c[7], c[8]), c[9], (c[10], c[11]), c[12])
                    cw = _meet(w, ex, ey, fx, fy)
                    if cw is None:
                        continue
                    if cw != w:
                        base, width = self.angles(cw)
                        if width <= 0:
                            continue
                        (ax, ay), ia, (bx, by), ib = cw
                        c = c[:3] + (base, width) + c[5:7] + (ax, ay, ia, bx, by, ib)
                yield c


class _ScaledCells:
    """The grid in the integer coordinates of `integer_polygons`, its own
    frame divided by unit = grid.scale / D: per polygon the cell lines as
    correctly rounded floats, and per edge (nx, ny, h, angle, length) of
    its inner normal n, with h = n.p on the edge."""

    def __init__(self, grid: CellGrid, D: int, polys):
        self.grid, self.unit = grid, grid.scale // D
        lines = range(1, grid.n)
        self.xlines = [[(x0 + i * cw) / self.unit for i in lines]
                       for x0, _, cw, _ in grid.frames]
        self.ylines = [[(y0 + j * ch) / self.unit for j in lines]
                       for _, y0, _, ch in grid.frames]
        self.normals = []
        for poly in polys:
            mine = []
            for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
                nx, ny = y1 - y2, x2 - x1
                mine.append((nx, ny, nx * x1 + ny * y1, math.atan2(ny, nx),
                             math.hypot(nx, ny)))
            self.normals.append(mine)

    def cut(self, p: int, tx, ty, rho) -> list:
        """The circle of radius rho about the origin inside polygon p
        translated by (tx, ty), as pieces (start angle, angle, cell id). A
        line n.p = h cuts the circle at the angle of n plus or minus
        acos(h / (rho |n|)). An arc between edge cuts lies in the copy when
        its midpoint is within every edge's arc; the cell lines split it,
        and each piece goes to the cell holding its midpoint."""
        cell_of, unit = self.grid.cell_of, self.unit
        edges = []
        marks = []
        for nx, ny, h, th, norm in self.normals[p]:
            q = (h + nx * tx + ny * ty) / (rho * norm)
            if q >= 1:
                return []  # the circle lies beyond this edge
            if q > -1:
                half = math.acos(q)
                edges.append((th, half))
                marks.append((th - half) % TWO_PI)
                marks.append((th + half) % TWO_PI)
        if not marks:
            marks.append(0.0)
        marks.sort()
        marks.append(marks[0] + TWO_PI)
        arcs = []
        for lo, hi in zip(marks, marks[1:]):
            if hi <= lo:
                continue
            mid = 0.5 * (lo + hi)
            for th, half in edges:
                off = (mid - th) % TWO_PI
                if off >= half and TWO_PI - off >= half:
                    break
            else:
                arcs.append((lo, hi))
        if not arcs:
            return []
        lines = []
        for X in self.xlines[p]:
            q = (X + tx) / rho
            if -1 < q < 1:
                half = math.acos(q)
                lines.append(-half % TWO_PI)
                lines.append(half)
        for Y in self.ylines[p]:
            q = (Y + ty) / rho
            if -1 < q < 1:
                half = math.acos(q)
                lines.append((HALF_PI - half) % TWO_PI)
                lines.append(HALF_PI + half)
        out = []
        for lo, hi in arcs:
            cuts = [lo]
            for m in lines:
                if m <= lo:
                    m += TWO_PI  # the arc may run past 2*pi
                if m < hi:
                    cuts.append(m)
            cuts.sort()
            cuts.append(hi)
            for a, b in zip(cuts, cuts[1:]):
                if b > a:
                    mid = 0.5 * (a + b)
                    out.append((a, b - a, cell_of(
                        p, unit * (rho * math.cos(mid) - tx),
                        unit * (rho * math.sin(mid) - ty))))
        return out


def circle_measure(G: ConcatGraph, x: int, R, grid: CellGrid,
                   census: PathCensus | None = None) -> MeasureHistogram:
    """Histogram of the radius-R circle around cone x over the grid cells,
    normalized to total mass 1.

    The arc of radius r in a window is the circle of radius r about the
    origin in the window's development (`_Development`). Radius by radius,
    the circle in each polygon copy is cut once (`_ScaledCells.cut`), and
    each window copy credits r times the angle of the pieces inside its
    wedge to their cells. Which copy and wedge a piece lies in is exact;
    the clip angles are float. Nothing is sampled."""
    parse_grid(grid, G.surface)
    T, census, arcs, narcs = _circle_arcs(G, x, R, census)
    by_radius: dict[float, list] = {}
    for (window, r), mult in arcs.items():
        by_radius.setdefault(r, []).append((window, mult))
    del arcs
    S = G.surface
    D, polys = integer_polygons(S)
    cells = _ScaledCells(grid, D, polys)
    dev = _Development(S, polys, [(w, r * D) for r, group in by_radius.items()
                                  for w, _ in group])
    masses = [0.0] * grid.num_cells
    for r, group in by_radius.items():
        rho = r * D
        # copies the circle misses by more than rounding are skipped; the
        # rest are cut, and a miss gives no piece
        lo, hi = rho * rho * (1 - 1e-9), rho * rho * (1 + 1e-9)
        circles: dict[tuple, list] = {}  # (polygon, tx, ty) -> pieces
        for window, mult in group:
            for copy in dev.copies(window, lo, hi):
                p, tx, ty, base, width = copy[:5]
                pieces = circles.get(copy[:3])
                if pieces is None:
                    pieces = circles[p, tx, ty] = cells.cut(p, tx, ty, rho)
                for start, ang, cid in pieces:
                    # the piece runs from s to s + ang past base, the wedge
                    # from 0 to width
                    s = (start - base) % TWO_PI
                    part = min(ang, width - s) if s < width else 0.0
                    if s + ang > TWO_PI:
                        part += min(s + ang - TWO_PI, width)
                    masses[cid] += r * mult * part
    masses = np.array(masses)

    total = circle_length(G, x, R, census)
    # Nothing is sampled, so no sample is retried or dropped; the keys stay
    # because perfbench/tracing.py reads them.
    meta = {"R": float(T), "arcs": narcs, "retried": 0, "dropped": 0,
            "unnormalized_total": float(masses.sum()),
            "circle_length": total}
    return MeasureHistogram(grid, masses / total, meta)

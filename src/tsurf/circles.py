"""Geometric circles: direction windows, cell grids, measure histograms.

A circle of radius R around a cone point is a union of arcs, one per
admissible path p (radius R - l(p), angular width 2*pi*k at the terminal
cone) plus the full arc around the center. Each distinct (window, radius)
is developed once through the gluings: the arc is the circle of that
radius about the origin, cut by the polygon copies the window's rays
reach. The histogram credits each piece's length to its cell, and the
region volume adds each copy-cell-wedge polygon's area inside the disk.
Cell areas and the development are exact; only the clip angles and the
disk areas are float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateRadius, InvalidParams
from .geometry import (Wedge, clip_half_plane, convex_clip, cross, dot, neg,
                       norm_dir, polygon_area, segment_within)
from .paths import ConcatGraph, PathCensus, path_length_census, circle_length
from .surface import TranslationSurface
from .unfold import (ConeDirection, cone_direction,
                     integer_polygons, opposite_sectors, unfold_wedge)
# Not called here: the benchmark tracer (perfbench/tracing.py) wraps
# circles.trace_ray by name to count rays.
from .unfold import trace_ray  # noqa: F401

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


def _circle_arcs(G: ConcatGraph, x: int, R, census: PathCensus | None):
    """Checks shared by the estimators, then the arcs of the radius-R circle
    around cone x as (window, radius, count): the full cone at the center
    once, then one entry per census group of length <= R in census order,
    standing for its count paths. Only the arc radii round R to a float.
    Returns (R, census, arcs)."""
    if R <= 0:
        raise DegenerateRadius(f"radius must be positive, got {R}")
    G.check_radius(R)
    if census is None or census.Rmax < float(R):
        census = path_length_census(G, x, R)
    g = census.groups(R)
    r = float(R)
    arcs = [(direction_window(G, x), r, 1)]
    windows: dict[int, DirectionWindow] = {}
    for length, term, count in zip(census.group_lengths[:g].tolist(),
                                   census.group_saddle[:g].tolist(),
                                   census.counts[:g].tolist()):
        if term not in windows:
            windows[term] = direction_window(G, x, term)
        arcs.append((windows[term], r - length, count))
    return R, census, arcs


def _window_wedges(S: TranslationSurface, window: DirectionWindow) -> list:
    """The window as exact per-sector wedges (slot, wedge). A window of m
    full turns runs from its start vector to the same vector m turns later;
    the full cone is every sector whole."""
    rays = S.star_rays[window.cone_id]
    n = len(rays)
    sectors = [Wedge(r1, True, r2, False) for r1, r2 in rays]
    vec, first = window.start.vec, window.start.slot
    holding = sorted((j for j in range(n) if sectors[j].contains(vec)),
                     key=lambda j: (j - first) % n)
    turns = round(window.width / TWO_PI)
    if turns >= len(holding):
        return list(enumerate(sectors))
    last = holding[turns]
    out = [(first, Wedge(vec, True, rays[first][1], False))]
    slot = (first + 1) % n
    while slot != last:
        out.append((slot, sectors[slot]))
        slot = (slot + 1) % n
    tail = Wedge(rays[last][0], True, vec, False)
    if not tail.is_empty():
        out.append((last, tail))
    return out


def _distinct_arcs(arcs) -> dict:
    """Multiplicity of each distinct (window, radius > 0), in order of first
    appearance."""
    groups: dict[tuple, list] = {}
    for window, r, count in arcs:
        if r <= 0:
            continue
        key = (window.cone_id, window.start.slot, window.start.vec,
               window.width, r)
        if key in groups:
            groups[key][2] += count
        else:
            groups[key] = [window, r, count]
    return groups


def _developed_copies(S, polys, window, rho):
    """Every polygon copy that the rays of the window reach within length
    rho (in the scaled coordinates of `polys`). The budget is widened by a
    relative 1e-12 so that no copy the float circle enters is pruned by a
    rounded comparison; an extra copy only contributes nothing."""
    B = rho * rho * (1 + 1e-12)
    for slot, w in _window_wedges(S, window):
        p, v = S.cone_points[window.cone_id].star[slot]
        yield from unfold_wedge(S, polys, B, p, neg(polys[p][v]),
                                (w.a, w.ia, w.b, w.ib))


class _ScaledCells:
    """The grid in the integer coordinates of `integer_polygons`: per
    polygon the scaled bounding box and cell lines."""

    def __init__(self, grid: CellGrid, D: int):
        self.grid = grid
        self.boxes = [tuple(float(c * D) for c in box) for box in grid.boxes]
        n = grid.n
        self.xlines = [[x0 + (x1 - x0) * i / n for i in range(1, n)]
                       for x0, _, x1, _ in self.boxes]
        self.ylines = [[y0 + (y1 - y0) * i / n for i in range(1, n)]
                       for _, y0, _, y1 in self.boxes]

    def cell_of(self, p: int, x: float, y: float) -> int:
        x0, y0, x1, y1 = self.boxes[p]
        n = self.grid.n
        i = min(max(int((x - x0) * n // (x1 - x0)), 0), n - 1)
        j = min(max(int((y - y0) * n // (y1 - y0)), 0), n - 1)
        return self.grid.offsets[p] + j * n + i


def _half_circle_cut(nx, ny, h, rho):
    """The part of the circle of radius rho about the origin in the
    half-plane n.p >= h, as (angle of n, half-width): the angles within the
    half-width of n's angle. Half-width -1 when the part is at most a point,
    4 (> pi) when it is the whole circle. A half-plane and its complement
    get complementary arcs from the same float quotient, so an arc split
    between two copies along their shared edge is counted once."""
    q = h / (rho * math.hypot(nx, ny))
    if q >= 1:
        return math.atan2(ny, nx), -1.0
    if q <= -1:
        return math.atan2(ny, nx), 4.0
    return math.atan2(ny, nx), math.acos(q)


def _arc_angles(copy, cells: _ScaledCells, rho):
    """(cell id, angle) of each piece of the circle of radius rho about the
    origin inside a copy from `unfold_wedge` and its wedge, split at the
    cell lines. The pieces come from float clip angles; each is credited to
    the cell that holds its midpoint."""
    p, (tx, ty), verts, (a, _, b, _) = copy[:4]
    a, b = norm_dir(a), norm_dir(b)  # the float angles as on coprime rays
    width = math.atan2(cross(a, b), dot(a, b))
    if width <= 0:
        return []
    base = math.atan2(a[1], a[0])
    n = len(verts)
    edges = []
    for k in range(n):
        (x1, y1), (x2, y2) = verts[k], verts[(k + 1) % n]
        nx, ny = y1 - y2, x2 - x1
        th, half = _half_circle_cut(nx, ny, nx * x1 + ny * y1, rho)
        if half < 0:
            return []
        if half <= math.pi:
            edges.append((th, half))
    cuts = list(edges)
    for X in cells.xlines[p]:
        cuts.append(_half_circle_cut(1, 0, X + tx, rho))
    for Y in cells.ylines[p]:
        cuts.append(_half_circle_cut(0, 1, Y + ty, rho))
    marks = [0.0, width]
    for th, half in cuts:
        if 0 <= half <= math.pi:
            for ang in (th - half, th + half):
                phi = (ang - base) % TWO_PI
                if 0 < phi < width:
                    marks.append(phi)
    marks.sort()
    out = []
    for lo, hi in zip(marks, marks[1:]):
        if hi <= lo:
            continue
        mid = base + 0.5 * (lo + hi)
        inside = True
        for th, half in edges:
            off = (mid - th) % TWO_PI
            if min(off, TWO_PI - off) >= half:
                inside = False
                break
        if inside:
            cid = cells.cell_of(p, rho * math.cos(mid) - tx,
                                rho * math.sin(mid) - ty)
            out.append((cid, hi - lo))
    return out


def circle_measure(G: ConcatGraph, x: int, R, grid: CellGrid,
                   census: PathCensus | None = None) -> MeasureHistogram:
    """Histogram of the radius-R circle around cone x over the grid cells,
    normalized to total mass 1, by developing each distinct arc.

    The arc of radius r in a window is the circle of radius r about the
    origin in the development of that window: in every polygon copy the
    window's rays reach within r, the circle is clipped to the copy, to the
    copy's wedge and to the cell lines, and each piece credits r times its
    angle to its cell. Which copy and wedge a piece belongs to is exact; the
    clip angles are float. Nothing is sampled."""
    R, census, arcs = _circle_arcs(G, x, R, census)
    S = G.surface
    D, polys = integer_polygons(S)
    cells = _ScaledCells(grid, D)
    masses = np.zeros(grid.num_cells)
    for window, r, mult in _distinct_arcs(arcs).values():
        rho = r * D
        arc = np.zeros(grid.num_cells)
        for copy in _developed_copies(S, polys, window, rho):
            for cid, ang in _arc_angles(copy, cells, rho):
                arc[cid] += ang
        masses += (mult * r) * arc

    total = circle_length(G, x, R, census)
    # Nothing is sampled, so no sample is retried or dropped; the keys stay
    # because perfbench/tracing.py reads them.
    meta = {"R": float(R), "arcs": sum(count for _, _, count in arcs),
            "retried": 0, "dropped": 0,
            "unnormalized_total": float(masses.sum()),
            "circle_length": total}
    return MeasureHistogram(grid, masses / total, meta)


def _disk_triangle(A, B, rho):
    """Signed area of the triangle (origin, A, B) inside the disk of radius
    rho about the origin, in closed form."""
    dx, dy = B[0] - A[0], B[1] - A[1]
    a = dx * dx + dy * dy

    def sector(P, Q):
        return 0.5 * rho * rho * math.atan2(cross(P, Q), dot(P, Q))

    if a == 0:
        return 0.0
    b = A[0] * dx + A[1] * dy
    disc = b * b - a * (A[0] * A[0] + A[1] * A[1] - rho * rho)
    if disc <= 0:
        return sector(A, B)
    root = math.sqrt(disc)
    s1, s2 = (-b - root) / a, (-b + root) / a
    if s1 >= 1 or s2 <= 0:
        return sector(A, B)
    s1, s2 = max(s1, 0.0), min(s2, 1.0)
    P = (A[0] + s1 * dx, A[1] + s1 * dy)
    Q = (A[0] + s2 * dx, A[1] + s2 * dy)
    return sector(A, P) + 0.5 * cross(P, Q) + sector(Q, B)


def _disk_area(poly, rho) -> float:
    """Area of a convex ccw polygon inside the disk of radius rho about the
    origin, summed edge by edge over the fan from the origin."""
    pts = [(float(px), float(py)) for px, py in poly]
    return math.fsum(_disk_triangle(A, B, rho)
                     for A, B in zip(pts, pts[1:] + pts[:1]))


def region_volume(G: ConcatGraph, x: int, R, grid: CellGrid, cells,
                  census: PathCensus | None = None) -> float:
    """Area of the radius-R ball around cone x inside the given cell set.

    Each distinct arc's window is developed as in `circle_measure`; in every
    copy, copy-cell-wedge is clipped exactly and its area inside the disk
    of radius r is added in closed form."""
    cells = frozenset(int(c) for c in cells)
    outside = sorted(c for c in cells if not 0 <= c < grid.num_cells)
    if outside:
        raise InvalidParams(f"cell ids {outside} are outside the "
                            f"{grid.num_cells}-cell grid")
    R, census, arcs = _circle_arcs(G, x, R, census)
    if not cells:
        return 0.0
    S = G.surface
    D, polys = integer_polygons(S)
    pieces = [[] for _ in polys]  # per polygon: its cells in the set
    for cid in sorted(cells):
        p, i, j = grid.cell_meta(cid)
        x0, y0, x1, y1 = (c * D for c in grid.boxes[p])
        cw, ch = (x1 - x0) / grid.n, (y1 - y0) / grid.n
        piece = convex_clip(polys[p], x0 + i * cw, x0 + (i + 1) * cw,
                            y0 + j * ch, y0 + (j + 1) * ch)
        if len(piece) >= 3:
            pieces[p].append(piece)
    # Scale once more so that the piece vertices are integers as well.
    m = math.lcm(*(Fraction(c).denominator for mine in pieces
                   for piece in mine for pt in piece for c in pt))
    D *= m
    polys = tuple(tuple((px * m, py * m) for px, py in poly) for poly in polys)
    pieces = [[[(int(px * m), int(py * m)) for px, py in piece]
               for piece in mine] for mine in pieces]
    total = 0.0
    for window, r, mult in _distinct_arcs(arcs).values():
        rho = r * D
        vol = 0.0
        copies = _developed_copies(S, polys, window, rho)
        for p, (tx, ty), _, (a, _, b, _), _ in copies:
            for piece in pieces[p]:
                part = [(px + tx, py + ty) for px, py in piece]
                if not any(segment_within(P, Q, rho * rho)
                           for P, Q in zip(part, part[1:] + part[:1])):
                    continue  # beyond the disk; no copy holds the origin
                part = clip_half_plane(part, (0, 0), a)
                part = clip_half_plane(part, (0, 0), neg(b))
                if len(part) >= 3:
                    vol += _disk_area(part, rho)
        total += mult * vol
    return total / (D * D)

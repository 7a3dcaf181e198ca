"""Ball volume inside a set of grid cells.

The ball of radius R around a cone point is a union of sectors, one per arc
of the circle (`circles._circle_arcs`), each developed as the circle
measure develops it (`circles._Development`), here in the grid's own
integer frame. The cells are the grid's integer cell-intersect-polygon
pieces (`CellGrid.pieces`). Inside every window copy, copy-cell-wedge is
clipped exactly and its area inside the disk is added in closed form. Of
the subcommands only `volume` loads this module.
"""

from __future__ import annotations

import math

from .circles import CellGrid, _circle_arcs, _Development, _distance_bounds
from .errors import InvalidParams
from .geometry import clip_half_plane, cross, dot, neg
from .paths import ConcatGraph, PathCensus


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

    The windows are read off one development per cone sector, as in
    `circle_measure`. In every window copy, copy-cell-wedge is clipped
    exactly once, and its area inside the disk of radius r is added in
    closed form for each arc radius r of the window."""
    cells = frozenset(int(c) for c in cells)
    outside = sorted(c for c in cells if not 0 <= c < grid.num_cells)
    if outside:
        raise InvalidParams(f"cell ids {outside} are outside the "
                            f"{grid.num_cells}-cell grid")
    R, census, arcs, _ = _circle_arcs(G, x, R, census)
    if not cells:
        return 0.0
    scale, polys = grid.scale, grid.polys
    pieces = [[] for _ in polys]  # per polygon: its cells in the set
    for cid in sorted(cells):
        if len(grid.pieces[cid]) >= 3:
            pieces[grid.cell_meta(cid)[0]].append(grid.pieces[cid])
    by_window: dict = {}
    for (window, r), mult in arcs.items():
        by_window.setdefault(window, []).append((r * scale, mult))
    dev = _Development(G.surface, polys, [
        (w, rho) for w, group in by_window.items() for rho, _ in group])
    placed: dict[tuple, list] = {}  # (polygon, tx, ty) -> its pieces
    total = 0.0
    for window, group in by_window.items():
        reach = [rho * rho * (1 + 1e-9) for rho, _ in group]
        sums = [0.0] * len(group)
        for copy in dev.copies(window, 0.0, max(reach)):
            p, tx, ty = key = copy[:3]
            a, b = copy[7:9], copy[10:12]
            if key not in placed:
                placed[key] = [
                    (_distance_bounds(piece)[0], piece) for piece in
                    ([(px + tx, py + ty) for px, py in piece]
                     for piece in pieces[p])]
            for near, piece in placed[key]:
                clipped = None
                for k, (rho, _) in enumerate(group):
                    if near > reach[k]:
                        continue  # beyond the disk
                    if clipped is None:
                        clipped = clip_half_plane(piece, (0, 0), a)
                        clipped = clip_half_plane(clipped, (0, 0), neg(b))
                    if len(clipped) >= 3:
                        sums[k] += _disk_area(clipped, rho)
        for (_, mult), vol in zip(group, sums):
            total += mult * vol
    return total / (scale * scale)

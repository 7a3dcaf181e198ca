"""Exact planar primitives: integer direction vectors, wedges, predicates.

All incidence and ordering decisions in the library reduce to sign tests on
rational (usually integer) cross and dot products. Directions are stored as
coprime integer pairs so the hot predicates run on machine ints. Wedges are
angular sectors of angle <= pi with per-boundary inclusion flags; keeping
them below a half-turn makes membership a pair of cross-product signs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def neg(u):
    return (-u[0], -u[1])


def norm_sq(u):
    return u[0] * u[0] + u[1] * u[1]


def norm_dir(v) -> tuple[int, int]:
    """Collapse a rational vector to its coprime integer direction."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no direction")
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        x = Fraction(x)
        y = Fraction(y)
        m = x.denominator * y.denominator
        ix = int(x * m)
        iy = int(y * m)
    else:
        ix, iy = int(x), int(y)
    g = math.gcd(ix, iy)
    return (ix // g, iy // g)


def same_dir(u, v) -> bool:
    """Parallel and pointing the same way."""
    return cross(u, v) == 0 and dot(u, v) > 0


def second_half(base, v) -> bool:
    """The ccw angle from `base` to `v` lies in [pi, 2*pi)."""
    c = cross(base, v)
    return c < 0 or (c == 0 and dot(base, v) < 0)


@dataclass(frozen=True)
class Wedge:
    """Angular sector from ray `a` counterclockwise to ray `b`, angle in
    [0, pi]; `ia`/`ib` say whether each boundary ray belongs to the sector."""

    a: tuple[int, int]
    ia: bool
    b: tuple[int, int]
    ib: bool

    def contains(self, d) -> bool:
        if same_dir(self.a, d):
            return self.ia
        if same_dir(d, self.b):
            return self.ib
        return cross(self.a, d) > 0 and cross(d, self.b) > 0

    def is_empty(self) -> bool:
        # Only zero-angle wedges can be empty; the constructors never build
        # reversed ones.
        return same_dir(self.a, self.b) and not (self.ia and self.ib)


def wedge_intersect(w1: Wedge, w2: Wedge) -> Wedge | None:
    """Intersection of two wedges of angle <= pi, or None if empty."""
    if same_dir(w1.a, w2.a):
        a, ia = w1.a, (w1.ia and w2.ia)
    elif w1.contains(w2.a):
        a, ia = w2.a, w2.ia
    elif w2.contains(w1.a):
        a, ia = w1.a, w1.ia
    else:
        return None
    if same_dir(w1.b, w2.b):
        b, ib = w1.b, (w1.ib and w2.ib)
    elif w1.contains(w2.b):
        b, ib = w2.b, w2.ib
    elif w2.contains(w1.b):
        b, ib = w1.b, w1.ib
    else:
        return None
    c = cross(a, b)
    if c < 0:
        return None
    if c == 0 and dot(a, b) < 0:
        # Would be an exact half-turn; a proper intersection of two <= pi
        # wedges is only pi when both wedges equal it, handled above.
        if not (same_dir(w1.a, w2.a) and same_dir(w1.b, w2.b)):
            return None
    out = Wedge(a, ia, b, ib)
    return None if out.is_empty() else out


def _ccw_cmp(d1, d2) -> int:
    c = cross(d1, d2)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


# Sort key putting directions in counterclockwise order. The cross-product
# sign orders two directions only when they are less than a half-turn apart,
# so the order is exact for directions inside one half-open sector of angle
# <= pi (or a closed one of angle < pi); parallel directions compare equal.
ccw_sort_key = functools.cmp_to_key(_ccw_cmp)


def segment_within(p1, p2, B) -> bool:
    """Whether the segment [p1, p2] comes within squared distance B of the
    origin. No division, so integer coordinates stay integers and the test
    is exact for any exact B."""
    d = sub(p2, p1)
    s = -dot(p1, d)
    if s <= 0:
        return norm_sq(p1) <= B
    dd = norm_sq(d)
    if s >= dd:
        return norm_sq(p2) <= B
    c = cross(p1, d)
    return c * c <= B * dd


def point_in_convex(verts, p) -> int:
    """Locate p relative to a convex ccw polygon.

    Returns +1 strictly inside, 0 on the boundary, -1 outside.
    """
    on_edge = False
    grazing = False
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        c = cross(sub(b, a), sub(p, a))
        if c < 0:
            return -1
        if c == 0:
            # On the supporting line; inside the edge span means boundary.
            # Outside the span is still possible at a flat vertex, where a
            # collinear neighbor edge holds the point instead.
            if dot(sub(p, a), sub(p, b)) <= 0:
                on_edge = True
            else:
                grazing = True
    if on_edge:
        return 0
    if grazing:
        # In every half-plane, on some edge line, but on no edge: the face
        # of that line contains the point, so a sibling edge must have
        # caught it; unreachable for a valid convex polygon.
        return -1
    return 1


def clip_half_plane(verts, o, u):
    """Sutherland-Hodgman clip of a convex ccw polygon to the closed half-plane
    left of the line through `o` with direction `u`. Exact for rational
    input; returns the clipped vertex list (possibly empty or degenerate)."""
    side = [cross(u, sub(p, o)) for p in verts]
    out = []
    n = len(verts)
    for i in range(n):
        j = (i + 1) % n
        if side[i] >= 0:
            out.append(verts[i])
        if (side[i] >= 0) != (side[j] >= 0):
            p, q = verts[i], verts[j]
            s = Fraction(side[i]) / (side[i] - side[j])
            out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    return out


def convex_clip(verts, xlo, xhi, ylo, yhi):
    """Clip a convex ccw polygon to an axis box; exact for rational input,
    returns the clipped vertex list (possibly empty, possibly degenerate
    with zero area)."""
    poly = list(verts)
    for o, u in (((xlo, 0), (0, -1)), ((xhi, 0), (0, 1)),
                 ((0, ylo), (1, 0)), ((0, yhi), (-1, 0))):
        if not poly:
            return []
        poly = clip_half_plane(poly, o, u)
    return poly


def polygon_area(verts) -> Fraction:
    """Signed area (positive for ccw), exact."""
    s = Fraction(0)
    n = len(verts)
    for i in range(n):
        s += cross(verts[i], verts[(i + 1) % n])
    return s / 2

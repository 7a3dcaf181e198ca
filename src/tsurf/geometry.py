"""Exact planar primitives: integer direction vectors, predicates, clipping.

All incidence and ordering decisions in the library reduce to sign tests on
rational (usually integer) cross and dot products. Directions are stored as
coprime integer pairs so the hot predicates run on machine ints. A wedge of
directions is an integer ray tuple (a, ia, b, ib), kept in `unfold`.
"""

from __future__ import annotations

import math
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


def polygon_area(verts) -> Fraction:
    """Signed area (positive for ccw), exact."""
    return Fraction(sum(cross(verts[i - 1], verts[i])
                        for i in range(len(verts)))) / 2

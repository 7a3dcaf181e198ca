"""Saddle connections by corner unfolding, exact ray tracing, cone angles.

The unfolding develops a cone corner at the origin and pushes a direction
wedge through edge gluings into translated polygon copies. Because all
transition maps are translations, a direction vector means the same thing
in every chart, so angular bookkeeping reduces to integer cross/dot signs
and saddle connections are found with exact holonomy. The kernel carries
wedges as integer ray tuples on polygons scaled to integer vertices.

The set of saddle connections is closed under reversal: the connection
with holonomy q, read from its end, is one with holonomy -q. So each
sector is developed only where it meets the half-open upper half-plane,
and every connection found there is listed with its reverse; the
enumeration also returns that pairing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import InvalidParams
from .geometry import (
    Wedge,
    ccw_sort_key,
    cross,
    dot,
    neg,
    norm_dir,
    norm_sq,
    point_in_convex,
    same_dir,
    second_half,
    sub,
    wedge_intersect,
)
from .rational import parse_rational
from .surface import TranslationSurface


@dataclass(frozen=True)
class ConeDirection:
    """A direction at a cone point: angular sector index plus the direction
    vector (coprime integers) lying weakly inside that sector."""

    cone_id: int
    slot: int
    vec: tuple[int, int]


def cone_direction(S: TranslationSurface, cone_id: int, slot: int, vec) -> ConeDirection:
    """Validated constructor; `vec` must lie weakly in the slot's sector."""
    d = norm_dir(vec)
    r1, r2 = S.star_rays[cone_id][slot]
    if not Wedge(r1, True, r2, True).contains(d):
        raise InvalidParams(
            f"direction {d} is outside sector {slot} of cone {cone_id}"
        )
    return ConeDirection(cone_id, slot, d)


def opposite_sectors(S: TranslationSurface, d: ConeDirection) -> list[int]:
    """Sectors holding the direction opposite to d, in the ccw order met
    walking around the cone from d. A direction lies in exactly one half-open
    sector per full turn, so there is one per turn: the first at angle pi
    from d, the last at angle 2*pi*(k+1) - pi. Per turn, the sector is the
    last one whose first ray is not past the direction in the exact
    (half-turn, ray) order of `S.star_half_turns`, found by bisection."""
    rays = S.star_rays[d.cone_id]
    half_turns = S.star_half_turns[d.cone_id]
    opposite = (-d.vec[0], -d.vec[1])
    slots = []
    for h in range(second_half(rays[0][0], opposite),
                   2 * S.cone_points[d.cone_id].k + 2, 2):
        # first rays in half-turn h share a half-plane with the direction,
        # so a cross-product sign orders them against it
        lo, hi = bisect_left(half_turns, h), bisect_right(half_turns, h)
        while lo < hi:
            mid = (lo + hi) // 2
            if cross(rays[mid][0], opposite) < 0:
                hi = mid
            else:
                lo = mid + 1
        slots.append(lo - 1)
    i = bisect_left(slots, d.slot)
    return slots[i:] + slots[:i]


# ----------------------------------------------------------------------------
# Ray tracing


@dataclass(frozen=True)
class TracePoint:
    polygon: int
    position: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class TraceResult:
    """Either an endpoint (budget exhausted) or a cone-point hit.

    consumed_length_sq is exact for the point actually returned; when the
    stopping length is irrational the endpoint is a rational point on the
    ray at most one float ulp short of the exact stop.
    """

    end: TracePoint | None
    hit_cone: int | None
    consumed_length_sq: Fraction
    # Sub-segments (polygon, start, end) traversed, for exact clipping.
    segments: tuple[tuple[int, tuple, tuple], ...]

    @property
    def hit_singularity(self) -> bool:
        return self.hit_cone is not None


def trace_ray(S: TranslationSurface, start: TracePoint, direction, len_sq_budget) -> TraceResult:
    """Follow a straight geodesic from `start` with squared-length budget.

    All crossing and stopping decisions are exact rational sign tests.
    Regular marked vertices are passed straight through; hitting a cone
    point stops the trace and reports it.
    """
    d = (parse_rational(direction[0]), parse_rational(direction[1]))
    if d == (0, 0):
        raise InvalidParams("zero direction")
    B = parse_rational(len_sq_budget)
    if B < 0:
        raise InvalidParams("negative budget")
    pos = (parse_rational(start.position[0]), parse_rational(start.position[1]))
    p = start.polygon
    if point_in_convex(S.polygons[p], pos) < 0:
        raise InvalidParams(f"start {pos} is outside polygon {p}")

    dd = Fraction(norm_sq(d))
    segments: list[tuple[int, tuple, tuple]] = []
    tau = Fraction(0)  # accumulated ray parameter; length = tau * sqrt(dd)
    if B == 0:
        return TraceResult(TracePoint(p, pos), None, Fraction(0), ())

    while True:
        verts = S.polygons[p]
        n = len(verts)
        t_exit = None
        for e in range(n):
            a, b = verts[e], verts[(e + 1) % n]
            evec = sub(b, a)
            den = cross(d, evec)
            if den == 0:
                continue  # parallel; exits along this line happen at vertices
            t = Fraction(cross(sub(a, pos), evec), den)
            if t <= 0:
                continue
            # Crossing point must lie within the edge's span.
            x = (pos[0] + t * d[0], pos[1] + t * d[1])
            if dot(sub(x, a), sub(x, b)) > 0:
                continue
            if t_exit is None or t < t_exit:
                t_exit = t
        assert t_exit is not None, "ray failed to exit a convex polygon"

        # A ray running along an edge line can reach a flat cone vertex with
        # no transversal crossing; the nearest collinear cone vertex ahead
        # of us wins over the edge exit.
        t_cone = None
        cone_vi = None
        for vi, vv in enumerate(verts):
            rel = sub(vv, pos)
            if rel == (0, 0) or (p, vi) not in S.corner_cone:
                continue
            if cross(d, rel) == 0 and dot(d, rel) > 0:
                t_v = rel[0] / d[0] if d[0] != 0 else rel[1] / d[1]
                if t_v < t_exit and (t_cone is None or t_v < t_cone):
                    t_cone, cone_vi = t_v, vi
        if t_cone is not None:
            t_exit = t_cone

        tau_new = tau + t_exit
        if tau_new * tau_new * dd > B:
            # Budget runs out inside this polygon.
            t_hat = _stop_param(B, dd, tau, tau_new)
            endpos = (pos[0] + (t_hat - tau) * d[0], pos[1] + (t_hat - tau) * d[1])
            segments.append((p, pos, endpos))
            return TraceResult(TracePoint(p, endpos), None, t_hat * t_hat * dd,
                               tuple(segments))

        x = (pos[0] + t_exit * d[0], pos[1] + t_exit * d[1])
        segments.append((p, pos, x))
        vhit = None
        for vi, vv in enumerate(verts):
            if vv == x:
                vhit = vi
                break
        if vhit is not None:
            corner = (p, vhit)
            if corner in S.corner_cone:
                cone_id = S.corner_cone[corner][0]
                return TraceResult(None, cone_id, tau_new * tau_new * dd,
                                   tuple(segments))
            # Regular marked point: continue straight through its star.
            ci, _ = S.corner_regular[corner]
            p, pos = _star_continue(S, ci, d)
            tau = tau_new
            continue
        # Transversal edge crossing: find the edge containing x strictly.
        exit_edge = None
        for e in range(n):
            a, b = verts[e], verts[(e + 1) % n]
            if cross(sub(b, a), sub(x, a)) == 0 and dot(sub(x, a), sub(x, b)) < 0:
                exit_edge = e
                break
        assert exit_edge is not None
        p2, e2 = S.partner((p, exit_edge))
        a = verts[exit_edge]
        evec = S.edge_vector(p, exit_edge)
        # Param of x along the edge, via the larger component.
        if evec[0] != 0:
            s = (x[0] - a[0]) / evec[0]
        else:
            s = (x[1] - a[1]) / evec[1]
        poly2 = S.polygons[p2]
        a2 = poly2[e2]
        b2 = poly2[(e2 + 1) % len(poly2)]
        # Edge e maps onto the partner reversed: param s from a lands at
        # param s from b2 toward a2.
        pos = (b2[0] + s * (a2[0] - b2[0]), b2[1] + s * (a2[1] - b2[1]))
        p = p2
        tau = tau_new


def _stop_param(B: Fraction, dd: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    """Largest convenient rational t in [lo, hi] with t*t*dd <= B; exact when
    B/dd is a perfect rational square."""
    target = B / dd
    num, den = target.numerator, target.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    t = Fraction(math.sqrt(num / den))
    while t * t > target:
        t = Fraction(math.nextafter(float(t), 0.0))
    if t < lo:
        t = lo
    if t > hi:
        t = hi
    return t


def _star_continue(S: TranslationSurface, class_idx: int, d):
    """Pick the corner of a regular vertex star whose sector contains d
    (half-open convention: the outgoing-edge boundary belongs to the
    sector), and return (polygon, vertex position) to continue from."""
    nd = norm_dir(d)
    for (p, v) in S.regular_classes[class_idx]:
        r1, r2 = S.corner_rays(p, v)
        if Wedge(r1, True, r2, False).contains(nd):
            return p, S.polygons[p][v]
    raise AssertionError("direction not contained in any star sector")


# ----------------------------------------------------------------------------
# Saddle connection enumeration


@dataclass(frozen=True)
class SaddleConnection:
    """Oriented saddle connection with exact holonomy.

    length is the correctly rounded float sqrt of length_sq.
    """

    id: int
    start: int
    end: int
    holonomy: tuple[Fraction, Fraction]
    length_sq: Fraction
    length: float
    out_dir: ConeDirection
    back_dir: ConeDirection


def _sqrt_correctly_rounded(x: Fraction) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(x.numerator) / Decimal(x.denominator)).sqrt())


# The half-open upper half-plane: of every direction and its reverse, it
# holds exactly one.
_UPPER = Wedge((1, 0), True, (-1, 0), False)


def integer_polygons(S: TranslationSurface) -> tuple[int, tuple]:
    """The least common denominator D of the vertex coordinates, and every
    polygon scaled by D to integer vertex tuples. Developing on these keeps
    every cross and dot product in machine-sized ints."""
    D = 1
    for poly in S.polygons:
        for x, y in poly:
            D = math.lcm(D, x.denominator, y.denominator)
    return D, tuple(tuple((int(x * D), int(y * D)) for x, y in poly)
                    for poly in S.polygons)


def _split(w, hits) -> list:
    """The wedge w = (a, ia, b, ib) split at the hit directions, each split
    direction excluded from every piece."""
    uniq = []
    for h in hits:
        if h[0] not in uniq:  # hit directions are coprime
            uniq.append(h[0])
    if len(uniq) > 1:
        uniq.sort(key=ccw_sort_key)
    pieces = []
    a, ia = w[0], w[1]
    for d in uniq:
        pieces.append((a, ia, d, False))
        a, ia = d, False
    pieces.append((a, ia, w[2], w[3]))
    # a zero-angle piece is empty unless it holds both of its rays
    return [(a, ia, b, ib) for a, ia, b, ib in pieces
            if ia and ib or a[0] * b[1] != a[1] * b[0]
            or a[0] * b[0] + a[1] * b[1] < 0]


def _meet(piece, x1, y1, x2, y2):
    """The wedge piece = (a, ia, b, ib) of angle <= pi intersected with the
    span from (x1, y1) (included) ccw to (x2, y2) (excluded), an angle in
    (0, pi); None when empty. As `geometry.wedge_intersect`, on unnormalized
    rays."""
    (ax, ay), ia, (bx, by), ib = piece
    a_1 = ax * y1 - ay * x1  # cross(a, E1)
    a_2 = ax * y2 - ay * x2  # cross(a, E2)
    b_1 = x1 * by - y1 * bx  # cross(E1, b)
    b_2 = x2 * by - y2 * bx  # cross(E2, b)
    # first ray: the piece's when it runs along E1 or the span holds it,
    # E1 when the piece holds E1
    if a_1 == 0 and ax * x1 + ay * y1 > 0:
        cx, cy, ic = ax, ay, ia
    elif ib if b_1 == 0 and x1 * bx + y1 * by > 0 else a_1 > 0 and b_1 > 0:
        cx, cy, ic = x1, y1, True
    elif a_1 < 0 and a_2 > 0:
        cx, cy, ic = ax, ay, ia
    else:
        return None
    # last ray: likewise with E2, which the span leaves out
    if b_2 == 0 and x2 * bx + y2 * by > 0:
        ex, ey, ie = bx, by, False
    elif ia if a_2 == 0 and ax * x2 + ay * y2 > 0 else a_2 > 0 and b_2 > 0:
        ex, ey, ie = x2, y2, False
    elif b_1 == 0 and x1 * bx + y1 * by > 0 or b_1 > 0 and b_2 < 0:
        ex, ey, ie = bx, by, ib
    else:
        return None
    c = cx * ey - cy * ex
    if c < 0 or c == 0 and (cx * ex + cy * ey < 0 or not (ic and ie)):
        return None
    return (cx, cy), ic, (ex, ey), ie


def unfold_wedge(S: TranslationSurface, polys, B, p: int, t, w):
    """Develop the rays of wedge w from the origin through the gluings and
    yield every polygon copy they reach within squared length B, starting
    from polygon p translated by t. A ray leaves a copy through an edge that
    faces away from the origin and enters the partner edge's polygon; a
    cone-point lift stops the rays in exactly its direction, regular lifts
    stop nothing. All decisions are exact sign tests on the integer
    coordinates of `polys` (from `integer_polygons`).

    Wedges are tuples (a, ia, b, ib): the sector from ray a ccw to ray b,
    of angle <= pi, with a flag per ray saying whether it belongs. The rays
    are integer vectors, not normalized. Each copy is yielded as (polygon,
    translation, verts, wedge, hits): verts are the polygon's vertices plus
    the translation, wedge the directions that reach the copy, and hits
    the cone-point lifts in the wedge within B as (coprime direction,
    length_sq, vertex, vertex index)."""
    cone_vertices, partners = S.cone_vertices, S.edge_partners
    stack = [(p, t, w)]
    while stack:
        p, t, w = stack.pop()
        tx, ty = t
        verts = [(x + tx, y + ty) for x, y in polys[p]]
        (ax, ay), ia, (bx, by), ib = w
        hits = []
        for vi in cone_vertices[p]:
            q = qx, qy = verts[vi]
            dsq = qx * qx + qy * qy
            if dsq > B or dsq == 0:
                continue
            ca = ax * qy - ay * qx
            if ca == 0 and ax * qx + ay * qy > 0:
                inside = ia
            else:
                cb = qx * by - qy * bx
                if cb == 0 and qx * bx + qy * by > 0:
                    inside = ib
                else:
                    inside = ca > 0 and cb > 0
            if inside:
                g = math.gcd(qx, qy)
                hits.append(((qx // g, qy // g), dsq, q, vi))
        yield p, t, verts, w, hits
        pieces = _split(w, hits) if hits else (w,)

        x2, y2 = verts[0]
        edges = partners[p]
        for e in range(len(verts) - 1, -1, -1):
            x1, y1 = verts[e]
            c = x1 * y2 - y1 * x2
            # rays leave through the edges that face away from the origin
            # and come within B of it
            if c > 0:
                dx, dy = x2 - x1, y2 - y1
                s = -(x1 * dx + y1 * dy)
                dd = dx * dx + dy * dy
                if (x1 * x1 + y1 * y1 <= B if s <= 0 else
                        x2 * x2 + y2 * y2 <= B if s >= dd else c * c <= B * dd):
                    p2, e2 = edges[e]
                    ox, oy = polys[p2][e2]
                    t2 = (x2 - ox, y2 - oy)
                    for piece in reversed(pieces):
                        iw = _meet(piece, x1, y1, x2, y2)
                        if iw is not None:
                            stack.append((p2, t2, iw))
            x2, y2 = x1, y1


class Saddles(list):
    """The saddle connections in canonical order, with `reversal[i]` the id
    of the reverse of connection i (holonomy negated, ends swapped)."""

    reversal: list[int]


def enumerate_saddle_connections(S: TranslationSurface, max_length_sq) -> Saddles:
    """All saddle connections with length_sq <= max_length_sq, in canonical
    order (length_sq, holonomy lexicographic, start cone, out sector).

    The set is closed under reversal, so only the out-directions in the
    half-open upper half-plane are developed; each connection found there
    is listed with its reverse, which arrives along the same segment:
    holonomy -q, from the cone and sector where the connection lands back
    to its own start sector.

    Enumerating with a larger budget extends the list without renumbering:
    ids are stable under budget growth.
    """
    B = parse_rational(max_length_sq)
    if B < 0:
        raise InvalidParams(f"negative length budget {B}")
    D, polys = integer_polygons(S)
    B = B * D * D
    if B.denominator == 1:
        B = B.numerator
    # (length_sq, q, start, out slot, end, back slot, raw index): a
    # connection at an even raw index, its reverse right after it
    raw: list[tuple] = []
    for cone in S.cone_points:
        for slot, (p, v) in enumerate(cone.star):
            r1, r2 = S.star_rays[cone.id][slot]
            w = wedge_intersect(Wedge(r1, True, r2, False), _UPPER)
            if w is None:
                continue
            copies = unfold_wedge(S, polys, B, p, neg(polys[p][v]),
                                  (w.a, w.ia, w.b, w.ib))
            for poly, _, _, _, hits in copies:
                # A lift hides any farther lift in exactly its own direction.
                nearest = {}
                for nd, dsq, q, vi in hits:
                    if nd not in nearest or dsq < nearest[nd][0]:
                        nearest[nd] = (dsq, q, vi)
                for dsq, (qx, qy), vi in nearest.values():
                    end, back = _landing_direction(S, (poly, vi), (-qx, -qy))
                    i = len(raw)
                    raw.append((dsq, qx, qy, cone.id, slot, end, back.slot, i))
                    raw.append((dsq, -qx, -qy, end, back.slot, cone.id, slot,
                                i + 1))
    # the first five fields tell every two connections apart
    raw.sort()
    ids = [0] * len(raw)
    for i, r in enumerate(raw):
        ids[r[-1]] = i
    out = Saddles()
    out.reversal = [ids[r[-1] ^ 1] for r in raw]
    lengths: dict = {}
    for i, (dsq, qx, qy, start, slot, end, back, _) in enumerate(raw):
        if dsq not in lengths:
            length_sq = Fraction(dsq, D * D)
            lengths[dsq] = length_sq, _sqrt_correctly_rounded(length_sq)
        length_sq, length = lengths[dsq]
        g = math.gcd(qx, qy)
        nx, ny = qx // g, qy // g
        out.append(
            SaddleConnection(
                id=i,
                start=start,
                end=end,
                holonomy=(Fraction(qx, D), Fraction(qy, D)),
                length_sq=length_sq,
                length=length,
                out_dir=ConeDirection(start, slot, (nx, ny)),
                back_dir=ConeDirection(end, back, (-nx, -ny)),
            )
        )
    return out


def _landing_direction(S: TranslationSurface, corner, back_vec) -> tuple[int, ConeDirection]:
    """Canonical arrival direction at the endpoint corner: if the back
    vector sits on the ccw boundary ray of the corner's sector it belongs to
    the next sector (half-open convention)."""
    cone_id, slot = S.corner_cone[corner]
    bd = norm_dir(back_vec)
    r2 = S.star_rays[cone_id][slot][1]
    if same_dir(bd, r2):
        slot = (slot + 1) % len(S.star_rays[cone_id])
    return cone_id, ConeDirection(cone_id, slot, bd)


def saddles_to_csv(saddles) -> str:
    """CSV: id,start,end,hx,hy,length,out_slot,back_slot (12 significant
    digits for the float length; holonomy exact)."""
    lines = ["id,start,end,hx,hy,length,out_slot,back_slot"]
    for s in saddles:
        hx = s.holonomy[0]
        hy = s.holonomy[1]
        lines.append(
            f"{s.id},{s.start},{s.end},{hx},{hy},{s.length:.12g},"
            f"{s.out_dir.slot},{s.back_dir.slot}"
        )
    return "\n".join(lines) + "\n"

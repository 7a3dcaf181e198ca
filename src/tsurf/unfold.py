"""Saddle connections by corner unfolding, exact ray tracing, cone angles.

The unfolding develops a cone corner at the origin and pushes a direction
wedge through edge gluings into translated polygon copies. Because all
transition maps are translations, a direction vector means the same thing
in every chart, so angular bookkeeping reduces to integer cross/dot signs
and saddle connections are found with exact holonomy.
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
    add,
    cross,
    dot,
    neg,
    norm_dir,
    norm_sq,
    point_in_convex,
    same_dir,
    second_half,
    segment_within,
    sub,
    wedge_intersect,
    wedge_split,
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


def unfold_wedge(S: TranslationSurface, polys, B, p: int, t, w: Wedge):
    """Develop the rays of wedge w from the origin through the gluings and
    yield every polygon copy they reach within squared length B, starting
    from polygon p translated by t. A ray leaves a copy through an edge that
    faces away from the origin and enters the partner edge's polygon; a
    cone-point lift stops the rays in exactly its direction, regular lifts
    stop nothing. All decisions are exact sign tests on the coordinates of
    `polys` (integers from `integer_polygons`).

    Each copy is yielded as (polygon, translation, verts, wedge, hits,
    pieces): verts are the polygon's vertices plus the translation, wedge
    the directions that reach the copy, hits the cone-point lifts in the
    wedge within B as (direction, length_sq, vertex, vertex index), and
    pieces the wedge split at their directions, which develops on."""
    stack = [(p, t, w)]
    while stack:
        p, t, w = stack.pop()
        verts = [add(vv, t) for vv in polys[p]]
        hits = []
        for vi, q in enumerate(verts):
            if (p, vi) not in S.corner_cone or q == (0, 0):
                continue
            dsq = norm_sq(q)
            if dsq > B:
                continue
            nd = norm_dir(q)
            if w.contains(nd):
                hits.append((nd, dsq, q, vi))
        pieces = wedge_split(w, [nd for nd, _, _, _ in hits]) if hits else [w]
        yield p, t, verts, w, hits, pieces

        n = len(verts)
        for e in reversed(range(n)):
            E1, E2 = verts[e], verts[(e + 1) % n]
            if cross(E1, E2) <= 0:
                continue  # front-facing or edge-on as seen from the origin
            if not segment_within(E1, E2, B):
                continue
            span = Wedge(norm_dir(E1), True, norm_dir(E2), False)
            p2, e2 = S.partner((p, e))
            t2 = sub(E2, polys[p2][e2])
            for piece in reversed(pieces):
                iw = wedge_intersect(piece, span)
                if iw is not None:
                    stack.append((p2, t2, iw))


def enumerate_saddle_connections(S: TranslationSurface, max_length_sq) -> list[SaddleConnection]:
    """All saddle connections with length_sq <= max_length_sq, in canonical
    order (length_sq, holonomy lexicographic, start cone, out sector).

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
    raw: list[tuple] = []
    for cone in S.cone_points:
        for slot, (p, v) in enumerate(cone.star):
            r1, r2 = S.star_rays[cone.id][slot]
            sector = Wedge(r1, True, r2, False)
            copies = unfold_wedge(S, polys, B, p, neg(polys[p][v]), sector)
            for poly, _, _, _, hits, _ in copies:
                # A lift hides any farther lift in exactly its own direction.
                nearest = {}
                for nd, dsq, q, vi in hits:
                    if nd not in nearest or dsq < nearest[nd][0]:
                        nearest[nd] = (dsq, q, vi)
                for dsq, q, vi in nearest.values():
                    raw.append((cone.id, slot, q, dsq, (poly, vi)))

    raw.sort(key=lambda r: (r[3], r[2][0], r[2][1], r[0], r[1]))
    out = []
    for i, (cone_id, slot, q, dsq, endcorner) in enumerate(raw):
        end_cone, back = _landing_direction(S, endcorner, neg(q))
        length_sq = Fraction(dsq, D * D)
        out.append(
            SaddleConnection(
                id=i,
                start=cone_id,
                end=end_cone,
                holonomy=(Fraction(q[0], D), Fraction(q[1], D)),
                length_sq=length_sq,
                length=_sqrt_correctly_rounded(length_sq),
                out_dir=ConeDirection(cone_id, slot, norm_dir(q)),
                back_dir=back,
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


def reversal_permutation(saddles) -> list[int]:
    """Index of each connection's reversal; enumeration is closed under it."""
    index = {}
    for s in saddles:
        index[(s.start, s.out_dir.slot, s.holonomy)] = s.id
    perm = []
    for s in saddles:
        key = (s.end, s.back_dir.slot, (-s.holonomy[0], -s.holonomy[1]))
        if key not in index:
            raise AssertionError(f"reversal of saddle {s.id} missing from the set")
        perm.append(index[key])
    return perm


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

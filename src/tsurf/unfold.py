"""Saddle connections and ray traces by corner unfolding, cone angles.

The unfolding develops a cone corner at the origin and pushes a direction
wedge through edge gluings into translated polygon copies. Because all
transition maps are translations, a direction vector means the same thing
in every chart, so angular bookkeeping reduces to integer cross/dot signs
and saddle connections are found with exact holonomy. The kernel carries
wedges as integer ray tuples on polygons scaled to integer vertices. A ray
trace is the same development of one direction from its start point: the
copies it yields are the charts the ray crosses.

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
from fractions import Fraction

from .errors import InvalidParams
from .geometry import (
    cross,
    dot,
    neg,
    norm_dir,
    norm_sq,
    same_dir,
    second_half,
    sub,
)
from .rational import (parse_int, parse_length, parse_rational, refine_roots,
                       rounded)
from .surface import TranslationSurface


@dataclass(frozen=True, slots=True)
class ConeDirection:
    """A direction at a cone point: angular sector index plus the direction
    vector (coprime integers) lying weakly inside that sector."""

    cone_id: int
    slot: int
    vec: tuple[int, int]


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

    The ray is developed from the start point as the zero-angle wedge of
    `unfold_wedge`: the copies it yields are the charts it crosses, and
    every crossing and stopping decision is an exact sign test. Regular
    vertices are passed straight through; hitting a cone point stops the
    trace. A boundary start whose direction leaves polygon p continues
    across: into the partner edge at the glued point, or into the first
    corner ccw around the vertex whose half-open sector holds it.
    """
    d = (parse_rational(direction[0]), parse_rational(direction[1]))
    if d == (0, 0):
        raise InvalidParams("zero direction")
    B = parse_length(len_sq_budget, InvalidParams)
    p = parse_int(start.polygon, len(S.polygons), "start polygon")
    pos = (parse_rational(start.position[0]), parse_rational(start.position[1]))
    verts = S.polygons[p]
    edges = [(a, sub(b, a)) for a, b in zip(verts, verts[1:] + verts[:1])]
    sides = [cross(ev, sub(pos, a)) for a, ev in edges]
    if min(sides) < 0:
        raise InvalidParams(f"start {pos} is outside polygon {p}")
    if B == 0:
        return TraceResult(TracePoint(p, pos), None, Fraction(0), ())
    nd = norm_dir(d)
    if any(s == 0 and cross(ev, d) < 0 for s, (_, ev) in zip(sides, edges)):
        # The direction leaves polygon p from its boundary.
        if pos in verts:
            p, v = _star_turn(S, p, verts.index(pos), nd)
            pos = S.polygons[p][v]
        else:
            e = next(e for e, (a, ev) in enumerate(edges)
                     if sides[e] == 0 and 0 < dot(sub(pos, a), ev) < norm_sq(ev))
            a = verts[e]
            p, e = S.partner((p, e))
            b = S.polygons[p][(e + 1) % len(S.polygons[p])]
            pos = (pos[0] - a[0] + b[0], pos[1] - a[1] + b[1])

    # Scale once more so that the start is an integer point.
    D, polys = integer_polygons(S)
    m = math.lcm(*((c * D).denominator for c in pos))
    u = D * m
    polys = tuple(tuple((x * m, y * m) for x, y in poly) for poly in polys)
    q = qx, qy = nd
    # the ray parameter along d per unit along q
    lam = qx / (d[0] * u) if qx else qy / (d[1] * u)
    dd = Fraction(norm_sq(d))
    # The development runs on an integer budget at least B; every stop is
    # decided again on the exact B.
    Bs = -(-B.numerator * u * u // B.denominator)
    reach = math.isqrt(Bs // norm_sq(q)) + 1
    origin, tau0 = (int(pos[0] * u), int(pos[1] * u)), Fraction(0)
    segments: list[tuple[int, tuple, tuple]] = []
    while True:
        copies = unfold_wedge(S, polys, Bs, p, neg(origin), (q, True, q, True))
        for poly, (tx, ty), verts, _, hits in copies:
            span = _clip_ray(verts, qx, qy, reach)
            if span is None:
                continue  # a copy met only at a regular vertex
            lo, hi = (tau0 + Fraction(*t) * lam for t in span)
            if hits:
                _, (hx, hy), vi = min(h[1:] for h in hits)
                hi = tau0 + math.gcd(hx, hy) * lam
            # positions in polygon `poly`: tau * d - (ox, oy)
            ox, oy = tau0 * d[0] + Fraction(tx, u), tau0 * d[1] + Fraction(ty, u)
            entry = (lo * d[0] - ox, lo * d[1] - oy)
            if hi * hi * dd > B:
                t = _stop_param(B, dd, lo, hi)
                end = (t * d[0] - ox, t * d[1] - oy)
                segments.append((poly, entry, end))
                return TraceResult(TracePoint(poly, end), None, t * t * dd,
                                   tuple(segments))
            segments.append((poly, entry, (hi * d[0] - ox, hi * d[1] - oy)))
            if hits:
                return TraceResult(None, S.corner_cone[(poly, vi)][0],
                                   hi * hi * dd, tuple(segments))
        # A development ends without a stop only where a ray starting on an
        # edge line runs back along the edge into a regular vertex: go on
        # from the corner of its star that holds the direction.
        poly, _, end = segments[-1]
        p, v = _star_turn(S, poly, S.polygons[poly].index(end), nd)
        origin, tau0 = polys[p][v], hi


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
    return min(max(t, lo), hi)


def _star_turn(S: TranslationSurface, p: int, v: int, nd) -> tuple[int, int]:
    """The first corner after (p, v), turning ccw around their vertex, whose
    half-open sector (outgoing edge included) holds the direction nd."""
    while True:
        p, v = S.partner((p, (v - 1) % len(S.polygons[p])))
        r1, r2 = S.corner_rays(p, v)
        if _holds((r1, True, r2, False), *nd):
            return p, v


def _clip_ray(verts, qx, qy, reach):
    """The parameters [lo, hi] (as numerator, denominator pairs) of the part
    of the segment tau * (qx, qy), 0 <= tau <= reach, inside a convex ccw
    polygon, or None when that part is at most a point. A point P is inside
    when cross(E2 - E1, P - E1) >= 0 for every edge E1 E2."""
    lo, hi = (0, 1), (reach, 1)
    m = len(verts)
    for k in range(m):
        (x1, y1), (x2, y2) = verts[k], verts[(k + 1) % m]
        ex, ey = x2 - x1, y2 - y1
        c = ex * qy - ey * qx
        h = ex * y1 - ey * x1
        # Inside this edge's half-plane: tau * c >= h.
        if c > 0:
            if h * lo[1] > lo[0] * c:
                lo = (h, c)
        elif c < 0:
            if -h * hi[1] < hi[0] * -c:
                hi = (-h, -c)
        elif h > 0:
            return None
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        return None
    return lo, hi


# ----------------------------------------------------------------------------
# Saddle connection enumeration


@dataclass(frozen=True, slots=True)
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
    """sqrt(x) = sqrt(n) / den with n = num * den, correctly rounded: exact
    when n is a square, else between integer square roots (irrational)."""
    n, den = x.numerator * x.denominator, x.denominator
    r = math.isqrt(n)
    return float(Fraction(r, den)) if r * r == n else refine_roots([n], den, rounded)


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


def _holds(w, qx, qy) -> bool:
    """Whether the wedge w = (a, ia, b, ib) holds the direction (qx, qy):
    along a ray, as that ray's flag says, or strictly between the rays."""
    (ax, ay), ia, (bx, by), ib = w
    ca = ax * qy - ay * qx
    if ca == 0 and ax * qx + ay * qy > 0:
        return ia
    cb = qx * by - qy * bx
    if cb == 0 and qx * bx + qy * by > 0:
        return ib
    return ca > 0 and cb > 0


# Below this squared norm of every vector, float angles order integer
# directions exactly: cross and dot products convert to floats exactly,
# `math.atan2` errs by a few units of 2**-51 at most, and two distinct
# directions u and v lie at least 1/(|u||v|) > 2**-40 apart.
_FLOAT_KEY_SQ = 1 << 40


def angle_key(vectors):
    """A function (r, v) -> sort key of the ccw angle from r to v, for r
    and v among the integer `vectors` and v at an angle in [0, pi] from r.
    Equal angles get equal keys. The keys are `math.atan2` of the exact
    cross and dot products while every vector is shorter than
    sqrt(_FLOAT_KEY_SQ), and (quadrant, `Fraction` slope) past that."""
    if all(x * x + y * y < _FLOAT_KEY_SQ for x, y in vectors):
        return _float_angle
    return _exact_angle


def _float_angle(r, v):
    return math.atan2(r[0] * v[1] - r[1] * v[0], r[0] * v[0] + r[1] * v[1])


def _exact_angle(r, v):
    # angles in [0, pi/2) by c/d, in [pi/2, pi) by -d/c, then pi
    c, d = r[0] * v[1] - r[1] * v[0], r[0] * v[0] + r[1] * v[1]
    return ((0, Fraction(c, d)) if d > 0 else
            (1, Fraction(-d, c)) if c > 0 else (2, 0))


def _split(w, hits) -> list:
    """The wedge w = (a, ia, b, ib) split at the hit directions, each split
    direction excluded from every piece."""
    uniq = []
    for h in hits:
        if h[0] not in uniq:  # hit directions are coprime
            uniq.append(h[0])
    if len(uniq) > 1:
        key = angle_key([w[0], *uniq])
        keys = [key(w[0], d) for d in uniq]
        uniq = [d for _, d in sorted(zip(keys, uniq))]
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
    (0, pi); None when empty. The result's rays are among the four given,
    unnormalized, with the flags they carry there."""
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

    A wedge is a tuple (a, ia, b, ib): the sector from ray a ccw to ray b,
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
            # `_holds(w, qx, qy)` inline: a call per lift slows the
            # development by a few percent
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
    B = parse_length(max_length_sq, InvalidParams)
    D, polys = integer_polygons(S)
    B = B * D * D
    if B.denominator == 1:
        B = B.numerator
    # (length_sq, q, start, out slot, end, back slot, raw index): a
    # connection at an even raw index, its reverse right after it
    raw: list[tuple] = []
    for cone in S.cone_points:
        for slot, (p, v) in enumerate(cone.star):
            # the sector [r1, r2), of angle <= pi, clipped to the half-open
            # upper half-plane: of every direction and its reverse, that
            # holds exactly one
            r1, r2 = S.star_rays[cone.id][slot]
            if r1[1] > 0 or r1[1] == 0 and r1[0] > 0:
                w = (r1, True, r2 if r2[1] >= 0 else (-1, 0), False)
            elif r2[1] > 0:
                w = ((1, 0), True, r2, False)
            else:
                continue
            copies = unfold_wedge(S, polys, B, p, neg(polys[p][v]), w)
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

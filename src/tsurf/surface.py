"""Translation surfaces from glued convex polygons.

A surface is a list of convex counterclockwise rational polygons plus a
perfect matching of their edges; matched edges must be exact negatives of
each other (gluing by translation only). Identified vertices with total
angle 2*pi*(k+1), k >= 1, are the cone points; total-angle-2*pi vertices are
regular marked points and are dropped. Every surface here must have at
least one cone point.

Angles are counted in exact half-turns, never as floats: one ccw walk
around each vertex class gives its star of corners, the half-turn of each
sector's first ray and k, and the polygon check counts the half-turns of
the edge directions the same way.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    Disconnected,
    EdgeMismatch,
    InvalidParams,
    NonConvexPolygon,
    NoSingularities,
    ParseError,
)
from .geometry import cross, norm_dir, polygon_area, second_half, sub
from .rational import format_rational, parse_rational

# An edge reference: (polygon index, edge index); edge i runs from vertex i
# to vertex i+1 (mod n).
EdgeRef = tuple[int, int]


@dataclass(frozen=True)
class ConePoint:
    """A cone point of angle 2*pi*(k+1), k >= 1.

    star: the corners (polygon, vertex) around the point in counterclockwise
    order, starting at the lexicographically smallest corner. Slot i of the
    cone is the i-th corner's angular sector.
    """

    id: int
    k: int
    star: tuple[tuple[int, int], ...]


class TranslationSurface:
    """Validated surface. Construct via load_surface / builtin_surface."""

    def __init__(self, polygons, gluing_pairs):
        self.polygons: tuple[tuple[tuple[Fraction, Fraction], ...], ...] = tuple(
            tuple((Fraction(x), Fraction(y)) for x, y in poly) for poly in polygons
        )
        self._validate_polygons()
        self.gluing_pairs = tuple(
            sorted(tuple(sorted((tuple(a), tuple(b)))) for a, b in gluing_pairs)
        )
        self._partner: dict[EdgeRef, EdgeRef] = {}
        self._validate_gluings()
        self._check_connected()
        self._build_stars()

    # -- validation --------------------------------------------------------

    def _validate_polygons(self):
        if not self.polygons:
            raise ParseError("surface has no polygons")
        for pi, poly in enumerate(self.polygons):
            n = len(poly)
            if n < 3:
                raise NonConvexPolygon(f"polygon {pi} has fewer than 3 vertices")
            if len(set(poly)) != n:
                raise NonConvexPolygon(f"polygon {pi} repeats a vertex")
            # Each turn lies in [0, pi] (cross >= 0), so the edge direction
            # changes half-plane against edge 0 at most once per vertex: a
            # polygon winding w times makes 2w changes.
            first = sub(poly[1], poly[0])
            strict = changes = 0
            for i in range(n):
                a, b, c = poly[i - 1], poly[i], poly[(i + 1) % n]
                e1 = sub(b, a)
                e2 = sub(c, b)
                cr = cross(e1, e2)
                if cr < 0:
                    raise NonConvexPolygon(
                        f"polygon {pi} is not convex ccw at vertex {i}"
                    )
                if cr > 0:
                    strict += 1
                changes += second_half(first, e1) != second_half(first, e2)
            if strict < 3:
                raise NonConvexPolygon(f"polygon {pi} is degenerate (collinear)")
            if changes != 2:
                raise NonConvexPolygon(f"polygon {pi} winds more than once")

    def _validate_gluings(self):
        seen: dict[EdgeRef, tuple] = {}
        for pair in self.gluing_pairs:
            (p1, e1), (p2, e2) = pair
            for (p, e) in pair:
                if not (0 <= p < len(self.polygons)):
                    raise ParseError(f"gluing {pair} references missing polygon {p}")
                if not (0 <= e < len(self.polygons[p])):
                    raise ParseError(f"gluing {pair} references missing edge {(p, e)}")
                if (p, e) in seen:
                    raise EdgeMismatch(
                        f"edge {(p, e)} glued twice: {seen[(p, e)]} and {pair}"
                    )
                seen[(p, e)] = pair
            h1 = self.edge_vector(p1, e1)
            h2 = self.edge_vector(p2, e2)
            if h1[0] != -h2[0] or h1[1] != -h2[1]:
                raise EdgeMismatch(
                    f"pair {pair}: edge vectors {h1} and {h2} are not negatives"
                )
            self._partner[(p1, e1)] = (p2, e2)
            self._partner[(p2, e2)] = (p1, e1)
        for p, poly in enumerate(self.polygons):
            for e in range(len(poly)):
                if (p, e) not in self._partner:
                    raise EdgeMismatch(f"edge {(p, e)} is unglued")

    def _check_connected(self):
        npoly = len(self.polygons)
        seen = {0}
        stack = [0]
        while stack:
            p = stack.pop()
            for e in range(len(self.polygons[p])):
                q = self._partner[(p, e)][0]
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        if len(seen) != npoly:
            missing = sorted(set(range(npoly)) - seen)
            raise Disconnected(f"polygons {missing} are not reachable from polygon 0")

    # -- star structure ----------------------------------------------------

    def _build_stars(self):
        # One ccw walk per vertex class: rotating ccw past the incoming edge
        # (p, v-1) lands on the corner at the partner edge's start vertex.
        # Corners are taken in order, so each class starts at its least
        # corner and the classes come out by least corner. A sector spans at
        # most pi, so the first rays change half-plane against the first one
        # at most once per step: counted along the walk, that is each
        # sector's half-turn, and (half-turn, ray) orders the sectors
        # exactly; taken cyclically, angle 2*pi*(k+1) makes 2(k+1) changes.
        cones, regular = [], []
        seen = set()
        for start in ((p, v) for p, poly in enumerate(self.polygons)
                      for v in range(len(poly))):
            if start in seen:
                continue
            star, cur = [], start
            while cur not in seen:
                seen.add(cur)
                star.append(cur)
                p, v = cur
                cur = self._partner[(p, (v - 1) % len(self.polygons[p]))]
            rays = tuple(self.corner_rays(p, v) for p, v in star)
            half = [second_half(rays[0][0], r1) for r1, _ in rays]
            turns = tuple(itertools.accumulate(
                (h0 != h1 for h0, h1 in zip(half, half[1:])), initial=0))
            k = (turns[-1] + (half[-1] != half[0])) // 2 - 1
            if k:
                cones.append((tuple(star), rays, turns, k))
            else:
                regular.append(tuple(star))
        if not cones:
            raise NoSingularities(
                "every vertex is a regular 2*pi point; no cone points"
            )

        # Per cone: each slot's sector rays, precomputed for the angle
        # predicates, and the half-turns from slot 0's first ray to each
        # slot's first ray.
        stars, self.star_rays, self.star_half_turns, ks = zip(*cones)
        self.cone_points = tuple(ConePoint(id=i, k=k, star=star)
                                 for i, (star, k) in enumerate(zip(stars, ks)))
        self.regular_classes = tuple(regular)
        self.corner_cone: dict[tuple[int, int], tuple[int, int]] = {
            corner: (cone.id, slot)
            for cone in self.cone_points for slot, corner in enumerate(cone.star)}

        V = len(self.cone_points) + len(self.regular_classes)
        E = len(self.gluing_pairs)
        F = len(self.polygons)
        chi = V - E + F
        assert chi % 2 == 0, "odd Euler characteristic on a closed surface"
        self.genus = (2 - chi) // 2
        assert sum(c.k for c in self.cone_points) == 2 * self.genus - 2

        self.area: Fraction = sum(
            (polygon_area(poly) for poly in self.polygons), Fraction(0)
        )

    # -- basic queries ------------------------------------------------------

    def partner(self, edge: EdgeRef) -> EdgeRef:
        return self._partner[edge]

    @functools.cached_property
    def edge_partners(self) -> tuple[tuple[EdgeRef, ...], ...]:
        """Per polygon and edge, the edge glued to it."""
        return tuple(tuple(self._partner[(p, e)] for e in range(len(poly)))
                     for p, poly in enumerate(self.polygons))

    @functools.cached_property
    def cone_vertices(self) -> tuple[tuple[int, ...], ...]:
        """Per polygon, the indices of its vertices at cone points."""
        return tuple(tuple(v for v in range(len(poly)) if (p, v) in self.corner_cone)
                     for p, poly in enumerate(self.polygons))

    def edge_vector(self, p: int, e: int):
        poly = self.polygons[p]
        return sub(poly[(e + 1) % len(poly)], poly[e])

    def corner_rays(self, p: int, v: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Integer directions of the corner's sector: (outgoing edge,
        reversed incoming edge); the sector sweeps ccw from the first to the
        second, angle in (0, pi]."""
        poly = self.polygons[p]
        n = len(poly)
        r1 = norm_dir(sub(poly[(v + 1) % n], poly[v]))
        r2 = norm_dir(sub(poly[(v - 1) % n], poly[v]))
        return r1, r2

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "polygons": [
                [[format_rational(x), format_rational(y)] for (x, y) in poly]
                for poly in self.polygons
            ],
            "gluings": [
                [[p1, e1], [p2, e2]] for ((p1, e1), (p2, e2)) in self.gluing_pairs
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def __repr__(self):
        ks = ",".join(str(c.k) for c in self.cone_points)
        return (
            f"TranslationSurface(polygons={len(self.polygons)}, "
            f"genus={self.genus}, cone_k=[{ks}])"
        )


def load_surface(text) -> TranslationSurface:
    """Parse the JSON surface format and validate it.

    {"polygons": [[["0","0"],["1","0"],...], ...],
     "gluings": [[[0,0],[0,2]], ...]}
    Coordinates are rational strings "p/q" or "p" (decimals accepted).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "polygons" not in data or "gluings" not in data:
        raise ParseError("surface file needs 'polygons' and 'gluings' keys")
    polys = []
    try:
        for poly in data["polygons"]:
            polys.append([(parse_rational(x), parse_rational(y)) for x, y in poly])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed polygon list: {exc}") from exc
    gluings = []
    try:
        for a, b in data["gluings"]:
            gluings.append(((int(a[0]), int(a[1])), (int(b[0]), int(b[1]))))
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed gluing list: {exc}") from exc
    return TranslationSurface(polys, gluings)


def load_surface_file(path) -> TranslationSurface:
    with open(path, "rb") as fh:
        return load_surface(fh.read())


def scale_surface(surface: TranslationSurface, factor) -> TranslationSurface:
    """Scale all coordinates by a positive rational factor."""
    c = parse_rational(factor)
    if c <= 0:
        raise InvalidParams(f"scale factor must be positive, got {c}")
    polys = [[(x * c, y * c) for (x, y) in poly] for poly in surface.polygons]
    return TranslationSurface(polys, surface.gluing_pairs)


def builtin_surface(name: str, params=None) -> TranslationSurface:
    """Named example surfaces.

    lshape(p, q): horizontal arm [0,p]x[0,1] union vertical arm [0,1]x[0,q],
        opposite sides identified; p, q > 1, default (2, 2) gives three
        unit squares, one cone point with k = 2 (angle 6*pi), genus 2.
    slit_tori(c): two unit tori cross-glued along a horizontal slit
        (0,0)->(c,0), 0 < c < 1, default 1/2; two cone points with k = 1
        (angle 4*pi each), genus 2.
    """
    params = [parse_rational(x) for x in (params or [])]
    if name == "lshape":
        if not params:
            params = [Fraction(2), Fraction(2)]
        if len(params) != 2:
            raise InvalidParams("lshape takes two side lengths")
        p, q = params
        if p <= 1 or q <= 1:
            raise InvalidParams(f"lshape arms must exceed the unit square: {p}, {q}")
        one = Fraction(1)
        A = [(0, 0), (one, 0), (one, one), (0, one)]
        B = [(one, 0), (p, 0), (p, one), (one, one)]
        C = [(0, one), (one, one), (one, q), (0, q)]
        gluings = [
            ((0, 0), (2, 2)),  # A bottom <-> C top
            ((1, 0), (1, 2)),  # B bottom <-> B top
            ((0, 3), (1, 1)),  # A left <-> B right
            ((2, 3), (2, 1)),  # C left <-> C right
            ((0, 1), (1, 3)),  # A right <-> B left (interior)
            ((0, 2), (2, 0)),  # A top <-> C bottom (interior)
        ]
        return TranslationSurface([A, B, C], gluings)
    if name == "slit_tori":
        if not params:
            params = [Fraction(1, 2)]
        if len(params) != 1:
            raise InvalidParams("slit_tori takes one slit length")
        (c,) = params
        if not (0 < c < 1):
            raise InvalidParams(f"slit length must lie strictly inside (0,1): {c}")
        one = Fraction(1)
        square = [(0, 0), (c, 0), (one, 0), (one, one), (c, one), (0, one)]
        # Edges: 0 bottom-left, 1 bottom-right, 2 right, 3 top-right,
        # 4 top-left, 5 left. The slit is the bottom-left / top-left pair,
        # cross-glued between the two copies.
        gluings = [
            ((0, 1), (0, 3)),
            ((1, 1), (1, 3)),
            ((0, 2), (0, 5)),
            ((1, 2), (1, 5)),
            ((0, 0), (1, 4)),  # torus 0 slit underside <-> torus 1 top side
            ((1, 0), (0, 4)),
        ]
        return TranslationSurface([square, list(square)], gluings)
    raise InvalidParams(f"unknown builtin surface {name!r}")

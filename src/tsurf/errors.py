"""Exception types shared across the package."""


class TsurfError(Exception):
    """Base class for all library errors."""


class ParseError(TsurfError):
    """Malformed surface file or rational literal."""


class EdgeMismatch(TsurfError):
    """Gluing pairs an edge twice, leaves one unglued, or pairs edges whose
    holonomies are not exact negatives."""


class NonConvexPolygon(TsurfError):
    """Polygon is not convex and counterclockwise, or is degenerate."""


class NoSingularities(TsurfError):
    """Every identified vertex is a regular 2*pi point (e.g. the flat torus);
    the surface has no cone points to work with."""


class Disconnected(TsurfError):
    """The polygon gluing graph is not connected."""


class InvalidParams(TsurfError):
    """Bad parameters passed to a builtin surface constructor."""


class TruncationError(TsurfError):
    """A query radius exceeds the budget the concatenation graph was built
    with, so the answer would silently miss saddle connections."""


class BracketFailure(TsurfError):
    """The entropy solver could not bracket lambda(sigma) = 1, or lambda
    failed its check of decreasing in sigma."""


class EmptySCC(TsurfError):
    """The truncated graph has no strongly connected component with an edge."""


class DegenerateRadius(TsurfError):
    """A circle or ball radius is zero or negative."""

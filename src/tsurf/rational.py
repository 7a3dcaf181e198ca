"""Rational literals, the arguments of every entry point, and exact roots.

Coordinates, radii and flag values are exact rationals, written "p/q", "p"
or a decimal like "2.5" in surface files and flags. Each kind of argument
has one parser here, called by every public entry point before it compares,
indexes or allocates anything. Sums of square roots round to floats exactly
here, with no numpy, for the saddle lengths and the censuses' length keys.
"""

import contextlib
import math
import numbers
from fractions import Fraction

from .errors import DegenerateRadius, InvalidParams, ParseError

# The largest grid size; a grid builds its n * n cells per polygon in Python.
GRID_MAX = 100


def _shown(value) -> str:
    """repr(value) cut to 60 characters; an int of over 4300 digits has none."""
    try:
        return f"{value!r:.60}"
    except ValueError:
        return f"a {type(value).__name__} too large to print"


def parse_rational(text) -> Fraction:
    """Parse "p/q", an integer string, a decimal string, or a number: any
    rational but a bool (numpy integers too), or a finite float as its exact
    binary value. Raises ParseError on anything else."""
    if isinstance(text, numbers.Rational) and not isinstance(text, bool):
        return Fraction(int(text.numerator), int(text.denominator))
    if isinstance(text, numbers.Real) and math.isfinite(text):
        return Fraction(float(text))
    if not isinstance(text, str):
        raise ParseError(f"not a rational literal: {_shown(text)}")
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            f = Fraction(int(num), int(den))
        else:
            f = Fraction(s)  # handles "3" and "2.5"
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational literal: {_shown(text)}") from exc
    return f


def parse_length(value, error=DegenerateRadius, positive: bool = False) -> Fraction:
    """A radius, bound or budget: `parse_rational` within the float range
    (`parse_real`). A negative one, or zero when positive, raises `error`."""
    f = parse_rational(value)
    x = parse_real(f, "length")
    if f < 0 or (positive and f == 0):
        raise error(f"length must be {'positive' if positive else 'nonnegative'}"
                    f", got {x:g}")
    return f


def parse_int(value, n: int, what: str, first: int = 0) -> int:
    """An integer in [first, n): a cone, polygon or cell id, or a grid size
    (first 1, n GRID_MAX + 1). Any integer type but bool; anything else
    raises ParseError, and an integer out of range InvalidParams."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {_shown(value)}")
    if not first <= value < n:
        raise InvalidParams(f"{what} {_shown(int(value))} is outside {first}..{n - 1}")
    return int(value)


def parse_real(value, what: str) -> float:
    """A cutoff, sigma or h: a finite real number of any type but bool or
    str, as a float. Anything else raises ParseError."""
    with contextlib.suppress(OverflowError):  # an int or Fraction past floats
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(x := float(value))):
            return x
    raise ParseError(f"{what} must be a finite real number, got {_shown(value)}")


def parse_list(values, what: str) -> list:
    """The items of a list, tuple, range, array or other iterable; a string
    or anything that does not iterate raises ParseError."""
    with contextlib.suppress(TypeError):
        if not isinstance(values, (str, bytes)):
            return list(values)
    raise ParseError(f"{what} must be a list, got {_shown(values)}")


def parse_grid(grid, surface):
    """A cell grid on `surface`, whose polygons its cell ids index: a grid on
    other polygons or gluings, or a graph with no surface, InvalidParams."""
    from .circles import CellGrid  # loads numpy, as every caller has

    if surface is None:
        raise InvalidParams("synthetic graphs carry no geometry")
    if not isinstance(grid, CellGrid):
        raise ParseError(f"not a cell grid: {_shown(grid)}")
    S = grid.surface
    if (S.polygons, S.gluing_pairs) != (surface.polygons, surface.gluing_pairs):
        raise InvalidParams("the grid was built on another surface")
    return grid


def format_rational(f: Fraction) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def root_bracket(squares, den: int, bits: int) -> tuple[Fraction, Fraction]:
    """Fractions lo <= l <= hi around l, the sum of sqrt(q) over q in
    squares, over den, at most len(squares) / (den * 2**bits) apart: each
    sqrt(q) 2**bits rounded down to an integer by `math.isqrt`."""
    s = sum(math.isqrt(q << 2 * bits) for q in squares)
    return Fraction(s, den << bits), Fraction(s + len(squares), den << bits)


def refine_roots(squares, den: int, decide):
    """decide(lo, hi) on `root_bracket`s of rising precision until not None."""
    bits = 64
    while (out := decide(*root_bracket(squares, den, bits))) is None:
        bits *= 2
    return out


def rounded(lo: Fraction, hi: Fraction) -> float | None:
    """The float all of [lo, hi] rounds to (rounding is monotone), or None:
    with `refine_roots`, the correctly rounded float of an irrational sum."""
    return float(lo) if float(lo) == float(hi) else None

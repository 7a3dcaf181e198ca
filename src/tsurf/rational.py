"""Rational literals: parsing and canonical formatting.

Coordinates, radii and flag values are exact rationals throughout the
library. `fractions.Fraction` already keeps reduced form with a positive
denominator, so this module only handles the text representation used by
surface files and command-line flags: "p/q", "p", or a decimal like "2.5".
It also rounds sums of square roots to floats exactly, with no numpy, for
the saddle lengths and the censuses' length keys.
"""

import math
from fractions import Fraction

from .errors import ParseError


def parse_rational(text) -> Fraction:
    """Parse "p/q", an integer string, a decimal string, or a number.

    Raises ParseError on anything else (including irrational spellings).
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, float) and math.isfinite(text):
        # Floats arrive only from JSON decimals typed by a user; take the
        # exact binary value rather than guessing digits.
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"not a rational literal: {text!r}")
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            f = Fraction(int(num), int(den))
        else:
            f = Fraction(s)  # handles "3" and "2.5"
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational literal: {text!r}") from exc
    return f


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

"""`io.str_to_rat` and `io.rat_to_str` against the routes they replaced:
a string the pattern accepts parses to Fraction(s), and every string is
refused, with the same message, exactly where the regex check followed by
Fraction(s) refused it."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lorfan import io
from lorfan.errors import InputError

from helpers import outcome

_PATTERN = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def regex_then_fraction(s) -> Fraction:
    """str_to_rat as a regex check followed by Fraction(s)."""
    if type(s) is int or (isinstance(s, str) and _PATTERN.fullmatch(s)):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {s!r}: {exc}") from None
    raise InputError(f'bad rational {s!r:.40}: expected a string "p/q" or "p", or an integer')


def _same(s):
    got, want = outcome(lambda: io.str_to_rat(s)), outcome(lambda: regex_then_fraction(s))
    assert got == want and type(got) is type(want)


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
# ASCII and Unicode whitespace, the separator "\x1c" that str.isspace
# accepts, and a zero-width space, which is no whitespace
_SPACE = st.sampled_from(["", " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\u200b"])
_DIGITS = st.text(alphabet="0123456789", max_size=6)
# "\u0661" is ARABIC-INDIC DIGIT ONE, a digit to Fraction(s) but not to the pattern
_NOISE = st.text(alphabet="0123456789+-/ _.e\u0661", max_size=8)


@st.composite
def rational_like(draw):
    """Optional whitespace around an optional sign, digits with leading zeros
    and an optional "/" and denominator, with a chance of one stray
    character anywhere."""
    text = draw(_SPACE) + draw(st.sampled_from(["", "+", "-", "--"])) + draw(_DIGITS)
    if draw(st.booleans()):
        text += "/" + draw(_DIGITS)
    text += draw(_SPACE)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["_", "\u0661", ".", "e", "/", " ", "x"])) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.from_regex(io._RATIONAL, fullmatch=True))
def test_accepted_strings_parse_to_fraction_of_the_string(s):
    """Fraction(s) of an accepted string, or the InputError of a zero
    denominator."""
    _, _, den = s.strip().partition("/")
    if den and not int(den):
        with pytest.raises(InputError, match=r"Fraction\(-?\d+, 0\)"):
            io.str_to_rat(s)
    else:
        assert io.str_to_rat(s) == Fraction(s)
    _same(s)


@settings(max_examples=600, deadline=None)
@given(st.one_of(rational_like(), _NOISE, st.text(max_size=8), st.integers(), st.booleans(), st.none()))
@example("1/0")
@example("0/0")
@example(" -0007/0003 ")
@example("+0")
@example("1_0")
@example("\u0661")
@example("1/2/3")
@example("-" + "9" * (_DIGIT_LIMIT + 1))
@example("0" * _DIGIT_LIMIT + "1")
@example("1/" + "7" * (_DIGIT_LIMIT + 1))
@example("9" * _DIGIT_LIMIT)
def test_str_to_rat_matches_regex_then_fraction(s):
    _same(s)


class _LoudFraction(Fraction):
    def __str__(self):
        return "loud"


@given(st.fractions() | st.integers())
def test_rat_to_str_is_str_of_the_fraction(x):
    assert io.rat_to_str(x) == str(Fraction(x))


def test_rat_to_str_makes_a_fraction_of_every_other_type():
    assert io.rat_to_str(_LoudFraction(6, 4)) == "3/2"
    assert io.rat_to_str(-7) == "-7"
    assert io.rat_to_str(True) == "1"

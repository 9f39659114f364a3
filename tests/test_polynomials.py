import pytest
from hypothesis import given
from hypothesis import strategies as st

from kolafreq import (
    RationalGF,
    Series,
    WeightPoly,
    avoided_set,
    weight_gf,
)
from kolafreq import polynomials
from kolafreq.polynomials import (
    _coprime_on_line,
    unpack_signed,
)

keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
polys = st.dictionaries(keys, st.integers(-9, 9), max_size=6).map(WeightPoly)
nonzero_polys = polys.filter(bool)


def test_basic_arithmetic():
    x1 = WeightPoly({(1, 0): 1})
    x2 = WeightPoly({(0, 1): 1})
    p = (x1 + x2) * (x1 + x2)
    assert p == WeightPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert p - p == 0
    assert (x1 - x2) * (x1 + x2) == x1 * x1 - x2 * x2
    assert 2 * x1 + x1 == WeightPoly({(1, 0): 3})
    assert (x1 + 1) * 0 == 0
    assert (WeightPoly.one() == "1") is False  # not a polynomial: NotImplemented
    assert eval(repr(2 * x1), {"WeightPoly": WeightPoly}) == WeightPoly({(1, 0): 2})


def test_from_word_and_accessors():
    p = WeightPoly.from_word("12211")
    assert p == WeightPoly({(3, 2): 1})
    assert WeightPoly.letter_sum() == WeightPoly({(1, 0): 1, (0, 1): 1})
    assert p.t_degree() == 5
    assert WeightPoly.zero().t_degree() == -1
    assert WeightPoly({(1, 1): 4, (0, 0): 6}).content() == 2


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        WeightPoly({(-1, 0): 1})


@given(polys, polys)
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@given(polys, polys, polys)
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


def test_slices_are_dense_by_degree():
    p = WeightPoly({(2, 1): 5, (0, 3): 1, (1, 0): 2})
    assert p.slices() == {3: [1, 0, 5, 0], 1: [0, 2]}


def test_format_reconstructs_t():
    p = WeightPoly({(0, 0): 1, (1, 1): -1, (2, 2): -1})
    assert str(p) == "1 - x1*x2*t^2 - x1^2*x2^2*t^4"
    assert str(WeightPoly.zero()) == "0"
    assert str(WeightPoly.constant(-7)) == "-7"


def pack_coefficients(coeffs, width):
    """The reference encoder: evaluation at x1 = 2^width, one signed digit a coefficient."""
    return sum(c << width * i for i, c in enumerate(coeffs))


@given(st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=40))
def test_pack_unpack_roundtrip(coeffs):
    width = 48
    assert unpack_signed(pack_coefficients(coeffs, width), len(coeffs), width) == coeffs


def test_unpack_detects_insufficient_width():
    packed = pack_coefficients([1, 70], 8)
    with pytest.raises(OverflowError):
        unpack_signed(packed, 1, 8)


@pytest.mark.parametrize("width", range(8, 72, 8))
def test_unpack_edge_digits_and_one_step_outside(width):
    lo, hi = -(2 ** (width - 1)), 2 ** (width - 1) - 1
    for digits in ([lo] * 3, [hi] * 3, [lo, hi, lo], [hi, lo, hi], [0, lo, hi]):
        assert unpack_signed(pack_coefficients(digits, width), 3, width) == digits
    with pytest.raises(OverflowError):
        unpack_signed(pack_coefficients([lo] * 3, width) - 1, 3, width)
    with pytest.raises(OverflowError):
        unpack_signed(pack_coefficients([hi] * 3, width) + 1, 3, width)


def test_unpack_needs_whole_bytes():
    with pytest.raises(ValueError, match="multiple of 8"):
        unpack_signed(pack_coefficients([1, -1], 12), 2, 12)


def test_series_helpers():
    s = Series(((1,), (0, 1), (0, 2, 0)))
    assert s.order == 2
    assert s.min_ones(2) == 1 and s.max_ones(2) == 1
    assert s.min_ones(0) == 0
    assert s.poly(1) == WeightPoly({(1, 0): 1})


def test_series_validation():
    Series(((1,), (1, 1))).validate_counting()
    with pytest.raises(AssertionError):
        Series(((2,),)).validate_counting()
    with pytest.raises(AssertionError):
        Series(((1,), (1, -1))).validate_counting()
    with pytest.raises(AssertionError):
        Series(((1,), (3, 0))).validate_counting()
    with pytest.raises(AssertionError, match="not homogeneous"):
        Series(((1,), (1,))).validate_counting()


def test_rational_gf_canonicalization():
    one_plus_x1 = WeightPoly({(0, 0): 1, (1, 0): 1})
    one_plus_x2 = WeightPoly({(0, 0): 1, (0, 1): 1})
    one_minus_x2 = WeightPoly({(0, 0): 1, (0, 1): -1})
    gf = RationalGF.canonical(one_plus_x1 * one_plus_x2, one_plus_x1 * one_minus_x2)
    assert gf.numerator == one_plus_x2
    assert gf.denominator == one_minus_x2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_forms_of_avoided_sets_need_no_symbolic_gcd(monkeypatch, d):
    def refuse(f, g):
        raise AssertionError("symbolic cofactors reached")

    monkeypatch.setattr(polynomials, "_sympy_cofactors", refuse)
    assert weight_gf(avoided_set(d)).denominator.constant_term == 1


def test_real_common_factor_still_reduces():
    # Both sides of the unreduced enumerator of {112, 22121} carry 1 - x1 x2 t^2.
    gf = weight_gf(["112", "22121"])
    assert gf.numerator == WeightPoly({(0, 0): 1, (1, 1): 1, (2, 2): 1})
    assert gf.denominator == WeightPoly(
        {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1, (1, 2): -1, (2, 2): 1}
    )
    factor = WeightPoly({(0, 0): 1, (1, 1): -1})
    assert not _coprime_on_line(gf.numerator * factor, gf.denominator * factor)


def test_a_factor_that_loses_degree_on_the_line_still_reduces():
    # h(x, 3x) = 1, so the restrictions of f and g have lost h's degree: the
    # line proves nothing, and Euclid there would meet a zero top coefficient.
    h = WeightPoly({(0, 0): 1, (0, 1): 1, (1, 0): -3})
    one_plus_x1 = WeightPoly({(0, 0): 1, (1, 0): 1})
    one_minus_x2 = WeightPoly({(0, 0): 1, (0, 1): -1})
    f, g = h * one_plus_x1, h * one_minus_x2
    assert not _coprime_on_line(f, g)
    assert RationalGF.canonical(f, g) == RationalGF(one_plus_x1, one_minus_x2)


@given(nonzero_polys, nonzero_polys, polys.filter(lambda p: p.t_degree() > 0))
def test_line_restriction_never_hides_a_shared_factor(f, g, h):
    assert not _coprime_on_line(f * h, g * h)


def test_rational_gf_sign_and_content_normalization():
    num = WeightPoly({(1, 0): -2})
    den = WeightPoly({(0, 0): -2, (1, 1): 2})
    gf = RationalGF.canonical(num, den)
    assert gf.denominator.constant_term == 1
    assert gf.denominator == WeightPoly({(0, 0): 1, (1, 1): -1})
    assert gf.numerator == WeightPoly({(1, 0): 1})
    # A zero numerator skips the reduction; the denominator is still normalized.
    assert RationalGF.canonical(WeightPoly.zero(), den) == RationalGF(
        WeightPoly.zero(), WeightPoly({(0, 0): 1, (1, 1): -1}))


def test_rational_gf_rejects_zero_constant_denominator():
    with pytest.raises(ValueError):
        RationalGF.canonical(WeightPoly.one(), WeightPoly({(1, 0): 1}))
    with pytest.raises(ZeroDivisionError):
        RationalGF.canonical(WeightPoly.one(), WeightPoly.zero())
    with pytest.raises(ValueError, match="cannot normalize denominator constant term to 1"):
        RationalGF.canonical(WeightPoly.one(), WeightPoly({(0, 0): 2, (1, 0): 1}))

from fractions import Fraction

import pytest

from artifact import GF, QQ, ZZ, parse_ring, ring_ops
from artifact.errors import DivisibilityError, InvalidRing
from artifact.rings import is_prime, scalar_from_json, scalar_to_json


def test_parse_ring_accepts_the_three_families():
    assert parse_ring("Z") is ZZ
    assert parse_ring("Q") is QQ
    assert parse_ring("F7") == GF(7)
    assert str(GF(7)) == "F7"
    assert str(ZZ) == "Z"
    assert str(QQ) == "Q"


@pytest.mark.parametrize("bad", ["z", "F", "F0", "F1", "F4", "F9", "F15", "GF(7)", ""])
def test_parse_ring_rejects_garbage(bad):
    with pytest.raises(InvalidRing):
        parse_ring(bad)


def test_prime_test_on_small_and_large_witnesses():
    primes = [2, 3, 5, 7, 11, 97, 7919, 2**31 - 1]
    composites = [0, 1, 4, 9, 15, 91, 561, 25326001, 2**32 + 1]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_integer_canon_accepts_integral_fractions_only():
    ops = ring_ops(ZZ)
    assert ops.canon(5) == 5
    assert ops.canon(Fraction(4, 2)) == 2
    with pytest.raises(DivisibilityError):
        ops.canon(Fraction(1, 2))
    with pytest.raises(TypeError):
        ops.canon(1.5)
    with pytest.raises(TypeError):
        ops.canon(True)


def test_integer_division_is_exact_or_raises():
    ops = ring_ops(ZZ)
    assert ops.divide_exact(6, -3) == -2
    with pytest.raises(DivisibilityError):
        ops.divide_exact(1, 2)
    with pytest.raises(DivisibilityError):
        ops.divide_exact(1, 0)


def test_rational_field_arithmetic():
    ops = ring_ops(QQ)
    assert ops.canon(3) == Fraction(3)
    assert ops.divide_exact(Fraction(1), Fraction(3)) == Fraction(1, 3)
    with pytest.raises(DivisibilityError):
        ops.divide_exact(Fraction(1), Fraction(0))


def test_prime_field_residues_and_inverses():
    ops = ring_ops(GF(5))
    assert ops.canon(-1) == 4
    assert ops.canon(12) == 2
    assert ops.canon(Fraction(1, 2)) == 3  # inverse of 2 mod 5
    assert ops.add(3, 4) == 2
    assert ops.mul(2, 4) == 3
    assert ops.neg(2) == 3
    assert ops.divide_exact(1, 3) == 2
    with pytest.raises(DivisibilityError):
        ops.canon(Fraction(1, 5))
    with pytest.raises(DivisibilityError):
        ops.divide_exact(1, 10)
    with pytest.raises(TypeError):
        ops.canon(0.5)


def test_ring_tag_guards():
    with pytest.raises(InvalidRing):
        GF(6)
    with pytest.raises(InvalidRing):
        GF(1)


def test_scalar_json_round_trip():
    assert scalar_to_json(ZZ, -3) == -3
    assert scalar_to_json(QQ, Fraction(2, 3)) == "2/3"
    assert scalar_from_json(QQ, "2/3") == Fraction(2, 3)
    assert scalar_from_json(ZZ, "4") == 4
    assert scalar_from_json(GF(7), 9) == 2
    with pytest.raises(TypeError):
        scalar_from_json(ZZ, 1.5)
    with pytest.raises(DivisibilityError):
        scalar_from_json(ZZ, "1/2")
    assert scalar_from_json(QQ, "-1.25") == Fraction(-5, 4)
    assert scalar_from_json(QQ, " +3/6 ") == Fraction(1, 2)
    for x in (Fraction(-5, 4), Fraction(3), Fraction(0), Fraction(10**30, 7)):
        assert scalar_from_json(QQ, scalar_to_json(QQ, x)) == x
    # an exponent would let a short string demand a huge integer; the rest
    # fall outside the grammar (sign, digits, optional .digits or /digits)
    for text in ("1e100000000", "2E-3", "1.5e2", "1_0", "1_0/3", ".5", "1.", "1.2/3", ""):
        with pytest.raises(ValueError):
            scalar_from_json(QQ, text)

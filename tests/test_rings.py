import copy
import pickle
from fractions import Fraction

import pytest

from artifact import GF, QQ, ZZ, RingTag, parse_ring, ring_ops
from artifact.errors import DivisibilityError, InvalidRing
from artifact.rings import is_prime, scalar_from_json, scalar_to_json

# the least strong pseudoprimes to the first 12 and the first 13 prime bases
# (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def test_parse_ring_accepts_the_three_families():
    assert parse_ring("Z") is ZZ
    assert parse_ring("Q") is QQ
    assert parse_ring("F7") == GF(7)
    assert str(GF(7)) == "F7"
    assert str(ZZ) == "Z"
    assert str(QQ) == "Q"


@pytest.mark.parametrize(
    "bad",
    ["z", "F", "F0", "F1", "F4", "F9", "F15", "GF(7)", ""]
    # F3 and F13 spelled with leading zeros, Arabic-Indic or full-width
    # digits, and a superscript two, which str.isdigit accepts
    + ["F03", "F0003", "F\u0663", "F\uff11\uff13", "F\u00b2"],
)
def test_parse_ring_rejects_garbage(bad):
    with pytest.raises(InvalidRing):
        parse_ring(bad)


def test_prime_test_on_small_and_large_witnesses():
    primes = [2, 3, 5, 7, 11, 97, 7919, 2**31 - 1]
    composites = [0, 1, 4, 9, 15, 91, 561, 25326001, 2**32 + 1, PSI_12, PSI_13]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_no_modulus_at_or_above_the_proven_primality_range_names_a_field():
    # the first 13 prime bases are exact only below PSI_13, so a tag there
    # is refused before any Miller-Rabin round, prime or not
    assert GF(2**61 - 1).p == 2**61 - 1
    for p in (PSI_13, PSI_13 + 2, 2**89 - 1, 10**4000 + 1):
        with pytest.raises(InvalidRing) as info:
            RingTag("F", p)
        assert str(info.value) == f"modulus {p} is outside the proven primality range p < {PSI_13}"
    with pytest.raises(InvalidRing):
        parse_ring(f"F{PSI_13}")


@pytest.mark.parametrize("kind, p", [("F", 5.0), ("F", True), ("F", "5"), ("Z", False), ("Q", 0.0)])
def test_a_modulus_that_is_not_an_int_names_no_ring(kind, p):
    # 5.0 and True pass the primality test and compare equal to 5 and 1,
    # and a tag with such a modulus would print as one parse_ring refuses
    with pytest.raises(InvalidRing) as info:
        RingTag(kind, p)
    assert str(info.value) == f"modulus {p!r} is not an integer"
    for tag in (ZZ, QQ, GF(5), RingTag("F", 5), RingTag("Z", 0)):
        assert parse_ring(str(tag)) == tag


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
    for _ in range(2):  # a refused modulus is refused again, not cached
        with pytest.raises(InvalidRing):
            GF(6)
        with pytest.raises(InvalidRing):
            GF(1)


def test_ring_tags_are_canonical_and_equal_their_field_copies():
    assert GF(5) is GF(5) and parse_ring("F5") is GF(5)
    for tag in (ZZ, QQ, GF(2), GF(5)):
        assert pickle.loads(pickle.dumps(tag)) is tag
        assert copy.deepcopy(tag) is tag
    assert RingTag("F", 5) is not GF(5)
    assert RingTag("F", 5) == GF(5) and GF(5) == RingTag("F", 5)
    assert hash(RingTag("F", 5)) == hash(GF(5))
    assert RingTag("Z") == ZZ and hash(RingTag("Z")) == hash(ZZ)
    assert GF(5) != GF(7) and GF(2) != ZZ and ZZ != QQ
    assert GF(5) != "F5" and GF(5) != ("F", 5)


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

"""The simplex category as data: monotone maps between finite ordinals,
faces, degeneracies, unique epi-mono factorization, surjection enumeration,
and the correspondence between jointly monic surjection pairs and shuffles.

The canonical surjection order used everywhere downstream (block layouts,
serialized block indices) is: target size ascending, and within a fixed
target the value sequences in descending lexicographic order.

A surjection is its value tuple inside the library: the memoized Δ tables
hold tuples, and each enumeration returns a fresh list of the one frozen
MonotoneMap per surjection built at the boundary, as face and degeneracy do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb

from .errors import DomainError, ShapeError, _check_int
from .linalg import _is_natural, _json_object


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving map [source_top] -> [target_top], stored as the
    full sequence of its n+1 values."""

    source_top: int
    target_top: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        n, m = self.source_top, self.target_top
        if type(n) is not int or type(m) is not int:
            raise ValueError("ordinals must be integers")
        if n < 0 or m < 0:
            raise ValueError("ordinals must be nonnegative")
        if len(self.values) != n + 1:
            raise ValueError(f"expected {n + 1} values")
        for v in self.values:
            if type(v) is not int:
                raise ValueError("values must be integers")
            if v < 0 or v > m:
                raise ValueError(f"values must lie in [0, {m}]")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be weakly increasing")

    def __call__(self, k: int) -> int:
        return self.values[k]

    @property
    def is_surjective(self) -> bool:
        return set(self.values) == set(range(self.target_top + 1))

    @property
    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)


def identity_map(n: int) -> MonotoneMap:
    _check_int("identity_map", "the size", n, least=0)
    return MonotoneMap(n, n, tuple(range(n + 1)))


# typed, so that face(2.0, 0) reaches the guard instead of the cached face(2, 0)
@lru_cache(maxsize=None, typed=True)
def face(n: int, i: int) -> MonotoneMap:
    """The injective map [n-1] -> [n] that misses i."""
    _check_int("face", "the level", n, least=1, error=IndexError)
    _check_int("face", "the index", i, error=IndexError)
    if not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range for n={n}")
    return MonotoneMap(n - 1, n, tuple(k if k < i else k + 1 for k in range(n)))


@lru_cache(maxsize=None, typed=True)
def degeneracy(n: int, i: int) -> MonotoneMap:
    """The surjective map [n+1] -> [n] that hits i twice."""
    _check_int("degeneracy", "the level", n, least=0, error=IndexError)
    _check_int("degeneracy", "the index", i, error=IndexError)
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy index {i} out of range for n={n}")
    return MonotoneMap(n + 1, n, tuple(k if k <= i else k - 1 for k in range(n + 2)))


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.target_top != g.source_top:
        raise ShapeError(
            f"cannot compose [{f.source_top}]->[{f.target_top}] with "
            f"[{g.source_top}]->[{g.target_top}]"
        )
    return MonotoneMap(f.source_top, g.target_top, tuple(g.values[v] for v in f.values))


def epi_mono_factorize(f: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """The unique factorization f = mono o epi through the image ordinal."""
    image = sorted(set(f.values))
    rank = {v: r for r, v in enumerate(image)}
    k = len(image) - 1
    epi = MonotoneMap(f.source_top, k, tuple(rank[v] for v in f.values))
    mono = MonotoneMap(k, f.target_top, tuple(image))
    return mono, epi


def enumerate_surjections(n: int, k: int) -> list[MonotoneMap]:
    """All surjective monotone maps [n] -> [k] in the canonical order
    (descending lexicographic on value sequences); comb(n, k) of them."""
    # before the cache, which keys 2.0 and True like 2 and 1
    _check_int("enumerate_surjections", "each size", n, k)
    return list(map(_surjection, _surjections_onto(n, tuple(j == k for j in range(k + 1)))))


@cache
def _surjection(values: tuple[int, ...]) -> MonotoneMap:
    """The public map of a surjection's value tuple, built once per process."""
    return MonotoneMap(len(values) - 1, values[-1], values)


@cache
def _surjections_onto(n: int, live: tuple[bool, ...]) -> tuple[tuple[int, ...], ...]:
    """The value tuples of the surjections out of [n] onto the [k] with live[k]
    true, in the canonical order.  Value sequences descend as the degeneracy
    sets, in their combinations order, ascend; live is a nonzero pattern of ranks."""
    return tuple(
        _surjection_values(n, repeats)
        for k in range(min(n + 1, len(live))) if live[k]
        for repeats in reversed(list(itertools.combinations(range(n), n - k)))
    )


def _surjection_values(n: int, repeats) -> tuple[int, ...]:
    """The values of the surjection out of [n] that repeats at the given positions."""
    return tuple(itertools.accumulate((j not in repeats for j in range(n)), initial=0))


def _repeat_positions(values: tuple[int, ...]) -> tuple[int, ...]:
    """The j with values[j] = values[j+1]; disjoint for a jointly monic pair."""
    return tuple(j for j in range(len(values) - 1) if values[j] == values[j + 1])


def degeneracy_set(f: MonotoneMap) -> tuple[int, ...]:
    """The positions j with f(j) = f(j+1); determines a surjection uniquely."""
    if not f.is_surjective:
        raise DomainError("degeneracy_set needs a surjective map")
    return _repeat_positions(f.values)


def surjection_with_degeneracy_set(n: int, repeats: tuple[int, ...]) -> MonotoneMap:
    """The surjection [n] -> [n - len(repeats)] whose degeneracy set is given."""
    _check_int("surjection_with_degeneracy_set", "the size", n, least=0)
    rep = set(repeats)
    if any(type(j) is not int or not 0 <= j < n for j in rep):
        raise DomainError("surjection_with_degeneracy_set: degeneracy positions must lie in 0..n-1")
    return MonotoneMap(n, n - len(rep), _surjection_values(n, rep))


def enumerate_jointly_monic_pairs(
    n: int, xtop: int, ytop: int
) -> list[tuple[MonotoneMap, MonotoneMap]]:
    """Pairs of surjections (f: [n]->>[k], g: [n]->>[l]) that are jointly
    monic (disjoint degeneracy sets), with k <= xtop and l <= ytop, ordered
    f-major then g-minor in the canonical surjection order."""
    _check_int("enumerate_jointly_monic_pairs", "each size", n, xtop, ytop)
    return list(_monic_pair_maps(n, xtop, ytop))


@cache
def _monic_pair_maps(n: int, xtop: int, ytop: int) -> tuple:
    """The public maps of the jointly monic pairs onto [k], [l] with k <= xtop and l <= ytop."""
    xlive, ylive = (True,) * (xtop + 1), (True,) * (ytop + 1)
    fs, gs = ({f: _surjection(f) for f in _surjections_onto(n, live)} for live in (xlive, ylive))
    return tuple((fs[f], gs[g]) for f, g in _jointly_monic_pairs(n, xlive, ylive))


@cache
def _jointly_monic_pairs(n: int, xlive: tuple[bool, ...], ylive: tuple[bool, ...]) -> tuple:
    """The pairs of surjections out of [n] onto the live [k] and [l] whose
    repeat positions are disjoint, f-major in the canonical order.  Only the
    all-true patterns sweep; any other pattern keeps, in order, the pairs of
    the all-true table of its lengths that end in live targets."""
    if not (all(xlive) and all(ylive)):
        full = _jointly_monic_pairs(n, (True,) * len(xlive), (True,) * len(ylive))
        return tuple((f, g) for f, g in full if xlive[f[-1]] and ylive[g[-1]])
    gsets = [(g, set(_repeat_positions(g))) for g in _surjections_onto(n, ylive)]
    pairs = []
    for f in _surjections_onto(n, xlive):
        fset = set(_repeat_positions(f))
        pairs.extend((f, g) for g, gset in gsets if fset.isdisjoint(gset))
    return tuple(pairs)


@dataclass(frozen=True)
class Shuffle:
    """A (p,q)-shuffle: a permutation of {1..p+q} increasing on the first p
    and on the last q positions, stored as the value sequence."""

    p: int
    q: int
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.p) is not int or type(self.q) is not int:
            raise ValueError("block sizes must be integers")
        if self.p < 0 or self.q < 0:
            raise ValueError("block sizes must be nonnegative")
        if not isinstance(self.perm, tuple):
            object.__setattr__(self, "perm", tuple(self.perm))
        n = self.p + self.q
        if any(type(v) is not int for v in self.perm) or sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a permutation of 1..p+q")
        if any(
            self.perm[i] > self.perm[i + 1]
            for i in range(self.p - 1)
        ) or any(
            self.perm[self.p + i] > self.perm[self.p + i + 1]
            for i in range(self.q - 1)
        ):
            raise ValueError("perm must increase on both blocks")

    def sign(self) -> int:
        """(-1) to the number of cross-block inversions."""
        inversions = sum(
            1
            for a in self.perm[: self.p]
            for b in self.perm[self.p :]
            if a > b
        )
        return -1 if inversions % 2 else 1


def shuffle_count(p: int, q: int) -> int:
    _check_int("shuffles", "each block size", p, q, least=0)
    return comb(p + q, p)


def enumerate_shuffles(p: int, q: int) -> list[Shuffle]:
    """All (p,q)-shuffles, ordered by the first block's value set."""
    _check_int("shuffles", "each block size", p, q, least=0)
    universe = range(1, p + q + 1)
    rest = lambda first: tuple(v for v in universe if v not in first)
    return [Shuffle(p, q, first + rest(first)) for first in itertools.combinations(universe, p)]


def shuffle_of_pair(f: MonotoneMap, g: MonotoneMap) -> Shuffle:
    """The shuffle corresponding to a jointly monic pair of surjections with
    complementary targets (k + l = n): position a <= k goes to i_a + 1 where
    the i's are g's degeneracy set, position k + b goes to j_b + 1 where the
    j's are f's."""
    n = f.source_top
    if g.source_top != n:
        raise ShapeError("pair must share a source")
    k, l = f.target_top, g.target_top
    if k + l != n:
        raise DomainError(f"targets {k} + {l} must sum to the source {n}")
    f_set = degeneracy_set(f)
    g_set = degeneracy_set(g)
    if set(f_set) & set(g_set):
        raise DomainError("pair is not jointly monic")
    perm = tuple(i + 1 for i in g_set) + tuple(j + 1 for j in f_set)
    return Shuffle(k, l, perm)


def pair_of_shuffle(nu: Shuffle) -> tuple[MonotoneMap, MonotoneMap]:
    """Inverse of shuffle_of_pair: surjections out of [p+q] whose degeneracy
    sets are the two blocks of the shuffle, shifted down by one."""
    n = nu.p + nu.q
    f = surjection_with_degeneracy_set(
        n, tuple(v - 1 for v in nu.perm[nu.p :])
    )
    g = surjection_with_degeneracy_set(
        n, tuple(v - 1 for v in nu.perm[: nu.p])
    )
    return f, g


def monotone_to_json(f: MonotoneMap) -> dict:
    return {
        "source": f.source_top,
        "target": f.target_top,
        "values": list(f.values),
    }


def monotone_from_json(obj, path: str = "map") -> MonotoneMap:
    _json_object(obj, path, ("source", "target", "values"))
    for key in ("source", "target"):
        if not _is_natural(obj[key]):
            raise ValueError(f"{path}.{key}: expected a natural")
    values = obj["values"]
    if not isinstance(values, list) or not all(map(_is_natural, values)):
        raise ValueError(f"{path}.values: expected a list of naturals")
    try:
        return MonotoneMap(obj["source"], obj["target"], tuple(values))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc

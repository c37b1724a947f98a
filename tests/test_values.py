"""The six slotted value types compare field by field with values of the
same type and are unhashable.  Each one-field variant is built by copying
every set slot and replacing one field, so exactly that field differs.  A
memo slot outside the fields takes no part in equality."""

import pytest

from artifact import (
    QQ,
    ZZ,
    ChainMap,
    ConnComplex,
    FinPoset,
    FinSimplicialSet,
    Matrix,
    SimplicialMap,
    SimplicialModule,
    chain_poset,
    classify,
    complex_from_json,
    complex_to_json,
    dk,
    identity_chain_map,
    identity_simplicial_map,
    map_from_json,
    map_to_json,
    module_from_json,
    module_to_json,
    nerve,
    poset_from_json,
    poset_to_json,
)


def zmat(*rows):
    return Matrix.from_rows(ZZ, rows)


def complex_x() -> ConnComplex:
    return ConnComplex(ZZ, (1, 2), {1: zmat([1, 2])})


def complex_y() -> ConnComplex:
    return ConnComplex(ZZ, (1, 2), {1: zmat([1, 3])})


def chain_map() -> ChainMap:
    return identity_chain_map(complex_x())


def simplicial_set() -> FinSimplicialSet:
    return nerve(chain_poset(1), 2)


def module() -> SimplicialModule:
    # every family built, so _faces and _degens hold the tuples that the
    # one-slot variants replace one matrix of; a lazy module's unread
    # levels are covered in test_simplicial
    return dk(complex_x(), 2)._force()


def simplicial_map() -> SimplicialMap:
    return identity_simplicial_map(module())


def replace_one(x, name, value):
    """A copy of x whose slot name holds value and whose other slots hold
    the same objects as x's, or stay unset where x's are."""
    y = object.__new__(type(x))
    for slot in type(x).__slots__:
        if hasattr(x, slot):
            setattr(y, slot, getattr(x, slot))
    setattr(y, name, value)
    return y


def replace_entry(mats, index, row, col, value):
    """mats, a tuple of matrices over Z, with one entry of mats[index]
    replaced."""
    rows = [list(r) for r in mats[index].entries]
    rows[row][col] = value
    return mats[:index] + (zmat(*rows),) + mats[index + 1 :]


def replace_family(families, level, i, value):
    """families, one tuple of structure maps per level, with map i of the
    given level replaced by value."""
    fams = list(families[level])
    fams[i] = value
    return families[:level] + (tuple(fams),) + families[level + 1 :]


# (type, build, read back through JSON or None, {field: changed value})
VALUES = [
    (
        ConnComplex,
        complex_x,
        lambda x: complex_from_json(complex_to_json(x)),
        {
            "ring": QQ,
            "ranks": (2, 1),
            "top": 2,
            "_diffs": replace_entry(complex_x()._diffs, 0, 0, 1, 3),
        },
    ),
    (
        ChainMap,
        chain_map,
        lambda f: map_from_json(map_to_json(f)),
        {
            "source": complex_y(),
            "target": complex_y(),
            "_components": replace_entry(chain_map()._components, 1, 1, 0, 1),
        },
    ),
    (
        FinSimplicialSet,
        simplicial_set,
        None,
        {
            "horizon": 3,
            "cells": (((0,), (2,)),) + simplicial_set().cells[1:],
            "_faces": replace_family(simplicial_set()._faces, 0, 1, (0, 0, 0)),
            "_degens": replace_family(simplicial_set()._degens, 1, 0, (0, 0, 0)),
        },
    ),
    (
        FinPoset,
        lambda: chain_poset(2),
        lambda p: poset_from_json(poset_to_json(p)),
        {
            "elements": ("a", "b", "c"),
            "leq": ((True, False, False), (False, True, False), (False, False, True)),
        },
    ),
    (
        SimplicialModule,
        module,
        lambda m: module_from_json(module_to_json(m)),
        {
            "ring": QQ,
            "ranks": (1, 3, 4),
            "_faces": replace_family(module()._faces, 0, 0, module().face(1, 1)),
            "_degens": replace_family(module()._degens, 0, 0, zmat([1], [1], [0])),
        },
    ),
    (
        SimplicialMap,
        simplicial_map,
        None,
        {
            "source": dk(complex_y(), 2),
            "target": dk(complex_y(), 2),
            "components": replace_entry(simplicial_map().components, 0, 0, 0, 2),
        },
    ),
]
IDS = [row[0].__name__ for row in VALUES]


@pytest.mark.parametrize("cls, build, read, changed", VALUES, ids=IDS)
def test_every_slot_has_a_one_slot_variant(cls, build, read, changed):
    assert tuple(changed) == cls._fields
    assert set(cls._fields) <= set(cls.__slots__)


def test_a_classified_map_equals_the_same_map_unclassified():
    f, g = chain_map(), chain_map()
    classify(f)
    assert f._class is not None and g._class is None
    assert f == g and g == f and not f != g
    assert replace_one(f, "_class", None) == f


@pytest.mark.parametrize("cls, build, read, changed", VALUES, ids=IDS)
def test_a_value_equals_an_independent_copy(cls, build, read, changed):
    x = build()
    copy = read(x) if read else build()
    assert type(x) is cls and copy is not x
    assert x == copy and copy == x and not x != copy


@pytest.mark.parametrize(
    "build, name, value",
    [(row[1], name, value) for row in VALUES for name, value in row[3].items()],
    ids=[f"{row[0].__name__}.{name}" for row in VALUES for name in row[3]],
)
def test_a_value_differing_in_one_slot_is_unequal(build, name, value):
    x = build()
    y = replace_one(x, name, value)
    assert getattr(x, name) != value
    assert x != y and y != x and not x == y
    assert replace_one(x, name, getattr(x, name)) == x


@pytest.mark.parametrize("cls, build, read, changed", VALUES, ids=IDS)
def test_a_value_is_unequal_to_none_and_to_the_other_types(cls, build, read, changed):
    x = build()
    assert x != None  # noqa: E711
    for other in VALUES:
        if other[0] is not cls:
            assert x != other[1]() and other[1]() != x


@pytest.mark.parametrize("cls, build, read, changed", VALUES, ids=IDS)
def test_a_value_is_unhashable(cls, build, read, changed):
    with pytest.raises(TypeError):
        hash(build())

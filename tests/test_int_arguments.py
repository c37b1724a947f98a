"""The integer-argument contract, generated from the public signatures: every
callable and public method in artifact.__all__ that takes an int-annotated
parameter refuses a float or a bool there with the typed error of its
contract.  A float and a bool compare like ints, so an unchecked slot either
answers as if given an int or raises a bare TypeError from deep inside."""

import inspect

import pytest

import artifact
from artifact import (
    ZZ,
    DomainError,
    FinPoset,
    InvalidRing,
    ShapeError,
    chain_poset,
    disk,
    dk,
    identity,
    identity_chain_map,
    identity_simplicial_map,
    simplex_set,
    sphere,
)

# int-annotated callables outside the contract, each with its reason
EXEMPT = {
    "HomologyGroup": "a report record the library fills from computed ranks",
    "NorTensorReport": "a report record the library fills from computed ranks",
    "RlpReport": "a report record the library fills from its checked max_n",
    # the hot accessors return zero outside their degrees by contract and run
    # about 72,000 times per model_maps benchmark pass
    "ConnComplex.rank": "a hot accessor, zero outside its degrees",
    "ConnComplex.diff": "a hot accessor, zero outside its degrees",
    "ShuffleComplex.rank": "a hot accessor, zero outside its degrees",
    "ShuffleComplex.diff": "a hot accessor, zero outside its degrees",
    "ChainMap.component": "a hot accessor, zero outside its degrees",
}

# the objects whose methods are called, one per class
RECEIVERS = {
    "FinPoset": lambda: chain_poset(1),
    "FinSimplicialSet": lambda: simplex_set(1, 2),
    "SimplicialModule": lambda: dk(disk(1), 2),
    "SimplicialMap": lambda: identity_simplicial_map(dk(disk(1), 2)),
}

# two incomparable elements: verify_nerve_contraction finds no least element
ANTICHAIN = FinPoset([0, 1], [[True, False], [False, True]])

# a valid call of each covered callable, as keyword arguments, and the error
# its contract names for a slot that is not an int
CONTRACT = {
    "FinPoset.le": ({"i": 0, "j": 1}, IndexError),
    "FinSimplicialSet": ({"horizon": 0, "cells": [["v"]], "faces": [], "degens": []}, ValueError),
    "FinSimplicialSet.cell_count": ({"m": 1}, IndexError),
    "FinSimplicialSet.face_map": ({"m": 2, "i": 1}, IndexError),
    "FinSimplicialSet.degen_map": ({"m": 1, "i": 1}, IndexError),
    "GF": ({"p": 5}, InvalidRing),
    "Matrix": ({"ring": ZZ, "rows": 1, "cols": 2, "entries": [[1, 2]]}, ShapeError),
    "MonotoneMap": ({"source_top": 2, "target_top": 1, "values": (0, 1, 1)}, ValueError),
    "RingTag": ({"kind": "F", "p": 5}, InvalidRing),
    "Shuffle": ({"p": 1, "q": 1, "perm": (2, 1)}, ValueError),
    "SimplicialMap.component": ({"m": 1}, IndexError),
    "SimplicialModule.rank": ({"m": 1}, IndexError),
    "SimplicialModule.face": ({"m": 2, "i": 1}, IndexError),
    "SimplicialModule.degen": ({"m": 1, "i": 1}, IndexError),
    "boundary_simplex_set": ({"n": 2, "horizon": 1}, DomainError),
    "boxtimes_generator_tests": ({"mu": identity_chain_map(sphere(0)), "n": 1}, DomainError),
    "chain_poset": ({"n": 2}, DomainError),
    "degeneracy": ({"n": 2, "i": 1}, IndexError),
    "disk": ({"n": 2}, DomainError),
    "dk": ({"x": disk(1), "horizon": 2}, DomainError),
    "dk_blocks": ({"n": 2}, DomainError),
    "dk_map": ({"g": identity_chain_map(disk(1)), "horizon": 2}, DomainError),
    "enumerate_jointly_monic_pairs": ({"n": 2, "xtop": 1, "ytop": 1}, DomainError),
    "enumerate_shuffles": ({"p": 1, "q": 1}, DomainError),
    "enumerate_surjections": ({"n": 2, "k": 1}, DomainError),
    "face": ({"n": 2, "i": 1}, IndexError),
    "hcat": ({"ring": ZZ, "rows": 1, "mats": [identity(ZZ, 1)]}, ShapeError),
    "identity": ({"ring": ZZ, "n": 2}, ShapeError),
    "identity_map": ({"n": 2}, DomainError),
    "nerve": ({"p": chain_poset(1), "horizon": 2}, DomainError),
    "rlp_generator_check": ({"f": identity_chain_map(sphere(1)), "max_n": 1}, DomainError),
    "shuffle_count": ({"p": 1, "q": 1}, DomainError),
    "simplex_set": ({"n": 1, "horizon": 2}, DomainError),
    "sphere": ({"n": 1}, DomainError),
    "surjection_with_degeneracy_set": ({"n": 2, "repeats": (1,)}, DomainError),
    "vcat": ({"ring": ZZ, "cols": 1, "mats": [identity(ZZ, 1)]}, ShapeError),
    "verify_nerve_contraction": ({"p": ANTICHAIN, "horizon": 2, "ring": ZZ}, DomainError),
    "zeros": ({"ring": ZZ, "rows": 1, "cols": 2}, ShapeError),
}

# each compares equal to an int or sits between two, and none is a size
NOT_INTS = [1.0, 2.5, True]


def _int_slots() -> dict:
    """{name: int-annotated parameter names} over the callables in
    artifact.__all__ and the public methods of its classes; the modules
    postpone annotations, so an annotation is the string 'int'."""
    slots = {}
    for name in artifact.__all__:
        value = getattr(artifact, name)
        members = [(name, value)] if callable(value) else []
        if inspect.isclass(value):
            members += [
                (f"{name}.{attr}", f)
                for attr, f in vars(value).items()
                if not attr.startswith("_") and inspect.isfunction(f)
            ]
        for label, f in members:
            try:
                params = inspect.signature(f).parameters
            except ValueError:
                continue
            ints = [p for p, spec in params.items() if spec.annotation in ("int", int)]
            if ints:
                slots[label] = ints
    return slots


SLOTS = _int_slots()


def _call(label: str, kwargs: dict):
    owner, _, method = label.partition(".")
    target = getattr(RECEIVERS[owner](), method) if method else getattr(artifact, owner)
    return target(**kwargs)


def test_every_int_annotated_callable_is_covered_or_exempt():
    assert not set(CONTRACT) & set(EXEMPT)
    assert sorted(SLOTS) == sorted(set(CONTRACT) | set(EXEMPT))
    for label, (kwargs, _) in CONTRACT.items():
        assert set(SLOTS[label]) <= set(kwargs), label
        # the valid call answers, so a refusal below comes from the one slot
        _call(label, kwargs)


@pytest.mark.parametrize(
    "label, slot, value",
    [(label, slot, value) for label in CONTRACT for slot in SLOTS.get(label, ()) for value in NOT_INTS],
    ids=lambda v: repr(v) if not isinstance(v, str) else v,
)
def test_a_float_or_bool_in_an_int_slot_raises_the_contract_error(label, slot, value):
    kwargs, error = CONTRACT[label]
    with pytest.raises(Exception) as info:
        _call(label, {**kwargs, slot: value})
    assert type(info.value) is error
    # an accessor's IndexError names the level it cannot read; every other
    # refusal says what the slot must be, not what sign it lacks
    if error is not IndexError:
        assert "integer" in str(info.value)

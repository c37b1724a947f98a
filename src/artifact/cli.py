"""JSON command-line front end.

One verb per invocation; inputs are JSON files, output is a single JSON
document on stdout.  Exit status: 0 on success, 1 on domain errors (the
output is {"error": ...}), 2 on malformed input or unreadable files.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict

from .chains import (
    ChainMap,
    ConnComplex,
    classify,
    complex_from_json,
    complex_to_json,
    factor_cof_trivfib,
    factor_trivcof_fib,
    homology,
    is_exact,
    lift_square,
    map_from_json,
    map_to_json,
    mapping_cone,
    rlp_generator_check,
)
from .errors import (
    ClassError,
    DivisibilityError,
    DomainError,
    InvalidRing,
    NotAComplex,
    NotSimplicial,
    RingError,
    ShapeError,
    SquareError,
)
from .linalg import Matrix, homology_to_json, mat_to_json
from .rings import RingTag, ZZ, parse_ring
from .shuffle import ez_map, shuffle_product, shuffle_to_json
from .simplicial import (
    _module,
    check_simplicial_identities,
    dk,
    free_module,
    module_from_json,
    module_to_json,
    nerve,
    nor,
    poset_from_json,
    verify_nerve_contraction,
)

DOMAIN_ERRORS = (
    DomainError,
    DivisibilityError,
    InvalidRing,
    ShapeError,
    RingError,
    NotAComplex,
    SquareError,
    ClassError,
    NotSimplicial,
)


def _load(path: str):
    """Parse a JSON file; a key repeated in one object, at any depth, or
    nesting too deep for the decoder is malformed input."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            for key, _ in pairs:
                if key in seen:
                    raise ValueError(f"{path}: duplicate key {key!r}")
                seen.add(key)
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def change_ring(obj, ring: RingTag):
    """A Matrix, ConnComplex, ChainMap or SimplicialModule with every entry
    converted to ring; RingError when an entry has no image there."""
    if obj.ring == ring:
        return obj
    if isinstance(obj, Matrix):
        return obj.change_ring(ring)
    if isinstance(obj, ConnComplex):
        return ConnComplex(ring, obj.ranks, {n: change_ring(obj.diff(n), ring) for n in range(1, obj.top + 1)})
    if isinstance(obj, ChainMap):
        span = max(obj.source.top, obj.target.top)
        comps = {n: change_ring(obj.component(n), ring) for n in range(span + 1)}
        return ChainMap(change_ring(obj.source, ring), change_ring(obj.target, ring), comps)
    return _module(
        ring,
        obj.ranks,
        lambda m, i: obj.face(m, i).change_ring(ring),
        lambda m, i: obj.degen(m, i).change_ring(ring),
    )


def _in_ring(args, obj):
    """obj converted to the ring named by --ring, when one is given."""
    return change_ring(obj, parse_ring(args.ring)) if args.ring else obj


def _cmd_homology(args) -> dict:
    x = _in_ring(args, complex_from_json(_load(args.complex)))
    return {"ring": str(x.ring), "H": [homology_to_json(h) for h in homology(x)]}


def _cmd_classify(args) -> dict:
    f = _in_ring(args, map_from_json(_load(args.map)))
    mc = classify(f)
    out = asdict(mc)
    out.update(trivial_fibration=mc.trivial_fibration, trivial_cofibration=mc.trivial_cofibration)
    if args.certify:
        max_n = args.max_n if args.max_n is not None else max(f.source.top, f.target.top) + 1
        rep = rlp_generator_check(f, max_n)
        out["rlp"] = asdict(rep)
        out["rlp"].update(
            certifies_trivial_fibration=rep.certifies_trivial_fibration,
            certifies_fibration=rep.certifies_fibration,
            matches_classifier=(
                rep.certifies_trivial_fibration == mc.trivial_fibration
                and rep.certifies_fibration == mc.fibration
            ),
        )
    return out


def _cmd_factor(args) -> dict:
    f = _in_ring(args, map_from_json(_load(args.map)))
    if args.kind == "trivcof-fib":
        left, right = factor_trivcof_fib(f)
    else:
        left, right = factor_cof_trivfib(f)
    return {"kind": args.kind, "left": map_to_json(left), "right": map_to_json(right)}


def _cmd_lift(args) -> dict:
    f = map_from_json(_load(args.f), path="f")
    g = map_from_json(_load(args.g), path="g")
    top = map_from_json(_load(args.top), path="top")
    bottom = map_from_json(_load(args.bottom), path="bottom")
    f, g, top, bottom = (_in_ring(args, m) for m in (f, g, top, bottom))
    return {"lift": map_to_json(lift_square(f, g, top, bottom))}


def _cmd_dk(args) -> dict:
    x = _in_ring(args, complex_from_json(_load(args.complex)))
    horizon = args.horizon if args.horizon is not None else x.top
    return module_to_json(dk(x, horizon))


def _cmd_nor(args) -> dict:
    m = _in_ring(args, module_from_json(_load(args.module)))
    res = nor(m)
    out = complex_to_json(res.complex)
    out["embeddings"] = [mat_to_json(e) for e in res.embeddings]
    return out


def _cmd_shuffle(args) -> dict:
    x = complex_from_json(_load(args.x), path="x")
    y = complex_from_json(_load(args.y), path="y")
    x, y = _in_ring(args, x), _in_ring(args, y)
    return shuffle_to_json(shuffle_product(x, y))


def _cmd_ez_check(args) -> dict:
    x = complex_from_json(_load(args.x), path="x")
    y = complex_from_json(_load(args.y), path="y")
    x, y = _in_ring(args, x), _in_ring(args, y)
    nabla = ez_map(x, y)
    tensor_h = [homology_to_json(h) for h in homology(nabla.source)]
    shuffle_h = [homology_to_json(h) for h in homology(nabla.target)]
    return {
        "chain_map": True,
        "cone_exact": is_exact(mapping_cone(nabla)),
        "homology": {
            "tensor": tensor_h,
            "shuffle": shuffle_h,
            "match": tensor_h == shuffle_h,
        },
    }


def _cmd_nerve_homology(args) -> dict:
    p = poset_from_json(_load(args.poset))
    ring = parse_ring(args.ring) if args.ring else ZZ
    horizon = args.horizon
    m = free_module(nerve(p, horizon), ring)
    complex_ = nor(m).complex
    groups = [homology_to_json(h) for h in homology(complex_)[:horizon]]
    contraction = verify_nerve_contraction(p, horizon, ring)
    return {
        "ring": str(ring),
        "H": groups,
        "least_element": contraction.least,
        "contraction_verified": contraction.verified,
    }


def _cmd_check_identities(args) -> dict:
    m = _in_ring(args, module_from_json(_load(args.module)))
    report = check_simplicial_identities(m)
    return {
        "ok": report.ok,
        "violations": [
            {"kind": kind, "level": lv, "i": i, "j": j}
            for kind, lv, i, j in report.violations
        ],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Exact homological algebra over Z, Q, and prime fields.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--ring", help="override/validate the coefficient ring (Z, Q, F<p>)")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        return p

    p = add("homology", _cmd_homology, "homology groups of a complex")
    p.add_argument("complex", help="complex JSON file")

    p = add("classify", _cmd_classify, "model-structure classification of a map")
    p.add_argument("map", help="map JSON file")
    p.add_argument("--certify", action="store_true", help="also run the generator RLP checks")
    p.add_argument("--max-n", type=int, default=None, help="largest generator degree to check")

    p = add("factor", _cmd_factor, "factor a map through a middle complex")
    p.add_argument("map", help="map JSON file")
    p.add_argument(
        "--kind",
        required=True,
        choices=("trivcof-fib", "cof-trivfib"),
        help="which factorization to compute",
    )

    p = add("lift", _cmd_lift, "solve a lifting square")
    p.add_argument("f", help="left map (cofibration) JSON file")
    p.add_argument("g", help="right map (trivial fibration) JSON file")
    p.add_argument("top", help="top map JSON file")
    p.add_argument("bottom", help="bottom map JSON file")

    p = add("dk", _cmd_dk, "degreewise sum simplicial module of a complex")
    p.add_argument("complex", help="complex JSON file")
    p.add_argument("--horizon", type=int, default=None, help="levels to build (default: top)")

    p = add("nor", _cmd_nor, "normalized complex of a simplicial module")
    p.add_argument("module", help="module JSON file")

    p = add("shuffle", _cmd_shuffle, "shuffle product of two complexes")
    p.add_argument("x", help="left complex JSON file")
    p.add_argument("y", help="right complex JSON file")

    p = add("ez-check", _cmd_ez_check, "comparison map diagnostics for a pair of complexes")
    p.add_argument("x", help="left complex JSON file")
    p.add_argument("y", help="right complex JSON file")

    p = add("nerve-homology", _cmd_nerve_homology, "homology of the nerve of a finite poset")
    p.add_argument("poset", help="poset JSON file")
    p.add_argument("--horizon", type=int, default=4, help="nerve levels to build")

    p = add("check-identities", _cmd_check_identities, "verify the simplicial relations")
    p.add_argument("module", help="module JSON file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = json.dumps(args.handler(args), indent=2 if args.pretty else None)
    except DOMAIN_ERRORS as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except MemoryError:
        print(json.dumps({"error": "out of memory: the answer is too large"}))
        return 1
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    print(text)
    return 0

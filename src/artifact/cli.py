"""JSON command-line front end.

One verb per invocation; inputs are JSON files, output is a single JSON
document on stdout.  Exit status: 0 on success, 1 on a domain error, any
errors.ArtifactError (the output is {"error": ...}), 2 on malformed input
or unreadable files.  A stdout that fails before the answer is written, a
reader that left or a full device, gets exit 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .errors import ArtifactError
from .linalg import Matrix, homology_to_json, mat_to_json
from .rings import RingTag, ZZ, canonical_int, parse_ring
from .shuffle import ez_map, shuffle_product, shuffle_to_json
from .simplicial import (
    SimplicialModule,
    _families,
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
    converted to ring; RingError when an entry has no image there.  A module
    is converted through the public constructor, every family at once, so a
    failed conversion is reported before the verb runs, whichever structure
    maps the verb reads."""
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
    faces, degens = _families(
        obj.horizon,
        lambda m, i: obj.face(m, i).change_ring(ring),
        lambda m, i: obj.degen(m, i).change_ring(ring),
    )
    return SimplicialModule(ring, obj.ranks, dict(enumerate(faces, 1)), dict(enumerate(degens)))


def _read(args, reader, *names) -> list:
    """Each named argument's JSON file, parsed by reader with the name as
    error path.  Converted to --ring only once all parse, so a malformed
    file (exit 2) is reported before a failed conversion (exit 1)."""
    objs = [reader(_load(getattr(args, name)), path=name) for name in names]
    if args.ring is not None:
        objs = [change_ring(obj, parse_ring(args.ring)) for obj in objs]
    return objs


def _cmd_homology(args) -> dict:
    [x] = _read(args, complex_from_json, "complex")
    return {"ring": str(x.ring), "H": [homology_to_json(h) for h in homology(x)]}


def _cmd_classify(args) -> dict:
    [f] = _read(args, map_from_json, "map")
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
    [f] = _read(args, map_from_json, "map")
    if args.kind == "trivcof-fib":
        left, right = factor_trivcof_fib(f)
    else:
        left, right = factor_cof_trivfib(f)
    return {"kind": args.kind, "left": map_to_json(left), "right": map_to_json(right)}


def _cmd_lift(args) -> dict:
    f, g, top, bottom = _read(args, map_from_json, "f", "g", "top", "bottom")
    return {"lift": map_to_json(lift_square(f, g, top, bottom))}


def _cmd_dk(args) -> dict:
    [x] = _read(args, complex_from_json, "complex")
    horizon = args.horizon if args.horizon is not None else x.top
    return module_to_json(dk(x, horizon))


def _cmd_nor(args) -> dict:
    [m] = _read(args, module_from_json, "module")
    res = nor(m)
    out = complex_to_json(res.complex)
    out["embeddings"] = [mat_to_json(e) for e in res.embeddings]
    return out


def _cmd_shuffle(args) -> dict:
    x, y = _read(args, complex_from_json, "x", "y")
    return shuffle_to_json(shuffle_product(x, y))


def _cmd_ez_check(args) -> dict:
    x, y = _read(args, complex_from_json, "x", "y")
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
    ring = parse_ring(args.ring) if args.ring is not None else ZZ
    horizon = args.horizon
    m = free_module(nerve(p, horizon), ring)
    complex_ = nor(m).complex
    groups = [homology_to_json(h) for h in homology(complex_)[:horizon]]
    contraction = verify_nerve_contraction(p, horizon, ring)
    return {
        "ring": str(ring),
        "H": groups,
        "least_element": None if contraction.least is None else p.elements[contraction.least],
        "contraction_verified": contraction.verified,
    }


def _cmd_check_identities(args) -> dict:
    [m] = _read(args, module_from_json, "module")
    report = check_simplicial_identities(m)
    return {
        "ok": report.ok,
        "violations": [
            {"kind": kind, "level": lv, "i": i, "j": j}
            for kind, lv, i, j in report.violations
        ],
    }


def _integer(text: str) -> int:
    """An integer option, spelled as a degree key is: canonical decimal."""
    n = canonical_int(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Exact homological algebra over Z, Q, and prime fields.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    complex_, map_ = ("complex", "complex JSON file"), ("map", "map JSON file")
    module, poset = ("module", "module JSON file"), ("poset", "poset JSON file")
    pair = [("x", "left complex JSON file"), ("y", "right complex JSON file")]
    square = [
        ("f", "left map (cofibration) JSON file"),
        ("g", "right map (trivial fibration) JSON file"),
        ("top", "top map JSON file"),
        ("bottom", "bottom map JSON file"),
    ]
    kinds = ("trivcof-fib", "cof-trivfib")
    # verb: handler, help, JSON file arguments as (name, help), other options as (flag, settings)
    verbs = {
        "homology": (_cmd_homology, "homology groups of a complex", [complex_], []),
        "classify": (_cmd_classify, "model-structure classification of a map", [map_], [
            ("--certify", dict(action="store_true", help="also run the generator RLP checks")),
            ("--max-n", dict(type=_integer, help="largest generator degree to check")),
        ]),
        "factor": (_cmd_factor, "factor a map through a middle complex", [map_], [
            ("--kind", dict(required=True, choices=kinds, help="which factorization to compute")),
        ]),
        "lift": (_cmd_lift, "solve a lifting square", square, []),
        "dk": (_cmd_dk, "degreewise sum simplicial module of a complex", [complex_], [
            ("--horizon", dict(type=_integer, help="levels to build (default: top)")),
        ]),
        "nor": (_cmd_nor, "normalized complex of a simplicial module", [module], []),
        "shuffle": (_cmd_shuffle, "shuffle product of two complexes", pair, []),
        "ez-check": (_cmd_ez_check, "comparison map diagnostics for a pair of complexes", pair, []),
        "nerve-homology": (_cmd_nerve_homology, "homology of the nerve of a finite poset", [poset], [
            ("--horizon", dict(type=_integer, default=4, help="nerve levels to build")),
        ]),
        "check-identities": (_cmd_check_identities, "verify the simplicial relations", [module], []),
    }
    for name, (handler, help_, files, options) in verbs.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--ring", help="override/validate the coefficient ring (Z, Q, F<p>)")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        for arg, file_help in files:
            p.add_argument(arg, help=file_help)
        for flag, settings in options:
            p.add_argument(flag, **settings)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = 0, json.dumps(args.handler(args), indent=2 if args.pretty else None)
    except ArtifactError as exc:
        code, text = 1, json.dumps({"error": str(exc)})
    except MemoryError:
        code, text = 1, json.dumps({"error": "out of memory: the answer is too large"})
    except (ValueError, TypeError, KeyError, OSError) as exc:
        code, text = 2, json.dumps({"error": str(exc)})
    try:
        print(text, flush=True)
    except OSError:
        # the reader left or the device is full; point stdout at devnull so
        # that the flush at exit does not fail again on the same file
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code

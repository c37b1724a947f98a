import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

import artifact
from artifact import (
    ZZ,
    ChainMap,
    ConnComplex,
    Matrix,
    chain_poset,
    compose_maps,
    disk,
    dk,
    identity,
    map_from_json,
    map_to_json,
    module_from_json,
    module_to_json,
    poset_to_json,
    sphere,
)
from artifact.chains import complex_to_json, map_from_json as parse_map
from artifact.cli import main

from oracles import non_simplicial_module


def zmat(rows, cols, grid):
    return Matrix(ZZ, rows, cols, tuple(tuple(r) for r in grid))


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def torsion_complex_json():
    return complex_to_json(ConnComplex(ZZ, (1, 1), {1: zmat(1, 1, [[2]])}))


# ---------------------------------------------------------------------------
# happy paths


def test_homology_verb(tmp_path, capsys):
    path = write(tmp_path, "x.json", torsion_complex_json())
    code, out = run(capsys, "homology", path)
    assert code == 0
    assert out == {"ring": "Z", "H": [{"rank": 0, "torsion": [2]}, {"rank": 0}]}


def test_homology_ring_override(tmp_path, capsys):
    path = write(tmp_path, "x.json", torsion_complex_json())
    code, out = run(capsys, "homology", path, "--ring", "Q")
    assert code == 0
    assert out == {"ring": "Q", "H": [{"rank": 0}, {"rank": 0}]}
    code, out = run(capsys, "homology", path, "--ring", "F2")
    assert code == 0
    assert out["H"] == [{"rank": 1}, {"rank": 1}]


def test_pretty_flag_indents(tmp_path, capsys):
    path = write(tmp_path, "x.json", torsion_complex_json())
    assert main(["homology", path, "--pretty"]) == 0
    text = capsys.readouterr().out
    assert "\n  " in text
    assert json.loads(text)["ring"] == "Z"


def test_classify_verb_with_certificate(tmp_path, capsys):
    f = ChainMap(sphere(0), sphere(0), {0: identity(ZZ, 1)})
    path = write(tmp_path, "f.json", map_to_json(f))
    code, out = run(capsys, "classify", path)
    assert code == 0
    assert out == {
        "fibration": True,
        "cofibration": True,
        "weak_equivalence": True,
        "trivial_fibration": True,
        "trivial_cofibration": True,
    }
    code, out = run(capsys, "classify", path, "--certify")
    assert code == 0
    assert out["rlp"]["max_n"] == 1
    assert out["rlp"]["point_surjection"] is True
    assert out["rlp"]["certifies_trivial_fibration"] is True
    assert out["rlp"]["matches_classifier"] is True
    code, out = run(capsys, "classify", path, "--certify", "--max-n", "0")
    assert code == 0
    assert out["rlp"]["max_n"] == 0
    assert out["rlp"]["sphere_to_disk"] == []
    assert out["rlp"]["zero_to_disk"] == []


def test_factor_verbs_compose_back(tmp_path, capsys):
    f = ChainMap(sphere(0), sphere(0), {0: zmat(1, 1, [[2]])})
    path = write(tmp_path, "f.json", map_to_json(f))
    for kind in ("trivcof-fib", "cof-trivfib"):
        code, out = run(capsys, "factor", path, "--kind", kind)
        assert code == 0
        assert out["kind"] == kind
        left = parse_map(out["left"])
        right = parse_map(out["right"])
        assert compose_maps(right, left) == f


def test_lift_verb(tmp_path, capsys):
    zero = ConnComplex(ZZ, (0,), {})
    f = ChainMap(zero, sphere(0), {})
    g = ChainMap(sphere(0), sphere(0), {0: identity(ZZ, 1)})
    top = ChainMap(zero, sphere(0), {})
    bottom = ChainMap(sphere(0), sphere(0), {0: identity(ZZ, 1)})
    paths = [
        write(tmp_path, name, map_to_json(m))
        for name, m in (("f.json", f), ("g.json", g), ("t.json", top), ("b.json", bottom))
    ]
    code, out = run(capsys, "lift", *paths)
    assert code == 0
    lift = parse_map(out["lift"])
    assert lift.component(0) == identity(ZZ, 1)


def test_dk_verb(tmp_path, capsys):
    path = write(tmp_path, "x.json", complex_to_json(sphere(1)))
    code, out = run(capsys, "dk", path, "--horizon", "2")
    assert code == 0
    m = module_from_json(out)
    assert m.ranks == (0, 1, 2)
    code, out = run(capsys, "dk", path)
    assert code == 0
    assert module_from_json(out).ranks == (0, 1)


def test_nor_verb(tmp_path, capsys):
    path = write(tmp_path, "m.json", module_to_json(dk(disk(1), 2)))
    code, out = run(capsys, "nor", path)
    assert code == 0
    assert out["ranks"] == [1, 1, 0]
    assert len(out["embeddings"]) == 3


def test_shuffle_verb(tmp_path, capsys):
    x = write(tmp_path, "x.json", complex_to_json(sphere(1)))
    y = write(tmp_path, "y.json", complex_to_json(sphere(1)))
    code, out = run(capsys, "shuffle", x, y)
    assert code == 0
    assert out["ranks"] == [0, 1, 2]
    assert out["blocks"][2][0] == {"f": [0, 1, 1], "g": [0, 0, 1], "k": 1, "l": 1}


def test_ez_check_verb(tmp_path, capsys):
    x = write(tmp_path, "x.json", torsion_complex_json())
    y = write(tmp_path, "y.json", complex_to_json(sphere(1)))
    code, out = run(capsys, "ez-check", x, y)
    assert code == 0
    assert out["chain_map"] is True
    assert out["cone_exact"] is True
    assert out["homology"]["match"] is True


def test_nerve_homology_verb(tmp_path, capsys):
    path = write(tmp_path, "p.json", poset_to_json(chain_poset(2)))
    code, out = run(capsys, "nerve-homology", path)
    assert code == 0
    assert out["ring"] == "Z"
    assert out["H"] == [{"rank": 1}, {"rank": 0}, {"rank": 0}, {"rank": 0}]
    assert out["least_element"] == 0
    assert out["contraction_verified"] is True
    code, out = run(capsys, "nerve-homology", path, "--horizon", "2", "--ring", "F3")
    assert code == 0
    assert out["ring"] == "F3" and len(out["H"]) == 2


def test_nerve_homology_without_least_element(tmp_path, capsys):
    obj = {"elements": ["x", "y"], "leq": [[True, False], [False, True]]}
    path = write(tmp_path, "p.json", obj)
    code, out = run(capsys, "nerve-homology", path, "--horizon", "2")
    assert code == 0
    assert out["least_element"] is None
    assert out["contraction_verified"] is False
    assert out["H"][0] == {"rank": 2}


def test_check_identities_verb(tmp_path, capsys):
    good = dk(disk(2), 2)
    path = write(tmp_path, "m.json", module_to_json(good))
    code, out = run(capsys, "check-identities", path)
    assert code == 0
    assert out == {"ok": True, "violations": []}

    obj = module_to_json(good)
    obj["faces"]["2"][1]["entries"][0][0] += 1
    path = write(tmp_path, "bad.json", obj)
    code, out = run(capsys, "check-identities", path)
    assert code == 0
    assert out["ok"] is False
    assert out["violations"]
    first = out["violations"][0]
    assert set(first) == {"kind", "level", "i", "j"}


# ---------------------------------------------------------------------------
# error handling


def test_domain_errors_exit_one(tmp_path, capsys):
    # d^2 != 0
    bad = {
        "ring": "Z",
        "top": 2,
        "ranks": [1, 1, 1],
        "diffs": {
            "1": {"rows": 1, "cols": 1, "entries": [[1]]},
            "2": {"rows": 1, "cols": 1, "entries": [[1]]},
        },
    }
    path = write(tmp_path, "bad.json", bad)
    code, out = run(capsys, "homology", path)
    assert code == 1
    assert "error" in out

    # entries that do not convert to the requested ring
    rational = {
        "ring": "Q",
        "top": 1,
        "ranks": [1, 1],
        "diffs": {"1": {"rows": 1, "cols": 1, "entries": [["1/2"]]}},
    }
    path = write(tmp_path, "half.json", rational)
    code, out = run(capsys, "homology", path, "--ring", "Z")
    assert code == 1
    assert "error" in out

    # unknown ring name
    path = write(tmp_path, "x.json", torsion_complex_json())
    code, out = run(capsys, "homology", path, "--ring", "F4")
    assert code == 1
    assert "error" in out


def test_nor_on_a_non_simplicial_module_exits_one(tmp_path, capsys):
    path = write(tmp_path, "m.json", module_to_json(non_simplicial_module(random.Random(701))))
    code = main(["nor", path])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert list(json.loads(captured.out)) == ["error"]

    # the check must not be an assert that -O strips
    src = os.path.dirname(os.path.dirname(artifact.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "artifact", "nor", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    assert list(json.loads(proc.stdout)) == ["error"]


def run_capped(tmp_path, ranks, verb, *options):
    """The CLI verb on a complex of the given ranks with no differentials,
    in a child that may map 512 MB in all."""
    pytest.importorskip("resource")
    path = write(tmp_path, "huge.json", {"ring": "Z", "top": len(ranks) - 1, "ranks": ranks})
    cap = 512 * 2**20
    child = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from artifact.cli import main\n"
        "sys.exit(main())\n"
    )
    src = os.path.dirname(os.path.dirname(artifact.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", child, verb, path, *options],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("ranks, large", [([1, 10**8], 1), ([10**8, 1], 0)])
def test_homology_of_a_huge_declared_rank_fits_a_small_address_space(tmp_path, ranks, large):
    # a 1 x 10^8 zero differential stored densely takes about 800 MB
    proc = run_capped(tmp_path, ranks, "homology")
    assert proc.returncode == 0 and proc.stderr == ""
    groups = json.loads(proc.stdout)["H"]
    assert groups[large] == {"rank": 10**8}
    assert groups[1 - large] == {"rank": 1}


@pytest.mark.parametrize("ranks, extra", [([1, 10**8], []), ([10**8, 1], ["--horizon", "1"])])
def test_dk_of_a_huge_declared_rank_runs_out_of_memory_with_one_error_document(tmp_path, ranks, extra):
    # the answer itself is too large: dense JSON rows of a 1 x 10^8 face,
    # or a 10^8 x 10^8 identity block of a degeneracy
    proc = run_capped(tmp_path, ranks, "dk", *extra)
    assert proc.returncode == 1 and proc.stderr == ""
    assert list(json.loads(proc.stdout)) == ["error"]


def test_malformed_input_exits_two(tmp_path, capsys):
    code, out = run(capsys, "homology", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in out

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run(capsys, "homology", str(path))
    assert code == 2 and "error" in out

    schema = write(tmp_path, "schema.json", {"ring": "Z", "ranks": [1]})
    code, out = run(capsys, "homology", schema)
    assert code == 2 and "error" in out

    # deeper than the decoder's recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, out = run(capsys, "homology", str(path))
    assert code == 2 and "error" in out

    exponent = {
        "ring": "Q",
        "top": 1,
        "ranks": [1, 1],
        "diffs": {"1": {"rows": 1, "cols": 1, "entries": [["1e100000000"]]}},
    }
    code, out = run(capsys, "homology", write(tmp_path, "exponent.json", exponent))
    assert code == 2 and "exponent" in out["error"]

    # a degree has one spelling, and a scalar string has no digit separators
    def one(x):
        return {"rows": 1, "cols": 1, "entries": [[x]]}

    for key in ("01", "+1", " 1", "1_0"):
        doc = {"ring": "Z", "top": 1, "ranks": [1, 1], "diffs": {key: one(2)}}
        code, out = run(capsys, "homology", write(tmp_path, "key.json", doc))
        assert code == 2 and out["error"].startswith("complex.diffs: "), key
    collide = {"ring": "Z", "top": 1, "ranks": [1, 1], "diffs": {"1": one(2), "01": one(3)}}
    code, out = run(capsys, "homology", write(tmp_path, "collide.json", collide))
    assert code == 2 and "'01'" in out["error"]
    for text in ("1_0", "1_0/3"):
        doc = {"ring": "Q", "top": 1, "ranks": [1, 1], "diffs": {"1": one(text)}}
        code, out = run(capsys, "homology", write(tmp_path, "underscore.json", doc))
        assert code == 2 and out["error"].startswith("complex.diffs.1.entries[0]: "), text

    wrong_shape = {
        "ring": "Z",
        "top": 1,
        "ranks": [1, 1],
        "diffs": {"1": {"rows": 2, "cols": 1, "entries": [[1], [0]]}},
    }
    path = write(tmp_path, "shape.json", wrong_shape)
    code, out = run(capsys, "homology", path)
    assert code == 1 and "error" in out


def test_unknown_verb_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_lift_square_error_reports_exit_one(tmp_path, capsys):
    zero = ConnComplex(ZZ, (0,), {})
    f = ChainMap(zero, sphere(0), {})
    g = ChainMap(sphere(0), sphere(0), {0: identity(ZZ, 1)})
    top = ChainMap(zero, sphere(0), {})
    doubling = ChainMap(sphere(0), sphere(0), {0: zmat(1, 1, [[2]])})
    paths = [
        write(tmp_path, name, map_to_json(m))
        for name, m in (("f.json", f), ("g.json", g), ("t.json", top), ("b.json", doubling))
    ]
    code, out = run(capsys, "lift", *paths)
    assert code == 0  # the square g h = 2 has the solution h = 2
    lift = parse_map(out["lift"])
    assert lift.component(0) == zmat(1, 1, [[2]])

    # break commutation instead: mismatched endpoints
    wrong = ChainMap(sphere(1), sphere(1), {1: identity(ZZ, 1)})
    paths[2] = write(tmp_path, "t2.json", map_to_json(wrong))
    code, out = run(capsys, "lift", *paths)
    assert code == 1 and "error" in out


# ---------------------------------------------------------------------------
# fuzzed documents: whatever the input, one JSON document and exit 0, 1 or 2


def fuzz_bases():
    """Small valid documents with every matrix present and nonzero, so a
    mutated rank meets a shape check before any zero block is built."""
    x = ConnComplex(ZZ, (1, 2, 1), {1: zmat(1, 2, [[1, -1]]), 2: zmat(2, 1, [[1], [1]])})
    half = {"ring": "Q", "top": 1, "ranks": [1, 1], "diffs": {"1": {"rows": 1, "cols": 1, "entries": [["1/2"]]}}}
    ident = ChainMap(x, x, {n: identity(ZZ, x.rank(n)) for n in range(3)})
    collapse = ChainMap(
        ConnComplex(ZZ, (2, 1), {1: zmat(2, 1, [[0], [1]])}), sphere(0), {0: zmat(1, 2, [[1, 0]])}
    )
    return {
        "complex": [complex_to_json(x), half],
        "map": [map_to_json(ident), map_to_json(collapse)],
        "module": [module_to_json(dk(disk(1), 2))],
    }


FUZZ_BASES = fuzz_bases()
FUZZ_VERBS = {
    "complex": [["homology"], ["dk"], ["ez-check", "{doc}"]],
    "map": [["classify", "--certify"], ["factor", "--kind", "cof-trivfib"]],
    "module": [["nor"], ["check-identities"]],
}
WRONG_TYPES = [None, "x", "1/0", 1.5, True, -7, [], {}, [[1]]]
BAD_RANKS = [-1, -(2**40), 10**9, 2**63]
BAD_RINGS = ["F4", "F1", "F", "R", "", "f2", "ZZ", "F" + "7" * 5000, 2, None]


def json_slots(node, out):
    """Every (container, key) in a JSON tree, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        out.append((node, key))
        json_slots(value, out)
    return out


@st.composite
def mutated_document(draw):
    kind = draw(st.sampled_from(sorted(FUZZ_BASES)))
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES[kind]))))
    slots = json_slots(doc, [])
    mutation = draw(st.sampled_from(["drop", "retype", "ragged", "rank", "ring"]))
    if mutation == "drop":
        node, key = draw(st.sampled_from([s for s in slots if isinstance(s[0], dict)]))
        del node[key]
    elif mutation == "retype":
        node, key = draw(st.sampled_from(slots))
        node[key] = draw(st.sampled_from(WRONG_TYPES))
    elif mutation == "ragged":
        node, key = draw(st.sampled_from([s for s in slots if s[1] == "entries" and s[0][s[1]]]))
        row = node[key][draw(st.integers(0, len(node[key]) - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(0)
    elif mutation == "rank":
        node = draw(st.sampled_from([n[k] for n, k in slots if k == "ranks"]))
        node[draw(st.integers(0, len(node) - 1))] = draw(st.sampled_from(BAD_RANKS))
    else:
        node = draw(st.sampled_from([n for n, k in slots if k == "ring"]))
        node["ring"] = draw(st.sampled_from(BAD_RINGS))
    return kind, doc


@given(mutated_document(), st.data())
def test_cli_answers_every_mutated_document_with_one_json_document(case, data):
    kind, doc = case
    verb = data.draw(st.sampled_from(FUZZ_VERBS[kind]))
    ring = data.draw(st.sampled_from([[], ["--ring", "Q"], ["--ring", "F2"]]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [verb[0], path] + [path if a == "{doc}" else a for a in verb[1:]] + ring
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    json.loads(out.getvalue())  # exactly one document
    assert err.getvalue() == ""

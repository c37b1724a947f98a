import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

import artifact
from artifact import (
    GF,
    QQ,
    ZZ,
    ChainMap,
    ConnComplex,
    Matrix,
    chain_poset,
    classify,
    compose_maps,
    disk,
    dk,
    factor_cof_trivfib,
    factor_trivcof_fib,
    identity,
    lift_square,
    map_from_json,
    map_to_json,
    module_from_json,
    module_to_json,
    poset_to_json,
    sphere,
)
import artifact.cli as cli
from artifact import errors
from artifact.chains import complex_from_json, complex_to_json, map_from_json as parse_map
from artifact.cli import _load, change_ring, main

from oracles import (
    degeneracy_violating_module,
    non_simplicial_module,
    random_chain_map,
    random_complex,
    random_lifting_square,
)


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
    # the exact bytes pin the key order of both report objects
    assert main(["classify", path, "--certify"]) == 0
    assert capsys.readouterr().out == (
        '{"fibration": true, "cofibration": true, "weak_equivalence": true, '
        '"trivial_fibration": true, "trivial_cofibration": true, "rlp": {"max_n": 1, '
        '"point_surjection": true, "sphere_to_disk": [true], "zero_to_disk": [true], '
        '"certifies_trivial_fibration": true, "certifies_fibration": true, '
        '"matches_classifier": true}}\n'
    )
    code, out = run(capsys, "classify", path, "--certify", "--max-n", "0")
    assert code == 0
    assert out["rlp"]["max_n"] == 0
    assert out["rlp"]["sphere_to_disk"] == []
    assert out["rlp"]["zero_to_disk"] == []
    code = main(["classify", path, "--certify", "--max-n", "-3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"error": "rlp_generator_check needs max_n >= 0"}


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
    code = main(["dk", path, "--horizon", "-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"error": "dk needs horizon >= 0"}


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
    code, out = run(capsys, "nerve-homology", path, "--horizon", "-1")
    assert code == 1
    assert out == {"error": "nerve needs horizon >= 0"}


def test_nerve_homology_names_the_least_element_itself(tmp_path, capsys):
    # a is least but sits at index 1
    obj = {"elements": ["b", "a"], "leq": [[True, False], [True, True]]}
    code, out = run(capsys, "nerve-homology", write(tmp_path, "p.json", obj), "--horizon", "2")
    assert code == 0
    assert out["least_element"] == "a"
    assert out["contraction_verified"] is True


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


def test_check_identities_names_a_broken_degeneracy_relation(tmp_path, capsys):
    path = write(tmp_path, "m.json", module_to_json(degeneracy_violating_module()))
    code, out = run(capsys, "check-identities", path)
    assert code == 0
    assert out == {"ok": False, "violations": [{"kind": "degen-degen", "level": 0, "i": 0, "j": 0}]}


# ---------------------------------------------------------------------------
# --ring: the answer of the library on the input converted by change_ring

CONVERTED_RINGS = [GF(2), GF(5), QQ]


def json_of(obj):
    return json.loads(json.dumps(obj))


def integer_maps():
    """The doubling of S(0), which is an isomorphism over Q and F5 and zero
    over F2, then seeded random maps over Z."""
    rng = random.Random(4201)
    doubling = ChainMap(sphere(0), sphere(0), {0: zmat(1, 1, [[2]])})
    return [doubling] + [random_chain_map(rng, ZZ) for _ in range(5)]


@pytest.mark.parametrize("ring", CONVERTED_RINGS, ids=str)
def test_classify_with_ring_answers_for_the_converted_map(tmp_path, capsys, ring):
    for f in integer_maps():
        path = write(tmp_path, "f.json", map_to_json(f))
        code, out = run(capsys, "classify", path, "--ring", str(ring))
        mc = classify(change_ring(f, ring))
        assert code == 0
        assert out == dict(
            asdict(mc), trivial_fibration=mc.trivial_fibration, trivial_cofibration=mc.trivial_cofibration
        )


@pytest.mark.parametrize("ring", CONVERTED_RINGS, ids=str)
@pytest.mark.parametrize(
    "kind, factor", [("trivcof-fib", factor_trivcof_fib), ("cof-trivfib", factor_cof_trivfib)]
)
def test_factor_with_ring_answers_for_the_converted_map(tmp_path, capsys, ring, kind, factor):
    for f in integer_maps():
        path = write(tmp_path, "f.json", map_to_json(f))
        code, out = run(capsys, "factor", path, "--kind", kind, "--ring", str(ring))
        left, right = factor(change_ring(f, ring))
        assert code == 0
        want = {"kind": kind, "left": map_to_json(left), "right": map_to_json(right)}
        assert out == json_of(want)


@pytest.mark.parametrize("ring", CONVERTED_RINGS, ids=str)
def test_lift_with_ring_answers_for_the_converted_square(tmp_path, capsys, ring):
    rng = random.Random(4202)
    for _ in range(5):
        square = random_lifting_square(rng, ZZ)
        paths = [write(tmp_path, f"{name}.json", map_to_json(m)) for name, m in zip("fgtb", square)]
        code, out = run(capsys, "lift", *paths, "--ring", str(ring))
        lift = lift_square(*(change_ring(m, ring) for m in square))
        assert code == 0
        assert out == json_of({"lift": map_to_json(lift)})


def test_ring_option_naming_the_document_ring_returns_the_input(tmp_path, capsys):
    doc = torsion_complex_json()
    x = complex_from_json(doc)
    assert change_ring(x, ZZ) is x
    path = write(tmp_path, "x.json", doc)
    assert run(capsys, "homology", path, "--ring", "Z") == run(capsys, "homology", path)


def test_ring_tags_have_one_spelling(tmp_path, capsys):
    doc = {**torsion_complex_json(), "ring": "F03"}
    code, out = run(capsys, "homology", write(tmp_path, "x.json", doc))
    assert code == 1 and out == {"error": "unknown ring tag 'F03'"}
    path = write(tmp_path, "x.json", torsion_complex_json())
    for tag in ("F\u0663", ""):
        code, out = run(capsys, "homology", path, "--ring", tag)
        assert code == 1 and out == {"error": f"unknown ring tag {tag!r}"}
    poset = write(tmp_path, "p.json", poset_to_json(chain_poset(1)))
    code, out = run(capsys, "nerve-homology", poset, "--ring", "")
    assert code == 1 and out == {"error": "unknown ring tag ''"}


def test_a_composite_modulus_that_fools_twelve_bases_exits_one(tmp_path, capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
    # pseudoprime to the first 12 prime bases, and so once named a field
    # whose inverses raised a bare ValueError (exit 2)
    tag = "F318665857834031151167461"
    tagged = write(tmp_path, "f.json", {**torsion_complex_json(), "ring": tag})
    integral = write(tmp_path, "z.json", torsion_complex_json())
    for argv in (["homology", tagged], ["homology", integral, "--ring", tag]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert json.loads(captured.out) == {"error": "modulus 318665857834031151167461 is not prime"}


@pytest.mark.parametrize(
    "verb, option, value",
    [
        ("dk", "--horizon", "1_0"),
        ("dk", "--horizon", "\u0663"),
        ("dk", "--horizon", "03"),
        ("dk", "--horizon", " 3"),
        ("nerve-homology", "--horizon", "+3"),
        ("classify", "--max-n", "-0"),
    ],
)
def test_integer_options_have_one_spelling(capsys, verb, option, value):
    with pytest.raises(SystemExit) as exc:
        main([verb, "doc.json", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"invalid int value: {value!r}" in captured.err


def test_a_closed_stdout_takes_the_answer_silently(tmp_path, monkeypatch):
    # the interpreter sets sys.stdout to None when it starts without fd 1
    path = write(tmp_path, "x.json", torsion_complex_json())
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["homology", path]) == 0


def child_env() -> dict:
    """The environment in which a child interpreter imports artifact from
    this source tree."""
    src = os.path.dirname(os.path.dirname(artifact.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_a_reader_that_leaves_early_gets_exit_one_and_no_traceback(tmp_path):
    # horizon 14 writes 89 KB, more than a pipe holds, so the write meets the
    # closed pipe whenever the reader leaves
    path = write(tmp_path, "x.json", torsion_complex_json())
    argv = [sys.executable, "-m", "artifact", "dk", path, "--horizon", "14"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_gets_exit_one_and_no_traceback(tmp_path):
    argv = [sys.executable, "-m", "artifact", "homology", write(tmp_path, "x.json", torsion_complex_json())]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=child_env(), timeout=120)
    assert proc.returncode == 1 and proc.stderr == b""


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


def test_a_fraction_only_in_a_degeneracy_fails_the_conversion_before_nor(tmp_path, capsys):
    # nor reads only faces, so the conversion must not wait for a read:
    # change_ring converts every family of a module before the verb runs
    x = ConnComplex(QQ, (1, 1), {1: Matrix.from_rows(QQ, [[2]])})
    doc = json_of(module_to_json(dk(x, 2)))
    doc["degens"]["0"][0]["entries"][0][0] = "1/2"
    path = write(tmp_path, "m.json", doc)
    code, out = run(capsys, "nor", path)
    assert code == 0 and "error" not in out
    code = main(["nor", path, "--ring", "Z"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    out = json.loads(captured.out)
    assert list(out) == ["error"] and out["error"].startswith("cannot convert entries to Z")


def test_nor_on_a_non_simplicial_module_exits_one(tmp_path, capsys):
    path = write(tmp_path, "m.json", module_to_json(non_simplicial_module(random.Random(701))))
    code = main(["nor", path])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert list(json.loads(captured.out)) == ["error"]

    # the check must not be an assert that -O strips
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "artifact", "nor", path],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    assert list(json.loads(proc.stdout)) == ["error"]


def undifferentiated(ranks):
    """The document of a complex of the given ranks with no differentials."""
    return {"ring": "Z", "top": len(ranks) - 1, "ranks": ranks}


def run_capped(tmp_path, document, verb, *options):
    """The CLI verb on the complex document, in a child that may map 512 MB
    in all."""
    pytest.importorskip("resource")
    path = write(tmp_path, "x.json", document)
    cap = 512 * 2**20
    child = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from artifact.cli import main\n"
        "sys.exit(main())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", child, verb, path, *options],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )


@pytest.mark.parametrize("ranks, large", [([1, 10**8], 1), ([10**8, 1], 0)])
def test_homology_of_a_huge_declared_rank_fits_a_small_address_space(tmp_path, ranks, large):
    # a 1 x 10^8 zero differential stored densely takes about 800 MB
    proc = run_capped(tmp_path, undifferentiated(ranks), "homology")
    assert proc.returncode == 0 and proc.stderr == ""
    groups = json.loads(proc.stdout)["H"]
    assert groups[large] == {"rank": 10**8}
    assert groups[1 - large] == {"rank": 1}


@pytest.mark.parametrize("ranks, extra", [([1, 10**8], []), ([10**8, 1], ["--horizon", "1"])])
def test_dk_of_a_huge_declared_rank_runs_out_of_memory_with_one_error_document(tmp_path, ranks, extra):
    # the answer itself is too large: dense JSON rows of a 1 x 10^8 face,
    # or a 10^8 x 10^8 identity block of a degeneracy
    proc = run_capped(tmp_path, undifferentiated(ranks), "dk", *extra)
    assert proc.returncode == 1 and proc.stderr == ""
    assert list(json.loads(proc.stdout)) == ["error"]


def test_dk_far_above_the_top_exits_zero_with_one_document(tmp_path):
    # level n of Z -2-> Z sums X_0 and X_1 over the n + 1 surjections onto
    # [0] or [1]; the other 2^n - n - 1 summands out of [n] are zero
    proc = run_capped(tmp_path, torsion_complex_json(), "dk", "--horizon", "30")
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["ranks"] == list(range(1, 32))


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

    # a key once per object, no unknown key, and no true or false for a number
    path = tmp_path / "twice.json"
    path.write_text('{"ring": "Z", "top": 1, "ranks": [1, 1], "diffs": {"1": %s, "1": %s}}' % (json.dumps(one(2)), json.dumps(one(3))))
    code, out = run(capsys, "homology", str(path))
    assert code == 2 and out["error"] == f"{path}: duplicate key '1'"
    base = {"ring": "Z", "top": 1, "ranks": [1, 1]}
    flag = {"rows": True, "cols": True, "entries": [[2]]}
    for doc, prefix in (
        ({**base, "difs": {"1": one(2)}}, "complex.difs: "),
        ({**base, "diffs": {"1": {**one(2), "extra": 0}}}, "complex.diffs.1.extra: "),
        ({**base, "top": True, "diffs": {"1": flag}}, "complex.top: "),
        ({**base, "diffs": {"1": flag}}, "complex.diffs.1: "),
    ):
        code, out = run(capsys, "homology", write(tmp_path, "strict.json", doc))
        assert code == 2 and out["error"].startswith(prefix), prefix
    ident = {**map_to_json(ChainMap(sphere(0), sphere(0), {0: identity(ZZ, 1)})), "extra": 0}
    code, out = run(capsys, "classify", write(tmp_path, "map.json", ident))
    assert code == 2 and out["error"].startswith("map.extra: ")
    poset = {**poset_to_json(chain_poset(1)), "extra": 0}
    code, out = run(capsys, "nerve-homology", write(tmp_path, "poset.json", poset))
    assert code == 2 and out["error"].startswith("poset.extra: ")

    wrong_shape = {
        "ring": "Z",
        "top": 1,
        "ranks": [1, 1],
        "diffs": {"1": {"rows": 2, "cols": 1, "entries": [[1], [0]]}},
    }
    path = write(tmp_path, "shape.json", wrong_shape)
    code, out = run(capsys, "homology", path)
    assert code == 1 and "error" in out


# each edit breaks the face maps of the module dk(D(1), 1), which has
# horizon 1, so faces at level 1 only, two of them
MALFORMED_MODULE_FACES = [
    ("level-absent", lambda faces: faces.pop("1"), "module: face maps missing at level 1"),
    ("family-short", lambda faces: faces["1"].pop(), "module: level 1 needs 2 face maps, got 1"),
    (
        "extra-level",
        lambda faces: faces.update({"2": faces["1"] + faces["1"][:1]}),
        "module: face maps given outside levels 1..1: [2]",
    ),
    (
        "family-not-a-list",
        lambda faces: faces.update({"1": faces["1"][0]}),
        "module.faces.1: expected a list of matrices",
    ),
    (
        "key-not-canonical",
        lambda faces: faces.update({"01": faces.pop("1")}),
        "module.faces: degree keys must be integers in canonical decimal form, got '01'",
    ),
]


@pytest.mark.parametrize(
    "edit, message",
    [row[1:] for row in MALFORMED_MODULE_FACES],
    ids=[row[0] for row in MALFORMED_MODULE_FACES],
)
def test_malformed_module_document_exits_two_with_one_error(tmp_path, capsys, edit, message):
    doc = module_to_json(dk(disk(1), 1))
    edit(doc["faces"])
    code = main(["check-identities", write(tmp_path, "m.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out) == {"error": message}


# (verb, document, message): the reader guards that no other test reaches
MALFORMED_DOCUMENTS = [
    (
        "diffs-not-an-object",
        "homology",
        {"ring": "Z", "top": 1, "ranks": [1, 1], "diffs": []},
        "complex.diffs: expected an object",
    ),
    (
        "matrix-rows-short",
        "homology",
        {"ring": "Z", "top": 1, "ranks": [2, 1], "diffs": {"1": {"rows": 2, "cols": 1, "entries": [[1]]}}},
        "complex.diffs.1.entries: expected 2 rows",
    ),
    (
        "elements-not-a-list",
        "nerve-homology",
        {"elements": "ab", "leq": [[True, False], [False, True]]},
        "poset.elements: expected a list",
    ),
]


@pytest.mark.parametrize(
    "verb, document, message",
    [row[1:] for row in MALFORMED_DOCUMENTS],
    ids=[row[0] for row in MALFORMED_DOCUMENTS],
)
def test_malformed_document_exits_two_with_its_exact_message(tmp_path, capsys, verb, document, message):
    code = main([verb, write(tmp_path, "doc.json", document)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out) == {"error": message}


# ---------------------------------------------------------------------------
# the error contract: every domain error is an ArtifactError and exits 1

ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and cls.__module__ == errors.__name__ and cls is not errors.ArtifactError
]


def test_every_exception_class_is_an_artifact_error_defined_in_errors():
    # a static check: the command line catches ArtifactError, so a domain
    # error defined elsewhere, or not derived from it, would exit 2
    import ast
    import importlib
    import pathlib

    exported = {v for v in vars(artifact).values() if isinstance(v, type) and issubclass(v, BaseException)}
    assert exported == set(ERROR_CLASSES) and errors.DomainError in exported
    assert all(issubclass(cls, errors.ArtifactError) for cls in ERROR_CLASSES)
    elsewhere = []
    for path in sorted(pathlib.Path(artifact.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                # every class is defined at module level, so it can be looked up
                cls = getattr(importlib.import_module(f"artifact.{path.stem}"), node.name, None)
                if not isinstance(cls, type) or issubclass(cls, BaseException):
                    elsewhere.append(f"{path.name}:{node.lineno} {node.name}")
    assert elsewhere == []


@pytest.mark.parametrize(
    "error, code",
    [(cls, 1) for cls in ERROR_CLASSES] + [(cls, 2) for cls in (ValueError, TypeError, KeyError, OSError)],
    ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
)
def test_a_handler_error_exits_by_its_class(tmp_path, capsys, monkeypatch, error, code):
    def raising(args):
        raise error("refused")

    monkeypatch.setattr(cli, "_cmd_homology", raising)
    assert main(["homology", str(tmp_path / "unread.json")]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": str(error("refused"))}


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


def run_fuzzed(kind, text, data):
    """Exit status and stdout of a verb drawn for kind, on the document text."""
    verb = data.draw(st.sampled_from(FUZZ_VERBS[kind]))
    ring = data.draw(st.sampled_from([[], ["--ring", "Q"], ["--ring", "F2"]]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [verb[0], path] + [path if a == "{doc}" else a for a in verb[1:]] + ring
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())  # exactly one document


@given(mutated_document(), st.data())
def test_cli_answers_every_mutated_document_with_one_json_document(case, data):
    kind, doc = case
    code, _ = run_fuzzed(kind, json.dumps(doc), data)
    assert code in (0, 1, 2)


def dumps_repeating(node, target, key, value):
    """JSON text of node in which the object target holds key a second
    time, last, with value."""
    if isinstance(node, dict):
        items = [(k, dumps_repeating(v, target, key, value)) for k, v in node.items()]
        if node is target:
            items.append((key, json.dumps(value)))
        return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(dumps_repeating(v, target, key, value) for v in node) + "]"
    return json.dumps(node)


DEGREE_FIELDS = ("diffs", "components", "faces", "degens")


@st.composite
def grammar_mutated_document(draw):
    """A valid document broken at the level of its grammar: a key renamed
    or repeated, a degree key respelled, or an underscore in a scalar."""
    kind = draw(st.sampled_from(sorted(FUZZ_BASES)))
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES[kind]))))
    slots = json_slots(doc, [])
    objects = [doc] + [n[k] for n, k in slots if isinstance(n[k], dict) and n[k]]
    mutation = draw(st.sampled_from(["rename", "repeat", "degree", "underscore"]))
    if mutation == "repeat":
        node = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(node)))
        return kind, dumps_repeating(doc, node, key, draw(st.sampled_from([node[key]] + WRONG_TYPES)))
    if mutation == "underscore":
        row = draw(st.sampled_from([row for n, k in slots if k == "entries" for row in n[k] if row]))
        j = draw(st.integers(0, len(row) - 1))
        text = str(row[j])
        digits = 1 if text.startswith("-") else 0
        row[j] = text[:digits] + "0_" + text[digits:]
        return kind, json.dumps(doc)
    if mutation == "rename":
        node = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(node)))
        new = key + draw(st.sampled_from(["s", "x", "_", " "]))
    else:
        node = draw(st.sampled_from([n[k] for n, k in slots if k in DEGREE_FIELDS and n[k]]))
        key = draw(st.sampled_from(sorted(node)))
        new = draw(st.sampled_from(["0", "+", " ", "0_"])) + key
    node[new] = node.pop(key)
    return kind, json.dumps(doc)


@given(grammar_mutated_document(), st.data())
def test_cli_refuses_every_grammar_mutation(case, data):
    kind, text = case
    code, out = run_fuzzed(kind, text, data)
    assert code == 2 and list(out) == ["error"]


def test_every_written_document_reads_back_unchanged(tmp_path):
    """What complex_to_json, map_to_json and module_to_json write passes the
    CLI's loader and the strict readers, and reads back as the same object."""
    rng = random.Random(2029)
    for ring in (ZZ, QQ, GF(2), GF(5)):
        for _ in range(10):
            cases = (
                (random_complex(rng, ring), complex_to_json, complex_from_json),
                (random_chain_map(rng, ring), map_to_json, map_from_json),
                (dk(random_complex(rng, ring, 2, 2), rng.randint(0, 3)), module_to_json, module_from_json),
            )
            for obj, to_json, from_json in cases:
                assert from_json(_load(write(tmp_path, "doc.json", to_json(obj)))) == obj

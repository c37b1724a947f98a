"""The benchmark workloads.

Each workload builds its inputs from a seed in its constructor (the set-up),
exposes them as a list of ops (label, zero-argument callable), and checks one
op's answer outside the timed region.  Every workload is a closed loop with
one caller: the next op starts when the previous one has returned.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import artifact as A

import gen
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CLI_TIMEOUT_S = 60


class Workload:
    name = ""
    why = ""
    stresses = ""
    bypasses = ""
    known_defects: tuple[str, ...] = ()
    runs_in_children = False  # peak RSS is then taken over the children

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ops: list[tuple[str, object]] = []
        # set by a traced run: the pass's Tracer and its mode ("plain",
        # "span" or "count"); only the cli workload, whose ops run in child
        # processes, reads them
        self.tracer = None
        self.trace_mode = None

    def warm_up(self) -> None:
        """Run the first op once, untimed, so lazy imports and any caches
        are in place before timing.  The first op has the same shape on
        every seed, so the set-up time does not depend on the seed."""
        self.ops[0][1]()

    def check(self, i: int, result, first: dict) -> str | None:
        """Why op i's answer is wrong, or None.  ``first`` maps op indices
        to the first answer each op gave in this run."""
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError

    def answer(self, result):
        """The part of a result that tracing must not change."""
        return result

    def is_known_defect(self, i: int) -> bool:
        return False

    def layer_extras(self) -> dict:
        return {}

    def close(self) -> None:
        pass

    def describe(self) -> dict:
        return {
            "why": self.why,
            "stresses": self.stresses,
            "bypasses": self.bypasses,
            "seed": self.seed,
            "ops_per_pass": len(self.ops),
            "inputs": self.properties(),
            "known_defects": list(self.known_defects),
        }


# --------------------------------------------------------------------------
# dk_shuffle


# (ranks of X, ranks of Y); every shape is used once over Z and once over
# F_2.  The op costs lie within a factor of two of each other, so the ops
# beyond the tail percentile are much the same whichever number of passes
# a run manages.
DK_SHAPES = (
    ((1,), (2, 1)),
    ((2, 1), (1, 2, 1)),
    ((2, 2), (2, 2)),
    ((1, 2, 1), (2,)),
    ((2, 2, 2), (1, 1)),
)
DK_HORIZON = 4


class DkShuffle(Workload):
    name = "dk_shuffle"
    why = (
        "The normalized-tensor / shuffle-product comparison to horizon four: "
        "the simplex-category combinatorics of the Dold-Kan and shuffle "
        "constructions dominate, with mid-sized SNFs a small share."
    )
    stresses = "deltacat (surjection and jointly monic pair enumeration), simplicial, shuffle"
    bypasses = "cli; the large eliminations of homology_big"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pairs = []
        for ring in (A.ZZ, A.GF(2)):
            for xr, yr in DK_SHAPES:
                x = gen.complex_with_ranks(self.rng, ring, xr)
                y = gen.complex_with_ranks(self.rng, ring, yr)
                self.pairs.append((x, y))
        self.ops = [
            (f"nor_tensor_compare[{x.ring}:{x.ranks}x{y.ranks}]", lambda x=x, y=y: _dk_op(x, y))
            for x, y in self.pairs
        ]

    def check(self, i, result, first):
        if result.horizon != DK_HORIZON or not result.passed:
            return "normalized tensor and shuffle product disagree"
        if i < 2:
            for z in self.pairs[i]:
                if A.nor(A.dk(z, z.top)).complex != z:
                    return "nor(dk(X)) != X"
        return None

    def properties(self):
        return {
            "rings": ["Z", "F2"],
            "pairs": [[list(x.ranks), list(y.ranks)] for x, y in self.pairs],
            "top": "<= 2",
            "rank": "<= 2",
            "horizon": DK_HORIZON,
            "shape_repetition": "each shape twice per pass (Z and F2); every pass repeats all",
        }


def _dk_op(x, y):
    return A.nor_tensor_compare(A.dk(x, DK_HORIZON), A.dk(y, DK_HORIZON))


# --------------------------------------------------------------------------
# model_maps

MODEL_RINGS = ((A.ZZ, 40), (A.QQ, 20), (A.GF(2), 20), (A.GF(5), 20))
MODEL_POOL = 400
# Seed of the shapes (not the entries) of generated maps, the same on every
# run, so that every seed asks for the same amount of work.
DESIGN_SEED = 20240503


class ModelMaps(Workload):
    name = "model_maps"
    why = (
        "The model-structure mix: both factorizations, classification, the "
        "generator lifting checks and a lifting square, on many tiny "
        "matrices, so per-call overhead dominates."
    )
    stresses = "linalg per-call overhead (tiny SNFs with full transforms), Matrix construction, ConnComplex/ChainMap validation"
    bypasses = "deltacat (zero calls); a bypass workload for combinatorics changes"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        design = random.Random(DESIGN_SEED)
        rings = [ring for ring, share in MODEL_RINGS for _ in range(share * MODEL_POOL // 100)]
        design.shuffle(rings)
        self.maps = [gen.random_chain_map(self.rng, design, ring) for ring in rings]
        self.ops = [
            (f"model{k}[{f.ring}:{f.source.ranks}->{f.target.ranks}]", lambda f=f: _model_op(f))
            for k, f in enumerate(self.maps)
        ]

    def check(self, i, result, first):
        f = self.maps[i]
        l1, r1, l2, r2, classes, rep, lift = result
        if A.compose_maps(r1, l1) != f or A.compose_maps(r2, l2) != f:
            return "a factorization does not recompose to the map"
        c1, c2, c3, c4 = classes
        if not (c1.trivial_cofibration and c2.fibration and c3.cofibration and c4.trivial_fibration):
            return "a factorization leg is not in its advertised class"
        if A.compose_maps(lift, l1) != l2 or A.compose_maps(r2, lift) != r1:
            return "the lift does not make both triangles commute"
        mc = A.classify(f)
        if rep.certifies_trivial_fibration != mc.trivial_fibration or rep.certifies_fibration != mc.fibration:
            return "generator lifting checks disagree with the classifier"
        return None

    def properties(self):
        ranks = [r for f in self.maps for r in f.source.ranks + f.target.ranks]
        return {
            "rings": {str(ring): share for ring, share in MODEL_RINGS},
            "maps": len(self.maps),
            "top": "<= 2 per complex (middle objects larger)",
            "rank": [min(ranks), max(ranks)],
            "kinds": "scaled identity, summand inclusion/projection, null-homotopic, lifted",
            "shape_repetition": "shapes fixed across seeds (entries seeded); every pass repeats all maps",
        }


def _model_op(f):
    """Both factorizations, the class of each leg, the generator checks,
    and the lift in the square  X -l1-> Q1 -r1-> Y  against  X -l2-> Q2 -r2-> Y."""
    l1, r1 = A.factor_trivcof_fib(f)
    l2, r2 = A.factor_cof_trivfib(f)
    classes = tuple(A.classify(m) for m in (l1, r1, l2, r2))
    rep = A.rlp_generator_check(f, max(f.source.top, f.target.top) + 1)
    lift = A.lift_square(l1, r2, l2, r1)
    return l1, r1, l2, r2, classes, rep, lift


# --------------------------------------------------------------------------
# homology_big

DISK_HOMOLOGY = ((2, 2), (3, 3), (2, 4), (4, 4))
DISK_EXACT = ((3, 4),)
SPHERE_HOMOLOGY = ((2, 2), (3, 3), (3, 4), (4, 4), (3, 5))
EZ_SHAPES = (((2, 2, 2), (1, 2, 2)), ((1, 2), (2, 1, 1)))
MU_SHAPES = (((1, 2), (2, 1)), ((2, 1), (1, 2)))  # ranks of the source and target of the factored map
MU_DISKS = (1, 2)
DENSE_BOUND = 9
# Square sizes of the dense complexes computed over fields only.  Their
# costs grade in small steps between the small and the large ops, so the
# median op does not jump from one input to another between runs.
DENSE_FIELD_SIZES = (20, 22, 24, 26, 28, 30, 34, 36, 38, 40)


class HomologyBig(Workload):
    name = "homology_big"
    why = (
        "A few large eliminations: homology of shuffle products up to rank "
        "230, of comparison-map cones and of dense 20-40 complexes over Z, "
        "Q and F_p, where asymptotic cost and entry growth dominate."
    )
    stresses = "linalg large SNFs (entry growth over Z and Q), homology_at, chains.homology/is_exact/classify"
    bypasses = "deltacat and shuffle in the timed region (all products are built in set-up)"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = []  # (label, kind, object, expectation)
        for p, q in DISK_HOMOLOGY:
            prod = A.shuffle_product(A.disk(p), A.disk(q)).underlying
            self._add(f"D{p}xD{q}", "homology", prod, ("exact",))
        for p, q in DISK_EXACT:
            prod = A.shuffle_product(A.disk(p), A.disk(q)).underlying
            self._add(f"D{p}xD{q}", "is_exact", prod, ("exact",))
        for p, q in SPHERE_HOMOLOGY:
            prod = A.shuffle_product(A.sphere(p), A.sphere(q)).underlying
            self._add(f"S{p}xS{q}", "homology", prod, ("sphere", p + q))
        m1 = self._dense(20, 24)
        for ring in (A.ZZ, A.QQ):
            self._add(f"dense20x24/{ring}", "homology", _two_term(m1, ring), ("same_free_rank", "m1"))
        m2 = self._dense(32, 32)
        for ring in (A.ZZ, A.GF(101), A.GF(2)):
            self._add(f"dense32x32/{ring}", "homology", _two_term(m2, ring), ("universal_coefficients", "m2"))
        for n in DENSE_FIELD_SIZES:
            m = self._dense(n, n)
            for ring in (A.GF(101), A.GF(2)):
                self._add(f"dense{n}x{n}/{ring}", "homology", _two_term(m, ring), ("euler",))
        for j, (xr, yr) in enumerate(EZ_SHAPES):
            x = gen.complex_with_ranks(self.rng, A.ZZ, xr)
            y = gen.complex_with_ranks(self.rng, A.ZZ, yr)
            nabla = A.ez_map(x, y)
            self._add(f"cone(ez{j})", "is_exact", A.mapping_cone(nabla), ("exact",))
            self._add(f"tensor{j}", "homology", nabla.source, ("same_homology", j))
            self._add(f"shuffle{j}", "homology", nabla.target, ("same_homology", j))
        for j, (factor, shape) in enumerate(zip((A.factor_trivcof_fib, A.factor_cof_trivfib), MU_SHAPES)):
            mu = factor(gen.lifted_map(self.rng, A.ZZ, *(gen.complex_with_ranks(self.rng, A.ZZ, r) for r in shape)))[0]
            for n in MU_DISKS:
                self._add(f"mu{j}xD{n}", "classify", A.shuffle_map_left(mu, A.disk(n)), ("trivial_cofibration",))
        self.ops = [(label, _homology_op(kind, obj)) for label, kind, obj, _ in self.inputs]

    def _add(self, label, kind, obj, expect):
        self.inputs.append((f"{kind}[{label}]", kind, obj, expect))

    def _dense(self, rows, cols):
        return [[self.rng.randint(-DENSE_BOUND, DENSE_BOUND) for _ in range(cols)] for _ in range(rows)]

    def warm_up(self):
        # the first op of each kind
        seen = set()
        for (label, op), (_, kind, obj, _) in zip(self.ops, self.inputs):
            if kind not in seen:
                seen.add(kind)
                op()

    def check(self, i, result, first):
        _, kind, obj, expect = self.inputs[i]
        if kind == "classify":
            return None if result.cofibration and result.weak_equivalence else "mu boxtimes D(n) is not a trivial cofibration"
        if kind == "is_exact":
            return None if result else "complex should be exact"
        groups = result
        euler_c = sum((-1) ** n * r for n, r in enumerate(obj.ranks))
        euler_h = sum((-1) ** n * h.free_rank for n, h in enumerate(groups))
        if euler_c != euler_h:
            return "Euler characteristic of the homology differs from that of the complex"
        tag = expect[0]
        if tag == "exact" and not all(h.is_zero for h in groups):
            return "disk product is not exact"
        if tag == "sphere":
            want = tuple(
                A.HomologyGroup(1 if n == expect[1] else 0) for n in range(len(groups))
            )
            if groups != want:
                return "sphere product is not Z in degree p+q"
        if tag in ("same_free_rank", "universal_coefficients", "same_homology"):
            peers = [j for j, inp in enumerate(self.inputs) if inp[3] == expect and j != i]
            for j in peers:
                if j not in first:
                    return "peer op missing"
                if tag == "same_free_rank" and [h.free_rank for h in first[j]] != [h.free_rank for h in groups]:
                    return "free rank over Q differs from free rank over Z"
                if tag == "same_homology" and first[j] != groups:
                    return "homology of tensor and shuffle product differ"
            if tag == "universal_coefficients" and obj.ring.kind == "F":
                z = next(j for j in peers if self.inputs[j][2].ring == A.ZZ)
                if _uct(first[z], obj.ring.p) != [h.free_rank for h in groups]:
                    return "homology over F_p contradicts the universal coefficient theorem"
        return None

    def properties(self):
        return {
            "ops": [label for label, _ in self.ops],
            "shuffle_products": {
                "disk": [list(s) for s in DISK_HOMOLOGY + DISK_EXACT],
                "sphere": [list(s) for s in SPHERE_HOMOLOGY],
                "max_rank": max(max(o.ranks) for _, k, o, _ in self.inputs if k != "classify"),
            },
            "dense_two_term": {
                "20x24": ["Z", "Q"],
                "32x32": ["Z", "F101", "F2"],
                **{f"{n}x{n}": ["F101", "F2"] for n in DENSE_FIELD_SIZES},
                "entries": f"[-{DENSE_BOUND}, {DENSE_BOUND}]",
            },
            "ez_cones": [[list(x), list(y)] for x, y in EZ_SHAPES],
            "mu_boxtimes_disk": list(MU_DISKS),
            "shape_repetition": "every op distinct within a pass; every pass repeats all",
        }


def _two_term(rows, ring):
    d = A.Matrix.from_rows(ring, rows)
    return A.ConnComplex(ring, (d.rows, d.cols), {1: d})


def _homology_op(kind, obj):
    """One homology, is_exact or classify call, looked up at call time."""
    return lambda: getattr(A, kind)(obj)


def _uct(z_groups, p):
    """dim H_n(C (x) F_p) = free rank of H_n + the number of invariant
    factors of H_n and of H_{n-1} divisible by p."""
    def t(n):
        return sum(1 for d in z_groups[n].torsion if d % p == 0) if 0 <= n < len(z_groups) else 0

    return [h.free_rank + t(n) + t(n - 1) for n, h in enumerate(z_groups)]


# --------------------------------------------------------------------------
# cli


class Cli(Workload):
    name = "cli"
    why = (
        "One verb per process, as users call it: interpreter start, import, "
        "argument and JSON parsing, validation and serialization dominate, "
        "and in-process caches never warm."
    )
    stresses = "cli (import, argparse, JSON parse/validate/emit) and process start"
    bypasses = "in-process caches; large eliminations"
    known_defects = (
        "nor on a module whose last face leaves the normalized part: "
        "AssertionError traceback instead of exit 1 with a JSON error",
    )
    runs_in_children = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dir = tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=workdir)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.docs = []  # (label, argv, expected exit, expected answer spec, known defect)
        self._build_corpus()
        self.ops = [(label, lambda argv=argv: self._run(argv)) for label, argv, *_ in self.docs]

    # -- corpus -------------------------------------------------------------

    def _write(self, name, obj=None, text=None):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj) if text is None else text)
        return name

    def _doc(self, label, argv, code, spec=None, defect=False):
        self.docs.append((label, argv, code, spec, defect))

    def _build_corpus(self):
        rng = self.rng
        w = self._write
        cz = gen.complex_with_ranks(rng, A.ZZ, (2, 3, 2))
        cq = gen.complex_with_ranks(rng, A.QQ, (3, 3, 1))
        cq_frac = A.ConnComplex(A.QQ, (1, 1), {1: A.Matrix.from_rows(A.QQ, [[Fraction(1, 2)]])})
        x = gen.complex_with_ranks(rng, A.ZZ, (1, 2))
        y = gen.complex_with_ranks(rng, A.ZZ, (2, 1))
        design = random.Random(DESIGN_SEED)
        fz = gen.random_chain_map(rng, design, A.ZZ)
        f2 = gen.random_chain_map(rng, design, A.GF(2))
        fq = gen.random_chain_map(rng, design, A.QQ)
        l1, r1 = A.factor_trivcof_fib(fz)
        l2, r2 = A.factor_cof_trivfib(fz)
        module = A.dk(gen.complex_with_ranks(rng, A.ZZ, (1, 2, 1)), 3)
        broken = _broken_module(rng)
        files = {
            "cz": w("cz.json", A.complex_to_json(cz)),
            "cq": w("cq.json", A.complex_to_json(cq)),
            "cq_frac": w("cq_frac.json", A.complex_to_json(cq_frac)),
            "x": w("x.json", A.complex_to_json(x)),
            "y": w("y.json", A.complex_to_json(y)),
            "fz": w("fz.json", A.map_to_json(fz)),
            "f2": w("f2.json", A.map_to_json(f2)),
            "fq": w("fq.json", A.map_to_json(fq)),
            "l1": w("l1.json", A.map_to_json(l1)),
            "r1": w("r1.json", A.map_to_json(r1)),
            "l2": w("l2.json", A.map_to_json(l2)),
            "r2": w("r2.json", A.map_to_json(r2)),
            "module": w("module.json", A.module_to_json(module)),
            "broken": w("broken.json", A.module_to_json(broken)),
            "pointed": w("pointed.json", _poset_json(design, least=True)),
            "unpointed": w("unpointed.json", _poset_json(design, least=False)),
        }
        # answers of exit-0 docs are recomputed in-process at check time
        ok = [
            ("homology", ["homology", files["cz"]], ("homology", cz)),
            ("homology-Q", ["homology", files["cq"]], ("homology", cq)),
            ("homology-ring", ["homology", files["cz"], "--ring", "F5"], ("homology", _convert(cz, A.GF(5)))),
            ("classify", ["classify", files["fz"]], ("classify", fz, False)),
            ("classify-certify", ["classify", files["f2"], "--certify"], ("classify", f2, True)),
            ("factor-trivcof", ["factor", files["fz"], "--kind", "trivcof-fib"], ("factor", fz, "trivcof-fib")),
            ("factor-cof", ["factor", files["fq"], "--kind", "cof-trivfib"], ("factor", fq, "cof-trivfib")),
            ("lift", ["lift", files["l1"], files["r2"], files["l2"], files["r1"]], ("lift", l1, r2, l2, r1)),
            ("dk", ["dk", files["cz"], "--horizon", "3"], ("dk", cz, 3)),
            ("nor", ["nor", files["module"]], ("nor", module)),
            ("shuffle", ["shuffle", files["x"], files["y"]], ("shuffle", x, y)),
            ("ez-check", ["ez-check", files["x"], files["y"]], ("ez-check", x, y)),
            ("nerve-pointed", ["nerve-homology", files["pointed"], "--horizon", "3"], ("nerve", files["pointed"], 3)),
            ("nerve-unpointed", ["nerve-homology", files["unpointed"], "--horizon", "3"], ("nerve", files["unpointed"], 3)),
            ("identities", ["check-identities", files["module"]], ("identities", module)),
            ("identities-broken", ["check-identities", files["broken"]], ("identities", broken)),
        ]
        for label, argv, spec in ok:
            self._doc(label, argv, 0, spec)
        # malformed documents: exit 2
        cz_json = A.complex_to_json(cz)
        bad_row = json.loads(json.dumps(cz_json))
        bad_row["diffs"]["1"]["entries"][0].append(0)
        no_ranks = {k: v for k, v in cz_json.items() if k != "ranks"}
        neg_rank = dict(cz_json, ranks=[2, -3, 2])
        no_target = {k: v for k, v in A.map_to_json(fz).items() if k != "target"}
        self._doc("truncated-json", ["homology", w("truncated.json", text=json.dumps(cz_json)[:-7])], 2)
        self._doc("missing-ranks", ["homology", w("no_ranks.json", no_ranks)], 2)
        self._doc("ragged-matrix", ["dk", w("bad_row.json", bad_row)], 2)
        self._doc("negative-rank", ["shuffle", w("neg_rank.json", neg_rank), files["y"]], 2)
        self._doc("missing-target", ["classify", w("no_target.json", no_target)], 2)
        # domain errors: exit 1
        d_squared = json.loads(json.dumps(cz_json))
        d_squared["diffs"]["2"] = A.mat_to_json(A.Matrix.from_rows(A.ZZ, [[1, 0], [0, 1], [1, 1]]))
        self._doc("not-a-complex", ["homology", w("d_squared.json", d_squared)], 1)
        self._doc("map-not-chain", ["classify", w("bad_map.json", _noncommuting_map_json())], 1)
        self._doc("square-not-commuting", ["lift", files["l1"], files["r2"], files["l1"], files["r1"]], 1)
        self._doc("ring-not-prime", ["homology", files["cz"], "--ring", "F4"], 1)
        self._doc("ring-no-conversion", ["homology", files["cq_frac"], "--ring", "Z"], 1)
        self._doc("nor-not-simplicial", ["nor", files["broken"]], 1, defect=True)

    # -- running ------------------------------------------------------------

    def _run(self, argv):
        if self.trace_mode is None:
            cmd = [sys.executable, "-m", "artifact", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), self.trace_mode, *argv]
        proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        stderr = proc.stderr
        if self.trace_mode is not None:
            stderr, state = _split_trace(stderr)
            if state is not None:
                self.tracer.merge(state, self.tracer.op)
            self.tracer.counts[f"cli.exit_code.{proc.returncode}"] += 1
        return proc.returncode, proc.stdout, stderr

    def check(self, i, result, first):
        label, argv, code, spec, defect = self.docs[i]
        got_code, stdout, stderr = result
        if "Traceback (most recent call last)" in stderr:
            return f"exit {got_code} with a traceback" + (" (known defect)" if defect else "")
        if stderr:
            return "unexpected output on stderr"
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        try:
            answer = json.loads(stdout)
        except ValueError:
            return "stdout is not exactly one JSON document"
        if code != 0:
            return None if isinstance(answer, dict) and isinstance(answer.get("error"), str) else "error answer lacks an error message"
        want = json.loads(json.dumps(_expected(spec, self.dir)))
        return None if answer == want else "answer differs from the in-process library result"

    def answer(self, result):
        return result[:2]  # a traced child's traceback has extra frames

    def is_known_defect(self, i):
        return self.docs[i][4]

    def layer_extras(self):
        """The process-start floor and the import cost, each the median of
        five fresh interpreters."""
        floor = []
        imports = []
        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
            floor.append(time.perf_counter() - t0)
            out = subprocess.run(
                [sys.executable, "-c", "import time; t = time.perf_counter(); import artifact.cli; print(time.perf_counter() - t)"],
                env=self.env, check=True, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            imports.append(float(out.stdout))
        return {"cli.interpreter_ms": statistics.median(floor) * 1e3, "cli.import_ms": statistics.median(imports) * 1e3}

    def properties(self):
        return {
            "docs": [{"label": label, "verb": argv[0], "expected_exit": code, "known_defect": defect} for label, argv, code, _, defect in self.docs],
            "verbs": sorted({argv[0] for _, argv, *_ in self.docs}),
            "rings": ["Z", "Q", "F2", "F5"],
            "shape_repetition": "each document once per pass; every pass repeats all",
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _split_trace(stderr):
    """Remove the traced child's state line from its stderr."""
    state = None
    kept = []
    for line in stderr.splitlines(keepends=True):
        if line.startswith(layers.TRACE_MARK):
            state = json.loads(line[len(layers.TRACE_MARK):])
        else:
            kept.append(line)
    return "".join(kept), state


def _convert(x, ring):
    return A.complex_from_json(dict(A.complex_to_json(x), ring=str(ring)))


def _poset_json(rng, least):
    """A random order on four points, with or without a least element."""
    n = 4
    while True:
        leq = [[i == j for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                leq[i][j] = rng.random() < 0.5
        for k in range(n):  # transitive closure
            for i in range(n):
                for j in range(n):
                    leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
        has_least = any(all(leq[e][j] for j in range(n)) for e in range(n))
        if has_least == least:
            return {"elements": list(range(n)), "leq": leq}


def _broken_module(rng):
    """dk(X, 2) with a random last face at level two that sends the
    normalized part outside the normalized part: not a simplicial module."""
    x = gen.complex_with_ranks(rng, A.ZZ, (1, 1, 1))
    m = A.dk(x, 2)
    faces = {lv: [m.face(lv, i) for i in range(lv + 1)] for lv in (1, 2)}
    degens = {lv: [m.degen(lv, i) for i in range(lv + 1)] for lv in (0, 1)}
    normalized = A.nor(m).embeddings
    while True:
        faces[2][2] = gen.random_matrix(rng, A.ZZ, m.rank(1), m.rank(2), 2)
        if A.solve(normalized[1], faces[2][2] @ A.kernel_basis(A.vcat(A.ZZ, m.rank(2), faces[2][:2]))) is None:
            return A.SimplicialModule(A.ZZ, m.ranks, faces, degens)


def _noncommuting_map_json():
    """The identity in degree 0 and zero in degree 1 on Z --2--> Z."""
    x = A.ConnComplex(A.ZZ, (1, 1), {1: A.Matrix.from_rows(A.ZZ, [[2]])})
    return {
        "source": A.complex_to_json(x),
        "target": A.complex_to_json(x),
        "components": {"0": A.mat_to_json(A.identity(A.ZZ, 1)), "1": A.mat_to_json(A.zeros(A.ZZ, 1, 1))},
    }


def _model_class(mc):
    return {
        "fibration": mc.fibration,
        "cofibration": mc.cofibration,
        "weak_equivalence": mc.weak_equivalence,
        "trivial_fibration": mc.trivial_fibration,
        "trivial_cofibration": mc.trivial_cofibration,
    }


def _expected(spec, corpus_dir):
    """The answer of an exit-0 document, computed with the library in this
    process and serialized by the benchmark itself."""
    verb = spec[0]
    hj = A.homology_to_json
    if verb == "homology":
        x = spec[1]
        return {"ring": str(x.ring), "H": [hj(h) for h in A.homology(x)]}
    if verb == "classify":
        _, f, certify = spec
        mc = A.classify(f)
        out = _model_class(mc)
        if certify:
            rep = A.rlp_generator_check(f, max(f.source.top, f.target.top) + 1)
            out["rlp"] = {
                "max_n": rep.max_n,
                "point_surjection": rep.point_surjection,
                "sphere_to_disk": list(rep.sphere_to_disk),
                "zero_to_disk": list(rep.zero_to_disk),
                "certifies_trivial_fibration": rep.certifies_trivial_fibration,
                "certifies_fibration": rep.certifies_fibration,
                "matches_classifier": rep.certifies_trivial_fibration == mc.trivial_fibration
                and rep.certifies_fibration == mc.fibration,
            }
        return out
    if verb == "factor":
        _, f, kind = spec
        left, right = (A.factor_trivcof_fib if kind == "trivcof-fib" else A.factor_cof_trivfib)(f)
        return {"kind": kind, "left": A.map_to_json(left), "right": A.map_to_json(right)}
    if verb == "lift":
        return {"lift": A.map_to_json(A.lift_square(*spec[1:]))}
    if verb == "dk":
        return A.module_to_json(A.dk(spec[1], spec[2]))
    if verb == "nor":
        res = A.nor(spec[1])
        out = A.complex_to_json(res.complex)
        out["embeddings"] = [A.mat_to_json(e) for e in res.embeddings]
        return out
    if verb == "shuffle":
        return A.shuffle_to_json(A.shuffle_product(spec[1], spec[2]))
    if verb == "ez-check":
        nabla = A.ez_map(spec[1], spec[2])
        th = [hj(h) for h in A.homology(nabla.source)]
        sh = [hj(h) for h in A.homology(nabla.target)]
        return {
            "chain_map": True,
            "cone_exact": A.is_exact(A.mapping_cone(nabla)),
            "homology": {"tensor": th, "shuffle": sh, "match": th == sh},
        }
    if verb == "nerve":
        _, name, horizon = spec
        with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
            p = A.poset_from_json(json.load(fh))
        c = A.nor(A.free_module(A.nerve(p, horizon), A.ZZ)).complex
        contraction = A.verify_nerve_contraction(p, horizon, A.ZZ)
        return {
            "ring": "Z",
            "H": [hj(A.homology_at(c.diff(d + 1), c.diff(d))) for d in range(horizon)],
            "least_element": contraction.least,
            "contraction_verified": contraction.verified,
        }
    if verb == "identities":
        rep = A.check_simplicial_identities(spec[1])
        return {"ok": rep.ok, "violations": [{"kind": k, "level": lv, "i": i, "j": j} for k, lv, i, j in rep.violations]}
    raise ValueError(f"unknown verb {verb!r}")


WORKLOADS = {cls.name: cls for cls in (DkShuffle, ModelMaps, HomologyBig, Cli)}

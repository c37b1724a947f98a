"""Per-layer tracing from outside the program.

The layers are the modules of the ``artifact`` package.  A ``Tracer`` wraps
the public functions of each layer at every place they are bound (the
defining module, every module that imported the name, and the package
namespace), records one span per call, and puts the original objects back on
``uninstall``.  Nothing under ``src/`` is changed.

Two separate passes feed the per-layer table:

* the span pass (``install("span")``) records spans and cheap counters;
* the counting pass (``install("count")``) only counts calls into the
  ring arithmetic tables, which happen about ten million times per workload
  and would inflate every span around them.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists; one op
id per workload op.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import types
from collections import defaultdict

clock = time.perf_counter

# Prefix of the stderr line in which a traced CLI child returns its pass.
TRACE_MARK = "perfbench-trace: "

# Observers run after their span has closed, with (tracer, span, args, result).


def _distinct(tracer, rec, args, result):
    tracer.distinct[rec[0]].add(args)


def _snf(tracer, rec, args, result):
    a = args[0]
    counts, maxima = tracer.counts, tracer.maxima
    counts["linalg.smith_normal_form.s." + a.ring.kind] += rec[2] - rec[1]
    counts["linalg.smith_normal_form.cells"] += a.rows * a.cols
    bits = 0
    for mat in (result.s, result.u, result.v, result.u_inv, result.v_inv):
        for row in mat.entries:
            for x in row:
                b = _bits(x)
                if b > bits:
                    bits = b
    key = "linalg.smith_normal_form.max_entry_bits"
    if bits > maxima[key]:
        maxima[key] = bits


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _matmul(tracer, rec, args, result):
    a, b = args
    tracer.counts["linalg.matmul.mults"] += a.rows * a.cols * b.cols


def _shuffle_blocks(tracer, rec, args, result):
    x, y = args
    live = total = 0
    for pairs in result.blocks:
        for f, g in pairs:
            total += 1
            if x.rank(f.target_top) * y.rank(g.target_top):
                live += 1
    tracer.counts["shuffle.blocks"] += total
    tracer.counts["shuffle.live_blocks"] += live


# Span targets: metric prefix, defining module, attribute (Class.method for
# methods), observer (or None).
SPAN_TARGETS = (
    ("deltacat.enumerate_surjections", "artifact.deltacat", "enumerate_surjections", _distinct),
    ("deltacat.enumerate_jointly_monic_pairs", "artifact.deltacat", "enumerate_jointly_monic_pairs", _distinct),
    ("simplicial.dk", "artifact.simplicial", "dk", None),
    ("simplicial.dk_transition", "artifact.simplicial", "dk_transition", None),
    ("simplicial.nor", "artifact.simplicial", "nor", None),
    ("simplicial.tensor_sm", "artifact.simplicial", "tensor_sm", None),
    ("simplicial.free_module", "artifact.simplicial", "free_module", None),
    ("simplicial.SimplicialModule.init", "artifact.simplicial", "SimplicialModule.__init__", None),
    ("shuffle.shuffle_product", "artifact.shuffle", "shuffle_product", _shuffle_blocks),
    ("shuffle.ez_map", "artifact.shuffle", "ez_map", None),
    ("shuffle.nor_tensor_compare", "artifact.shuffle", "nor_tensor_compare", None),
    ("shuffle.shuffle_map_left", "artifact.shuffle", "shuffle_map_left", None),
    ("linalg.smith_normal_form", "artifact.linalg", "smith_normal_form", _snf),
    ("linalg.kernel_basis", "artifact.linalg", "kernel_basis", None),
    ("linalg.solve", "artifact.linalg", "solve", None),
    ("linalg.canonical_columns", "artifact.linalg", "canonical_columns", None),
    ("linalg.block_matrix", "artifact.linalg", "block_matrix", None),
    ("linalg.kron", "artifact.linalg", "kron", None),
    ("linalg.matmul", "artifact.linalg", "Matrix.__matmul__", _matmul),
    ("linalg.homology_at", "artifact.linalg", "homology_at", None),
    ("chains.classify", "artifact.chains", "classify", None),
    ("chains.factor_cof_trivfib", "artifact.chains", "factor_cof_trivfib", None),
    ("chains.factor_trivcof_fib", "artifact.chains", "factor_trivcof_fib", None),
    ("chains.lift_square", "artifact.chains", "lift_square", None),
    ("chains.rlp_generator_check", "artifact.chains", "rlp_generator_check", None),
    ("chains.homology", "artifact.chains", "homology", None),
    ("chains.is_exact", "artifact.chains", "is_exact", None),
    ("chains.mapping_cone", "artifact.chains", "mapping_cone", None),
    ("chains.tensor", "artifact.chains", "tensor", None),
    ("chains.ConnComplex.init", "artifact.chains", "ConnComplex.__init__", None),
    ("chains.ChainMap.init", "artifact.chains", "ChainMap.__init__", None),
)

# Called too often for a span each; counted only.
COUNT_TARGETS = (
    ("deltacat.MonotoneMap.init.calls", "artifact.deltacat", "MonotoneMap.__post_init__"),
    ("deltacat.compose.calls", "artifact.deltacat", "compose"),
    ("deltacat.epi_mono_factorize.calls", "artifact.deltacat", "epi_mono_factorize"),
    ("linalg.Matrix.init.calls", "artifact.linalg", "Matrix.__post_init__"),
)

# The per-layer metrics every traced run reports, in order, with units.
# A layer the workload never reaches reports 0.
PER_LAYER = (
    [
        ("deltacat.enumerate_surjections.calls", "count"),
        ("deltacat.enumerate_surjections.s", "s"),
        ("deltacat.enumerate_surjections.distinct_ratio", "ratio"),
        ("deltacat.enumerate_jointly_monic_pairs.calls", "count"),
        ("deltacat.enumerate_jointly_monic_pairs.s", "s"),
        ("deltacat.enumerate_jointly_monic_pairs.distinct_ratio", "ratio"),
        ("deltacat.MonotoneMap.init.calls", "count"),
        ("deltacat.compose.calls", "count"),
        ("deltacat.epi_mono_factorize.calls", "count"),
    ]
    + [
        (f"simplicial.{fn}.{m}", "count" if m == "calls" else "s")
        for fn in ("dk", "dk_transition", "nor", "tensor_sm", "free_module")
        for m in ("calls", "s", "self_s")
    ]
    + [("simplicial.SimplicialModule.init.s", "s")]
    + [
        (f"shuffle.{fn}.{m}", "count" if m == "calls" else "s")
        for fn in ("shuffle_product", "ez_map", "nor_tensor_compare", "shuffle_map_left")
        for m in ("calls", "s", "self_s")
    ]
    + [("shuffle.blocks", "count"), ("shuffle.live_block_ratio", "ratio")]
    + [
        ("linalg.smith_normal_form.calls", "count"),
        ("linalg.smith_normal_form.s", "s"),
        ("linalg.smith_normal_form.s.Z", "s"),
        ("linalg.smith_normal_form.s.Q", "s"),
        ("linalg.smith_normal_form.s.F", "s"),
        ("linalg.smith_normal_form.cells", "count"),
        ("linalg.smith_normal_form.max_entry_bits", "bits"),
        ("linalg.Matrix.init.calls", "count"),
    ]
    + [
        (f"linalg.{fn}.{m}", "count" if m == "calls" else "s")
        for fn in ("kernel_basis", "solve", "canonical_columns", "block_matrix", "kron")
        for m in ("calls", "s")
    ]
    + [
        ("linalg.matmul.calls", "count"),
        ("linalg.matmul.s", "s"),
        ("linalg.matmul.mults", "count"),
        ("linalg.homology_at.calls", "count"),
        ("linalg.homology_at.s", "s"),
        ("linalg.homology_at.self_s", "s"),
        ("linalg.snf_per_homology", "ratio"),
    ]
    + [
        (f"chains.{fn}.{m}", "count" if m == "calls" else "s")
        for fn in (
            "classify",
            "factor_cof_trivfib",
            "factor_trivcof_fib",
            "lift_square",
            "rlp_generator_check",
            "homology",
            "is_exact",
            "mapping_cone",
            "tensor",
        )
        for m in ("calls", "s", "self_s")
    ]
    + [
        ("chains.ConnComplex.init.calls", "count"),
        ("chains.ConnComplex.init.s", "s"),
        ("chains.ChainMap.init.calls", "count"),
        ("chains.ChainMap.init.s", "s"),
        ("chains.snf_per_classify", "ratio"),
    ]
    + [(f"rings.arith_calls.{k}", "count") for k in ("Z", "Q", "F")]
    + [
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.parse_s", "s"),
        ("cli.compute_s", "s"),
        ("cli.emit_s", "s"),
        ("cli.exit_code.0", "count"),
        ("cli.exit_code.1", "count"),
        ("cli.exit_code.2", "count"),
        ("trace.overhead_s", "s"),
    ]
)


_ABSENT = object()  # an attribute the patch added rather than replaced


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "artifact" or n.startswith("artifact.")]


class Tracer:
    """Spans and counters for one pass, plus the patches that produce them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ---------------------------------

    def install(self, mode: str) -> None:
        """Wrap every target at every binding: mode "span" or "count"."""
        mods = _package_modules()
        if mode == "span":
            for name, modname, attr, observe in SPAN_TARGETS:
                self._wrap_everywhere(mods, modname, attr, lambda fn, n=name, o=observe: self._span(n, fn, o))
            for name, modname, attr in COUNT_TARGETS:
                self._wrap_everywhere(mods, modname, attr, lambda fn, n=name: self._count(n, fn))
        elif mode == "count":
            self._wrap_everywhere(mods, "artifact.rings", "ring_ops", self._counting_ring_ops)
        else:
            raise ValueError(f"unknown tracing mode {mode!r}")

    def install_cli_stages(self, cli) -> None:
        """Spans around the stages of one CLI verb, inside the process that
        runs it: argument and document parsing ("cli.parse"), the verb's
        handler ("cli.handler", which contains some parsing) and writing the
        answer ("cli.emit")."""
        parse_fns = [name for name in vars(cli) if name == "_load" or name.endswith("_from_json")]
        for name in parse_fns:
            fn = getattr(cli, name)
            self._patch(cli, name, fn, self._span("cli.parse", fn, None))
        for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
            fn = getattr(cli, name)
            self._patch(cli, name, fn, self._span("cli.handler", fn, None))
        parser_cls = cli.argparse.ArgumentParser
        parse_args = parser_cls.__dict__["parse_args"]
        self._patch(parser_cls, "parse_args", parse_args, self._span("cli.parse", parse_args, None))
        build = cli.build_parser
        self._patch(cli, "build_parser", build, self._span("cli.parse", build, None))
        emit = types.SimpleNamespace(load=cli.json.load, dumps=self._span("cli.emit", cli.json.dumps, None))
        self._patch(cli, "json", cli.json, emit)
        self._patch(cli, "print", _ABSENT, self._span("cli.emit", print, None))

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap_everywhere(self, mods, modname, attr, make) -> None:
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, original, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_ring_ops(self, original):
        """ring_ops returning a copy of each table whose add, neg, mul and
        divide_exact count their calls, per ring kind."""
        copies = {}
        counts = self.counts

        def counted(fn, key):
            def inner(*args):
                counts[key] += 1
                return fn(*args)

            return inner

        def ring_ops(tag):
            ops = copies.get(tag)
            if ops is None:
                base = original(tag)
                key = "rings.arith_calls." + tag.kind
                ops = copies[tag] = dataclasses.replace(
                    base,
                    **{f: counted(getattr(base, f), key) for f in ("add", "neg", "mul", "divide_exact")},
                )
            return ops

        ring_ops.__wrapped__ = original
        return ring_ops

    # -- moving state between processes ----------------------------------

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "distinct": {k: [list(a) for a in v] for k, v in self.distinct.items()},
        }

    def merge(self, state: dict, op) -> None:
        """Add another process's pass, relabelling its spans with ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _ in state["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        for k, v in state["counts"].items():
            self.counts[k] += v
        for k, v in state["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)
        for k, v in state["distinct"].items():
            self.distinct[k].update(tuple(a) for a in v)


def summarize(span_pass: Tracer, count_pass: Tracer) -> dict[str, float]:
    """The PER_LAYER numbers the two passes determine; the cli timings and
    the tracing overhead are added by the caller."""
    spans = span_pass.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    snf_under = defaultdict(int)
    parse_in_handler = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            total[name] += end - start
        if name == "cli.parse" and "cli.handler" in ancestors:
            parse_in_handler += end - start
        if name == "linalg.smith_normal_form":
            for enclosing in ("linalg.homology_at", "chains.classify"):
                snf_under[enclosing] += enclosing in ancestors
    counts = span_pass.counts
    out: dict[str, float] = {}
    for name, _, _, _ in SPAN_TARGETS:
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = total[name]
        out[name + ".self_s"] = self_s[name]
    for name, _, _ in COUNT_TARGETS:
        out[name] = int(counts[name])
    for name in ("deltacat.enumerate_surjections", "deltacat.enumerate_jointly_monic_pairs"):
        out[name + ".distinct_ratio"] = _ratio(len(span_pass.distinct[name]), calls[name])
    out["shuffle.blocks"] = int(counts["shuffle.blocks"])
    out["shuffle.live_block_ratio"] = _ratio(counts["shuffle.live_blocks"], counts["shuffle.blocks"])
    for kind in ("Z", "Q", "F"):
        out["linalg.smith_normal_form.s." + kind] = counts["linalg.smith_normal_form.s." + kind]
        out["rings.arith_calls." + kind] = int(count_pass.counts["rings.arith_calls." + kind])
    out["linalg.smith_normal_form.cells"] = int(counts["linalg.smith_normal_form.cells"])
    out["linalg.smith_normal_form.max_entry_bits"] = span_pass.maxima["linalg.smith_normal_form.max_entry_bits"]
    out["linalg.matmul.mults"] = int(counts["linalg.matmul.mults"])
    out["linalg.snf_per_homology"] = _ratio(snf_under["linalg.homology_at"], calls["linalg.homology_at"])
    out["chains.snf_per_classify"] = _ratio(snf_under["chains.classify"], calls["chains.classify"])
    for code in (0, 1, 2):
        out[f"cli.exit_code.{code}"] = int(counts[f"cli.exit_code.{code}"])
    out["cli.parse_s"] = total["cli.parse"]
    out["cli.compute_s"] = total["cli.handler"] - parse_in_handler
    out["cli.emit_s"] = total["cli.emit"]
    return {metric: out[metric] for metric, _ in PER_LAYER if metric in out}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0

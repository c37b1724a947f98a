"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that tracing leaves answers unchanged, that a traced run's counts
repeat exactly for one seed, that removing the wrappers restores every
original object, that the tail percentile keeps ten samples beyond it, and
that BENCHMARK.json names the metrics this directory reports.  Each
workload is cut down to a few cheap ops so the whole test takes well under
a minute.
"""

import argparse
import json
import os
import sys
import unittest

import run

run.load_artifact()

import artifact  # noqa: E402
import artifact.cli  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 7
# a few cheap ops of each workload, by label prefix
SUBSETS = {
    "dk_shuffle": 1,
    "model_maps": 8,
    "homology_big": ("homology[D2xD2]", "is_exact[cone(ez1)]", "homology[dense20x24/Z]", "classify[mu0xD1]"),
    "cli": ("homology", "nor", "truncated-json", "not-a-complex", "nor-not-simplicial"),
}


def small(name):
    wl = workloads.WORKLOADS[name](SEED, run.OUT)
    keep = SUBSETS[name]
    if isinstance(keep, int):
        wl.ops = wl.ops[:keep]
    else:
        index = {label: i for i, (label, _) in enumerate(wl.ops)}
        wl.ops = [wl.ops[index[label]] for label in keep]
        if name == "cli":  # op indices address the documents
            wl.docs = [wl.docs[index[label]] for label in keep]
        if name == "homology_big":
            wl.inputs = [wl.inputs[index[label]] for label in keep]
    return wl


def traced(name):
    wl = small(name)
    try:
        return run.traced(wl, layers)
    finally:
        wl.close()


def bindings():
    """Every attribute of every artifact module and of the patched classes."""
    owners = [m for n, m in sys.modules.items() if n == "artifact" or n.startswith("artifact.")]
    owners += [artifact.Matrix, artifact.MonotoneMap, artifact.ConnComplex, artifact.ChainMap,
               artifact.SimplicialModule, argparse.ArgumentParser]
    return {(id(owner), key): value for owner in owners for key, value in list(vars(owner).items())}


class SelfTest(unittest.TestCase):
    def test_traced_answers_equal_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                _, reasons, _, _ = traced(name)
                self.assertFalse([r for r in reasons if r and "traced" in r])

    def test_counts_repeat_for_one_seed(self):
        units = dict(layers.PER_LAYER)
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = traced(name)[2]
                second = traced(name)[2]
                counted = [m for m, unit in units.items() if unit in ("count", "ratio", "bits")]
                self.assertEqual({m: first[m] for m in counted}, {m: second[m] for m in counted})
                self.assertGreater(sum(first[m] for m in counted if m.endswith(".calls")), 0)

    def test_uninstall_restores_every_original(self):
        before = bindings()
        original = artifact.linalg.kernel_basis
        for mode in ("span", "count"):
            tracer = layers.Tracer()
            if mode == "span":
                tracer.install_cli_stages(artifact.cli)
            tracer.install(mode)
            if mode == "span":
                for module in (artifact, artifact.linalg, artifact.chains, artifact.simplicial):
                    self.assertIsNot(module.kernel_basis, original)
            tracer.uninstall()
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))

    def test_tail_keeps_ten_samples_beyond(self):
        for n in (11, 12, 24, 100, 1000):
            samples = sorted(float(i) for i in range(n))
            value, pct = run.tail(samples)
            self.assertEqual(sum(s > value for s in samples), run.TAIL_BEYOND)
            self.assertAlmostEqual(pct, 100.0 * (n - run.TAIL_BEYOND) / n)
        with self.assertRaises(ValueError):
            run.tail([1.0] * run.TAIL_BEYOND)

    def test_benchmark_json_names_what_is_reported(self):
        path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(layers.PER_LAYER))

    def test_summary_covers_every_library_metric(self):
        produced = layers.summarize(layers.Tracer(), layers.Tracer())
        outside = {"cli.interpreter_ms", "cli.import_ms", "trace.overhead_s"}
        self.assertEqual(set(produced) | outside, {m for m, _ in layers.PER_LAYER})


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Every metric name the benchmark prints is declared in BENCHMARK.json.

Checks, without running anything, that the benchmark binary's metric tables
(perfbench/src/metrics.hpp) match BENCHMARK.json name for name and unit for
unit. Then runs each workload for 15 s (enough samples for a p99) in both
modes through perfbench/run.py and checks every metric name the output
mentions — the metric lines, the JSON result and the attribution row —
against the declared names.

usage: python3 perfbench/tests/test_metric_names.py [--static-only]
(honours CARGO_TARGET_DIR like run.py; the first run builds.)
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.dirname(HERE)
ROOT = os.path.dirname(PKG)
WORKLOADS = ["svc_trace_serial", "wire_tenant_d2", "wire_tenant_d1", "wire_open_parallel"]
STATIC_ONLY = "--static-only" in sys.argv


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def binary_tables():
    with open(os.path.join(PKG, "src", "metrics.hpp"), encoding="utf-8") as f:
        text = f.read()
    tables = {}
    for table in ("kEndToEnd", "kPerLayer"):
        body = text.split(table + "[] = {", 1)[1].split("};", 1)[0]
        tables[table] = dict(re.findall(r'\{"([^"]+)", "([^"]+)"\}', body))
    return tables["kEndToEnd"], tables["kPerLayer"]


class MetricNames(unittest.TestCase):
    def test_binary_tables_match_benchmark_json(self):
        e2e, layer, workloads = declared()
        d_e2e, d_layer = binary_tables()
        self.assertEqual(d_e2e, e2e)
        self.assertEqual(d_layer, layer)
        # wire_tenant_d1 and wire_open_parallel run on request but are not
        # declared workloads (README.md, "Workloads").
        self.assertEqual(workloads, WORKLOADS[:2])
        self.assertIn("setup_s", e2e)

    @unittest.skipIf(STATIC_ONLY, "--static-only")
    def test_printed_names_are_declared(self):
        e2e, layer, _ = declared()
        names = set(e2e) | set(layer)
        # A token that looks like a metric name: a layer prefix and a dot, or
        # one of the end-to-end names.
        dotted = re.compile(r"\b(?:driver|setup|net|tenant|runtime|core|ecc|obs|attr)"
                            r"\.[a-z0-9_]+")
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(PKG, "run.py"), "--workload",
                         workload, "--seed", "3", "--seconds", "15", "--trace", trace],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
                    self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                    lines = proc.stdout.rstrip("\n").split("\n")
                    result = json.loads(lines[-1])
                    want = layer if trace == "1" else e2e
                    self.assertEqual(set(result["metrics"]), set(want))
                    for line in lines[:-1]:
                        if line.startswith("metric "):
                            self.assertIn(line.split()[1], want, line)
                        for token in dotted.findall(line):
                            self.assertIn(token, names, line)
                    if trace == "1":
                        self.assertTrue(any(l.startswith("attribution ") for l in lines))


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]])

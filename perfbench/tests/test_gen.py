"""Tests of the seeded input generator.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import gen  # noqa: E402


def _read(workload, seed, out_dir):
    with open(gen.write(workload, seed, out_dir)) as f:
        return f.read()


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes_different_seed_different_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in sorted(gen.GENERATORS):
                a = _read(workload, 7, os.path.join(tmp, "a"))
                b = _read(workload, 7, os.path.join(tmp, "b"))
                c = _read(workload, 8, os.path.join(tmp, "c"))
                self.assertEqual(a, b, workload)
                self.assertNotEqual(a, c, workload)

    def test_batch_mix(self):
        text = gen.whatif(3)
        self.assertEqual(text.count("[scenario "), gen.WHATIF_SCENARIOS)
        self.assertNotIn("analyses = model,sim", text)
        self.assertNotIn("sweep.sim = true", text)
        for spec, _, _ in gen.SYSTEMS.values():
            self.assertIn("system = " + spec + "\n", text)
        text = gen.validate(3)
        self.assertEqual(text.count("analyses = model,sim"),
                         len(gen.SYSTEMS) * len(gen.VALIDATE_FRACTIONS) +
                         len(gen.VALIDATE_EXTRA))

    def test_served_lines_are_evaluate_requests(self):
        lines = gen.served(3).splitlines()
        self.assertEqual(len(lines), gen.SERVED_REQUESTS)
        kinds = {}
        for line in lines:
            req = json.loads(line)
            self.assertEqual(req["op"], "evaluate")
            name = req["scenario"].split("]")[0].split()[1]
            kind = name.rstrip("0123456789")
            kinds[kind] = kinds.get(kind, 0) + 1
        self.assertEqual(set(kinds), {"hot", "cold", "sim"})
        self.assertGreater(kinds["hot"], kinds["cold"])
        self.assertGreater(kinds["cold"], kinds["sim"])


if __name__ == "__main__":
    unittest.main()

"""The benchmark's output checks pass real outputs and reject corrupted ones.

    python3 perfbench/test_checks.py

Each workload's ``check`` is fed the output of a real op, which must pass,
and then a deliberately corrupted copy, which must be rejected: a perturbed
coefficient, shuffled points, a truncated DFSC payload and an error table
whose error rises. An op whose command writes no output fails that op
without ending the run.
"""

import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

from dfsphere import cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

OFF = Tracer(False)


class ExpandChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.Expand(3, None)
        cls.wl.setup()
        assert cls.wl.prepare_checks() == []
        cls.out = cls.wl.op(OFF, None)

    def corrupted(self, edit):
        table, folded, err = self.out
        table = type(table)(table.values.copy())
        folded = type(folded)(folded.values.copy())
        err = err.copy()
        edit(table.values, folded.values, err)
        return self.wl.check(None, (table, folded, err))

    def test_real_output_passes(self):
        self.assertEqual(self.wl.check(None, self.out), [])

    def test_perturbed_coefficient_breaks_symmetry(self):
        def edit(values, folded, err):
            values[600, 530] += 1e-6 * np.max(np.abs(values))
        self.assertTrue(any("BMC" in m for m in self.corrupted(edit)))

    def test_symmetric_perturbation_fails_quadrature(self):
        # perturb c_n and its mirror alike, so only the direct quadrature can see it
        n1, n2 = next(ix for ix in self.wl.indices if ix[1] != 0)
        half = self.wl.N // 2

        def edit(values, folded, err):
            delta = 1e-6 * np.max(np.abs(values))
            values[n2 + half, n1 + half] += delta
            values[-n2 + half, n1 + half] += checks.alternating(n1) * delta
        failures = self.corrupted(edit)
        self.assertTrue(any("quadrature" in m for m in failures))
        self.assertFalse(any("BMC" in m for m in failures))

    def test_odd_entry_in_folded_zero_row(self):
        def edit(values, folded, err):
            folded[0, self.wl.N // 2 + 3] = 1e-12
        self.assertTrue(any("folded" in m for m in self.corrupted(edit)))

    def test_error_above_tail_sum(self):
        def edit(values, folded, err):
            err[10, 10] = 1.0
        self.assertTrue(any("tail" in m for m in self.corrupted(edit)))


class ScatterChecks(unittest.TestCase):
    def test_real_output_passes_and_shuffled_points_fail(self):
        wl = workloads.Scatter(3, None)
        wl.setup()
        wl.prepare_checks()
        points = wl.next_input()
        out = wl.op(OFF, points)
        self.assertEqual(wl.check(points, out), [])
        shuffled = points[np.random.default_rng(0).permutation(len(points))]
        failures = wl.check(shuffled, out)
        self.assertTrue(any("folded-basis" in m for m in failures))
        self.assertTrue(any("tail" in m for m in failures))

    def test_torus_twin_must_agree(self):
        wl = workloads.Scatter(4, None)
        wl.setup()
        wl.prepare_checks()
        points = wl.next_input()
        folded, torus = wl.op(OFF, points)
        torus = torus.copy()
        torus[7] += 1e-6
        self.assertTrue(any("partial_sum_torus" in m for m in wl.check(points, (folded, torus))))


class CliChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
        cls.workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "work"))
        cls.wl = workloads.Cli(3, cls.workdir)
        cls.wl.prepare_checks()
        cwd = os.getcwd()
        os.chdir(cls.workdir)
        try:
            for _, args in cls.wl.commands:
                assert cli.main(args) == 0
        finally:
            os.chdir(cwd)
        cls.out = {key: (0, "verify orthogonality: PASS\n") for key, _ in cls.wl.commands}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def test_real_outputs_pass(self):
        self.assertEqual(self.wl.check(None, self.out), [])

    def test_truncated_dfsc_payload(self):
        raw = self.wl.read("table.dfsc", "rb")
        try:
            with open(self.path("table.dfsc"), "wb") as fh:
                fh.write(raw[:-16])
            self.assertTrue(any("payload" in m for m in self.wl.check(None, self.out)))
        finally:
            with open(self.path("table.dfsc"), "wb") as fh:
                fh.write(raw)

    def test_rising_error_in_csv(self):
        text = self.wl.read("errors.csv")
        lines = text.splitlines(keepends=True)
        # swap the max_error of the h = 16 and h = 24 rows
        rows = [line.split(",") for line in lines[2:4]]
        rows[0][3], rows[1][3] = rows[1][3], rows[0][3]
        try:
            with open(self.path("errors.csv"), "w", newline="") as fh:
                fh.write("".join(lines[:2] + [",".join(r) for r in rows] + lines[4:]))
            self.assertTrue(any("decreasing" in m for m in self.wl.check(None, self.out)))
        finally:
            with open(self.path("errors.csv"), "w", newline="") as fh:
                fh.write(text)

    def test_failed_command_and_missing_pass(self):
        out = dict(self.out, coeffs=(2, ""))
        self.assertTrue(any("exited 2" in m for m in self.wl.check(None, out)))
        out = dict(self.out, verify_orthogonality=(0, "verify orthogonality: FAIL\n"))
        self.assertTrue(any("PASS" in m for m in self.wl.check(None, out)))

    def test_op_without_outputs_fails(self):
        # a command that exits 0 but writes nothing must fail its op, not end the
        # run, and must not be checked against the previous op's files
        workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "work"))
        try:
            wl = workloads.Cli(3, workdir)
            for name in wl.outputs:
                shutil.copy(self.path(name), workdir)
            wl.op = lambda tr, inp: self.out
            loop = run.Loop(wl, OFF)
            loop.run(0.0)
            self.assertEqual((len(loop.times), loop.failed), (1, 1))
            self.assertTrue(any("FileNotFoundError" in m for m in loop.messages))
        finally:
            shutil.rmtree(workdir)

    def test_gram_bounds_in_json(self):
        self.assertEqual(checks.orthogonality_json(self.wl.read("orthogonality.json")), [])
        self.assertTrue(checks.orthogonality_json('{"n_functions": 45, "max_off_diagonal": 0.3, '
                                                  '"max_diagonal_error": 0.0}'))


if __name__ == "__main__":
    unittest.main()

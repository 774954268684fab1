"""The three benchmark workloads: expand, scatter and cli.

A workload builds its program inputs in ``setup``, draws an op's input in
``next_input`` (outside the timing), runs one op in ``op`` and checks that
op's output in ``check`` (also outside the timing). ``warm_up`` is the op
that set-up ends with. Every op of a workload does the same amount of work.
Each call into dfsphere goes through ``tr.call``, so a traced run records a
span around it.

Importing this module imports numpy and dfsphere; the set-up probe in
``run.py`` imports it inside its timing for that reason.
"""

import functools
import os
import subprocess
import sys

import numpy as np

import dfsphere as dfs
from dfsphere import analysis, sh_reference, spectral, testfns

import checks
from tracing import Tracer

MB = float(1 << 20)
F3 = testfns.spherical_function(testfns.preset("f3-combo"))


def _expand_pipeline(tr, f, n, omega, reference):
    """Sample -> double -> FFT -> fold -> unfold -> synthesis -> sup error."""
    g = tr.call("grids.sample_sphere", dfs.sample_sphere, f, n, n // 2)
    torus = tr.call("grids.dfs_double", dfs.dfs_double, g)
    tr.count("torus_grid_mb", torus.values.nbytes / MB)
    table = tr.call("spectral.compute_coefficients", dfs.compute_coefficients, torus)
    folded = tr.call("spectral.fold_coefficients", dfs.fold_coefficients, table)
    full = tr.call("spectral.unfold_coefficients", dfs.unfold_coefficients, folded)
    nth, nlam = reference.n_theta_half, reference.n_lambda
    synth = tr.call("spectral.partial_sum_grid", dfs.partial_sum_grid, full, omega, 2 * nth, nlam)
    upper = np.vstack([synth.values[nth:], synth.values[:1]])
    return table, folded, np.abs(upper - reference.values)


class Expand:
    """The forward path: f3-combo at N = 1024 to a degree-64 sup error."""

    name = "expand"
    N = 1024
    H = 64
    EVAL = (512, 256)  # reference lat-lon grid: n_lambda, n_theta_half
    N_QUAD_CHECKS = 8

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        self.reference = dfs.sample_sphere(F3, *self.EVAL)
        self.omega = dfs.SpectralSet("rectangle", self.H, half=True).symmetrized()

    def next_input(self):
        return None

    def op(self, tr, _inp):
        return _expand_pipeline(tr, F3, self.N, self.omega, self.reference)

    def warm_up(self, tr):
        return self.op(tr, None)

    def prepare_checks(self):
        """Direct quadrature at seeded indices, and the once-per-run C04 check."""
        self.indices = [tuple(int(v) for v in ix) for ix in
                        self.rng.integers(-self.H, self.H + 1, size=(self.N_QUAD_CHECKS, 2))]
        self.expected = checks.direct_coefficients(F3, self.N, self.indices)
        band = testfns.spherical_function(testfns.preset("bandlimited-4"))
        omega4 = dfs.SpectralSet("rectangle", 4, half=True).symmetrized()
        _, _, err = _expand_pipeline(Tracer(False), band, self.N, omega4, dfs.sample_sphere(band, *self.EVAL))
        worst = float(np.max(err))
        return [] if worst <= 1e-10 else [f"bandlimited-4 not reproduced: sup error {worst:.3e} (C04)"]

    def check(self, _inp, out):
        table, folded, err = out
        return (checks.bmc_symmetry(table.values)
                + checks.coefficients_match(table.values, self.indices, self.expected)
                + checks.folded_parity(folded.values)
                + checks.tail_dominates(err, checks.tail_sum(table.values, self.H)))


class Scatter:
    """Point evaluation: the h = 24 folded sum and its torus twin at 2000 points."""

    name = "scatter"
    N = 256
    H = 24
    POINTS = 2000
    N_DIRECT = 50

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.check_rng = np.random.default_rng([seed, 1])

    def setup(self):
        self.table = dfs.compute_coefficients(dfs.dfs_double(dfs.sample_sphere(F3, self.N, self.N // 2)))
        self.half = dfs.SpectralSet("rectangle", self.H, half=True)
        self.full = self.half.symmetrized()

    def next_input(self):
        """Seeded points, uniform on the sphere."""
        p = self.rng.standard_normal((self.POINTS, 3))
        return p / np.linalg.norm(p, axis=1)[:, None]

    def op(self, tr, points):
        folded = tr.call("spectral.dfs_fourier_sum", dfs.dfs_fourier_sum, self.table, self.half, points)
        lam, theta = tr.call("geometry.dfs_coord_inverse", dfs.dfs_coord_inverse, points)
        torus = tr.call("spectral.partial_sum_torus", dfs.partial_sum_torus, self.table, self.full, lam, theta)
        return folded, torus

    def warm_up(self, tr):
        return self.op(tr, self.next_input())

    def prepare_checks(self):
        self.tail = checks.tail_sum(self.table.values, self.H)
        return []

    def check(self, points, out):
        folded, torus = out
        some = self.check_rng.choice(len(points), size=self.N_DIRECT, replace=False)
        direct = checks.folded_sum(self.table.values, self.H, points[some])
        return (checks.values_agree(folded, torus, what="dfs_fourier_sum and partial_sum_torus")
                + checks.values_agree(folded[some], direct, what="dfs_fourier_sum and the folded-basis sum")
                + checks.tail_dominates(np.abs(folded - F3(points)), self.tail))


class Cli:
    """Three `dfs` commands in turn, each in a fresh interpreter."""

    name = "cli"
    GRID = 512
    DEGREES = (8, 16, 24)
    TIMEOUT_S = 150
    N_QUAD_CHECKS = 8

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.commands = [
            ("coeffs", ["coeffs", "--grid", str(self.GRID), "--out", "table.dfsc"]),
            ("error_table_sh", ["error-table", "--sh", "--degrees", ",".join(map(str, self.DEGREES)),
                                "--out", "errors.csv"]),
            ("verify_orthogonality", ["verify", "orthogonality", "--out", "orthogonality.json"]),
        ]
        self.outputs = ("table.dfsc", "errors.csv", "orthogonality.json")

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)

    def next_input(self):
        """Remove the previous op's outputs, so that each op is checked on its own."""
        for name in self.outputs:
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.unlink(path)

    def _dfs(self, args):
        """Run ``dfs args`` to its end; returns (exit code, stdout and stderr)."""
        return run_process([sys.executable, "-m", "dfsphere.cli", *args], self.workdir, self.TIMEOUT_S)

    def op(self, tr, _inp):
        return {key: tr.call(key, self._dfs, args) for key, args in self.commands}

    def warm_up(self, tr):
        """A small `dfs coeffs`: a full op takes seconds, and set-up is probed several times."""
        code, text = self._dfs(["coeffs", "--grid", "64", "--out", "warm_up.dfsc"])
        if code != 0:
            raise RuntimeError(f"warm-up dfs coeffs exited {code}: {text}")

    def prepare_checks(self):
        self.indices = [tuple(int(v) for v in ix) for ix in
                        self.rng.integers(-32, 33, size=(self.N_QUAD_CHECKS, 2))]
        self.expected = checks.direct_coefficients(F3, self.GRID, self.indices)
        return []

    def read(self, name, mode="r"):
        with open(os.path.join(self.workdir, name), mode) as fh:
            return fh.read()

    def check(self, _inp, out):
        failures = [f"dfs {key} exited {code}" for key, (code, _) in out.items() if code != 0]
        if "PASS" not in out["verify_orthogonality"][1]:
            failures.append("dfs verify orthogonality did not print PASS")
        if failures:
            return failures
        values, failures = checks.parse_dfsc(self.read("table.dfsc", "rb"), self.GRID)
        if values is not None:
            failures += checks.bmc_symmetry(values)
            failures += checks.coefficients_match(values, self.indices, self.expected)
        failures += checks.error_table_csv(self.read("errors.csv"), self.DEGREES)
        failures += checks.orthogonality_json(self.read("orthogonality.json"))
        return failures

    def layer_calls(self, tr):
        """The library calls behind the three commands, in-process at their sizes."""
        indices = [(a, b) for a in range(-4, 5) for b in range(5) if b > 0 or a % 2 == 0]
        basis = [functools.partial(spectral.basis_b, a, b) for a, b in indices]
        tr.call("spectral.gram_matrix", spectral.gram_matrix, basis, n_quad=512)
        res = max(2 * self.DEGREES[-1] + 2, 64)
        sh = tr.call("sh_reference.sh_analyze", sh_reference.sh_analyze,
                     dfs.sample_sphere(F3, 2 * res, res), self.DEGREES[-1])
        ref = dfs.sample_sphere(F3, 512, 256)
        points = dfs.dfs_coord(*np.meshgrid(ref.lambdas, ref.thetas))
        tr.call("sh_reference.sh_partial_sums", sh_reference.sh_partial_sums, sh, points, list(self.DEGREES))
        tr.call("analysis.error_table", analysis.error_table, F3, list(self.DEGREES))
        table = dfs.compute_coefficients(dfs.dfs_double(dfs.sample_sphere(F3, self.GRID, self.GRID // 2)))
        path = os.path.join(self.workdir, "layer.dfsc")
        tr.call("spectral.coeff_io_write", spectral.coeff_io_write, table, path)
        tr.count("dfsc_bytes", os.path.getsize(os.path.join(self.workdir, "table.dfsc")))
        for _ in range(3):
            code, text = tr.call("import", run_process, [sys.executable, "-c", "import dfsphere"],
                                 self.workdir, 60)
            if code != 0:
                raise RuntimeError(f"import dfsphere failed: {text}")


def run_process(argv, cwd, timeout_s):
    """Run a child to its end; returns (exit code, stdout and stderr)."""
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, errors="replace", timeout=timeout_s)
    return proc.returncode, proc.stdout


WORKLOADS = {w.name: w for w in (Expand, Scatter, Cli)}

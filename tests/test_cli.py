import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dfsphere
from dfsphere.analysis import coefficient_table_for, error_table
from dfsphere.cli import main
from dfsphere.grids import grid_io_read
from dfsphere.spectral import SpectralSet, _grid_sum, coeff_io_read
from dfsphere.testfns import preset, spherical_function


def run(argv):
    return main(argv)


class TestTransform:
    def test_coordinate_grid_has_cosine_rows(self, tmp_path, capsys):
        out = tmp_path / "z.dfsg"
        assert run(["transform", "--preset", "coordinate-z", "--grid", "64", "--out", str(out)]) == 0
        grid = grid_io_read(out)
        assert grid.bmc
        expected = np.broadcast_to(np.cos(grid.thetas)[:, None], grid.values.shape)
        assert_allclose(grid.values.real, expected, atol=1e-14)
        assert "bmc check: exact" in capsys.readouterr().out

    def test_combo_reports_exact_bmc(self, tmp_path, capsys):
        out = tmp_path / "c.dfsg"
        assert run(["transform", "--preset", "f3-combo", "--grid", "128", "--out", str(out)]) == 0
        assert "exact" in capsys.readouterr().out

    def test_odd_grid_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.dfsg"
        code = run(["transform", "--preset", "coordinate-z", "--grid", "63", "--out", str(out)])
        assert code == 2
        assert "even" in capsys.readouterr().err
        assert not out.exists()  # validation precedes any write

    def test_missing_out_exits_two(self):
        assert run(["transform", "--preset", "coordinate-z", "--grid", "64"]) == 2

    def test_unknown_preset_exits_two(self, tmp_path):
        out = tmp_path / "x.dfsg"
        assert run(["transform", "--preset", "zzz", "--grid", "64", "--out", str(out)]) == 2


class TestCoeffs:
    def test_writes_readable_table(self, tmp_path):
        out = tmp_path / "c.dfsc"
        assert run(["coeffs", "--preset", "f3-combo", "--grid", "64", "--out", str(out)]) == 0
        table = coeff_io_read(out)
        assert table.values.shape == (64, 64)

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"terms": [{"kind": "coordinate", "weight": 2.0}]}))
        out = tmp_path / "c.dfsc"
        assert run(["coeffs", "--spec", str(spec), "--grid", "32", "--out", str(out)]) == 0
        table = coeff_io_read(out)
        assert_allclose(table.coeff(0, 1), 1.0, atol=1e-13)  # 2 cos(theta) / 2

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        # only {"terms": [<term object>, ...]} is a spec; after the bad JSON the next five payloads
        # used to end in a KeyError, AttributeError, TypeError, IndexError and TypeError, each with
        # exit 1; the string weight and nu were read as the numbers 2 and 3, with exit 0
        spec, out = tmp_path / "f.json", tmp_path / "c"
        for payload in ["{not json", '{"terms": [{"weight": 1.0}]}', "[3]", '{"terms": 3}', '{"terms": []}',
                        '{"terms": [{"kind": "f_nu", "a": null}]}',
                        '{"terms": [{"kind": "coordinate", "weight": "2"}]}',
                        '{"terms": [{"kind": "f_nu", "nu": "3"}]}', '{"terms": [{"kind": "f_nu", "a": true}]}']:
            spec.write_text(payload)
            assert run(["coeffs", "--spec", str(spec), "--grid", "32", "--out", str(out)]) == 2, payload
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()

    def test_missing_out_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["coeffs", "--preset", "coordinate-z", "--grid", "16"]) == 2
        assert "requires --out" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestApprox:
    def test_writes_reconstruction(self, tmp_path, capsys):
        out = tmp_path / "a.dfsg"
        code = run([
            "approx", "--preset", "bandlimited-4", "--grid", "64",
            "--degrees", "8", "--out", str(out),
        ])
        assert code == 0
        assert "max error" in capsys.readouterr().out
        assert grid_io_read(out).n_lambda == 512

    @pytest.mark.parametrize("shape", [["rectangle"], ["ball", "l1"]], ids=["rectangle", "ball-l1"])
    def test_output_is_doubled_latlon_synthesis(self, tmp_path, shape):
        # the written grid is the lat-lon synthesis doubled by the glide
        # reflection: exactly BMC, and the torus partial sum to rounding
        out = tmp_path / "a.dfsg"
        flags = ["--shape", shape[0]] + (["--norm", shape[1]] if len(shape) > 1 else [])
        argv = ["approx", "--preset", "f3-combo", "--grid", "64", "--degrees", "12", *flags, "--out", str(out)]
        assert run(argv) == 0
        grid = grid_io_read(out)
        assert grid.values.shape == (512, 512)
        assert grid.bmc is True
        assert grid.bmc_violation() == 0.0
        table = coefficient_table_for(spherical_function(preset("f3-combo")), 64)
        expected = _grid_sum(table, SpectralSet(shape[0], 12, *shape[1:]), 512, 512, slice(None))
        assert np.max(np.abs(grid.values - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_missing_out_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["approx", "--preset", "coordinate-z", "--grid", "16", "--degrees", "2"]) == 2
        assert "requires --out" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_undersampled_grid_exits_two(self, tmp_path):
        code = run([
            "approx", "--preset", "bandlimited-4", "--grid", "16",
            "--degrees", "16", "--out", str(tmp_path / "a.dfsg"),
        ])
        assert code == 2

    def test_max_error_matches_error_table(self, tmp_path, capsys):
        out = tmp_path / "a.dfsg"
        code = run([
            "approx", "--preset", "f3-combo", "--grid", "256",
            "--degrees", "16", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()[-1].split(": ")[-1]
        f = spherical_function(preset("f3-combo"))
        row = error_table(f, [16], grid_size=256)[0]
        assert printed == f"{row.max_error:.6e}"


class TestNonFiniteSpec:
    @pytest.fixture
    def nan_spec(self, tmp_path):
        # json.dumps writes the bare token NaN, which json.load reads back as nan
        spec = tmp_path / "nan.json"
        spec.write_text(json.dumps({"terms": [{"kind": "f_nu", "weight": float("nan")}]}))
        return str(spec)

    def test_verify_bmc_symmetry_exits_two(self, tmp_path, nan_spec, capsys):
        out = tmp_path / "b.json"
        code = run(["verify", "bmc-symmetry", "--spec", nan_spec, "--grid", "64", "--out", str(out)])
        assert code == 2
        assert "PASS" not in capsys.readouterr().out
        assert not out.exists()

    def test_approx_exits_two(self, tmp_path, nan_spec):
        out = tmp_path / "a.dfsg"
        code = run(["approx", "--spec", nan_spec, "--grid", "64", "--degrees", "8", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_non_finite_cut_exits_two(self, tmp_path):
        # the cut a is read for every kind, though only f_nu uses it
        spec = tmp_path / "a.json"
        spec.write_text(json.dumps({"terms": [{"kind": "coordinate", "a": float("nan")}]}))
        out = tmp_path / "c.dfsc"
        assert run(["coeffs", "--spec", str(spec), "--grid", "64", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("nu", [2.5, -1])
    def test_fractional_or_negative_order_exits_two(self, tmp_path, nu):
        # a plateau order must be an integer >= 0; it is not rounded or clipped
        spec = tmp_path / "nu.json"
        spec.write_text(json.dumps({"terms": [{"kind": "f_nu", "nu": nu}]}))
        out = tmp_path / "c.dfsc"
        assert run(["coeffs", "--spec", str(spec), "--grid", "64", "--out", str(out)]) == 2
        assert not out.exists()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestErrorTable:
    def test_monotone_errors_and_slope_footer(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run([
            "error-table", "--preset", "f3-combo",
            "--degrees", "16,32,64", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["h", "shape", "n_terms", "max_error", "elapsed_s"]
        errs = [float(r[3]) for r in rows[1:4]]
        assert errs[0] > errs[1] > errs[2]
        assert rows[4][0] == "slope"
        assert float(rows[4][3]) <= -2.7

    def test_bandlimited_beyond_bandwidth(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run([
            "error-table", "--preset", "bandlimited-4",
            "--degrees", "4,6,8", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert all(float(r[3]) <= 1e-10 for r in rows[1:4])

    def test_sh_column_ratio(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run([
            "error-table", "--preset", "f3-combo",
            "--degrees", "16,32", "--sh", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0][-1] == "sh_max_error"
        for r in rows[1:3]:
            ratio = float(r[3]) / float(r[5])
            assert 0.1 <= ratio <= 10.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "e.json"
        code = run([
            "error-table", "--preset", "f3-combo", "--degrees", "8,16",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 2

    def test_descending_degrees_exit_two(self, tmp_path):
        assert run(["error-table", "--preset", "f3-combo", "--degrees", "32,16"]) == 2

    def test_empty_degrees_exit_two(self):
        assert run(["error-table", "--preset", "f3-combo", "--degrees", ""]) == 2

    @pytest.mark.parametrize("degrees", ["0,8", "8,-16", "2.5"])
    def test_zero_negative_or_fractional_degrees_exit_two(self, degrees):
        assert run(["error-table", "--preset", "f3-combo", "--degrees", degrees]) == 2

    def test_json_slope_field(self, tmp_path):
        out = tmp_path / "s.json"
        code = run([
            "error-table", "--preset", "f3-combo", "--degrees", "16,32,64",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["slope"] <= -2.7

    def test_determinism_excluding_timing(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run([
                "error-table", "--preset", "f3-combo",
                "--degrees", "8,16", "--seed", "0", "--out", str(out),
            ]) == 0
        strip = lambda rows: [r[:4] + r[5:] for r in rows]
        assert strip(read_csv(a)) == strip(read_csv(b))


class TestVerify:
    def test_zeta(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        code = run(["verify", "zeta", "--k", "2", "--alpha", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["schema_version"] == 1
        assert_allclose(report["limit"], 2 * np.pi**2 / 3, atol=1e-12)
        assert report["gap"] <= report["integral_tail_bound"]
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_zeta_non_finite_alpha_exits_two(self, tmp_path, alpha, capsys):
        # --alpha inf used to PASS with gap = bound = 0; nan wrote NaN tokens
        out = tmp_path / "z.json"
        assert run(["verify", "zeta", "--alpha", alpha, "--out", str(out)]) == 2
        assert "PASS" not in capsys.readouterr().out
        assert not out.exists()

    def test_bmc_symmetry(self, tmp_path):
        out = tmp_path / "b.json"
        code = run([
            "verify", "bmc-symmetry", "--preset", "f3-combo",
            "--grid", "256", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_relative_asymmetry"] <= 1e-10

    def test_orthogonality(self, tmp_path):
        out = tmp_path / "o.json"
        assert run(["verify", "orthogonality", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_off_diagonal"] <= 1e-10

    def test_sobolev(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["verify", "sobolev", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(r >= 5.0 for r in report["torus_ratios_per_decade"][-3:])

    def test_hoelder(self, tmp_path):
        out = tmp_path / "h.json"
        code = run([
            "verify", "hoelder", "--preset", "coordinate-z",
            "--alpha", "0.5", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_violations"] == 0

    @pytest.mark.parametrize("alpha", ["1.5", "nan"])
    def test_hoelder_alpha_outside_unit_interval_exits_two(self, tmp_path, alpha, capsys):
        out = tmp_path / "h.json"
        assert run(["verify", "hoelder", "--alpha", alpha, "--out", str(out)]) == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_decay(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["verify", "decay", "--preset", "f3-combo", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["slope"] <= -3.9

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "not-a-check"])
        assert exc.value.code == 2
        capsys.readouterr()


# Runs in a fresh interpreter whose import system refuses every scipy module.
SCIPY_BLOCKED = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
from dfsphere.cli import main

for argv in COMMANDS:
    assert main(argv) == 0, argv
assert "scipy" not in sys.modules
"""


def test_every_command_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is a test oracle only
    commands = [
        ["transform", "--grid", "32", "--out", "t.dfsg"],
        ["coeffs", "--grid", "32", "--out", "c.dfsc"],
        ["approx", "--grid", "32", "--degrees", "8", "--out", "a.dfsg"],
        ["error-table", "--sh", "--degrees", "4,8", "--out", "e.csv"],
        ["verify", "bmc-symmetry", "--grid", "32", "--out", "b.json"],
        *(["verify", check, "--out", f"{check}.json"] for check in
          ("orthogonality", "decay", "zeta", "sobolev", "hoelder")),
    ]
    src = os.path.dirname(os.path.dirname(dfsphere.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = SCIPY_BLOCKED.replace("COMMANDS", repr(commands))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

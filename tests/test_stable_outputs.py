"""The stable interface against checked-in outputs: DFSC and DFSG files and the JSON reports of ``dfs``.

Each command runs in process through ``cli.main`` and is compared with its
fixture in ``tests/fixtures/stable_outputs``: file headers, shapes, JSON keys,
strings, integers and ``passed`` flags exactly; payloads within 1e-13 of their
largest entry; JSON numbers within 1e-13 relative or 1e-16 absolute. FFT bits
differ between numpy builds, so no bits are compared. The rounding residuals
of ``dfs verify`` are checked against the bounds that command applies, not
against the fixture, and the timing field ``elapsed_s`` is not compared.

Regenerate the fixtures, when a change to the interface is meant, with

    PYTHONPATH=src python tests/test_stable_outputs.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dfsphere import cli

FIXTURES = Path(__file__).parent / "fixtures" / "stable_outputs"

#: fixture name -> the dfs arguments that write it, less ``--out``
COMMANDS = {
    "coeffs.dfsc": ["coeffs", "--grid", "32"],
    "transform.dfsg": ["transform", "--grid", "32"],
    **{f"verify_{check}.json": ["verify", check]
       for check in ("bmc-symmetry", "orthogonality", "decay", "zeta", "sobolev", "hoelder")},
    "error_table_sh.json": ["error-table", "--sh", "--degrees", "4,8", "--format", "json"],
}

#: header bytes of each binary layout: magic, version and the size fields
HEADER_BYTES = {".dfsc": 41, ".dfsg": 25}

#: rounding residuals of ``dfs verify`` and the bounds it holds them to
RESIDUAL_BOUNDS = {"max_relative_asymmetry": 1e-10, "max_off_diagonal": 1e-10, "max_diagonal_error": 1e-8}


def write_outputs(directory):
    """Run every command of :data:`COMMANDS` with its output in ``directory``; each must exit 0."""
    for name, argv in COMMANDS.items():
        status = cli.main([*argv, "--out", str(Path(directory) / name)])
        assert status == 0, f"dfs {' '.join(argv)} exited {status}"


def compare_binary(got, want, header):
    assert got[:header] == want[:header]
    assert len(got) == len(want)
    got, want = (np.frombuffer(raw, dtype="<c16", offset=header) for raw in (got, want))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def compare_json(got, want, path="report"):
    """Equal structure and keys; numbers within 1e-13 relative or 1e-16 absolute, residuals within their bounds."""
    assert type(got) is type(want) or {type(got), type(want)} == {int, float}, path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            if key in RESIDUAL_BOUNDS:
                assert 0.0 <= got[key] <= RESIDUAL_BOUNDS[key], f"{path}.{key}"
            elif key != "elapsed_s":
                compare_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            compare_json(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-16), f"{path}: {got!r} against {want!r}"
    else:  # strings, integers and the passed flags
        assert got == want, path


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stable_outputs")
    write_outputs(directory)
    return directory


def test_fixtures_stay_small():
    sizes = [(FIXTURES / name).stat().st_size for name in COMMANDS]
    assert sum(sizes) <= 50_000


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_fixture(outputs, name):
    got, want = (directory / name for directory in (outputs, FIXTURES))
    if want.suffix in HEADER_BYTES:
        compare_binary(got.read_bytes(), want.read_bytes(), HEADER_BYTES[want.suffix])
    else:
        compare_json(json.loads(got.read_text()), json.loads(want.read_text()))


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    write_outputs(FIXTURES)

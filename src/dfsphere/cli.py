"""Command-line front end.

    dfs transform    --preset f3-combo --grid 256 --out grid.dfsg
    dfs coeffs       --preset f3-combo --grid 256 --out table.dfsc
    dfs approx       --preset f3-combo --grid 256 --degrees 16 --out approx.dfsg
    dfs error-table  --preset f3-combo --degrees 16,32,64 --out errors.csv
    dfs verify zeta  --k 2 --alpha 1 --out report.json

Exit codes: 0 success, 1 assertion failure inside a verify run, 2 bad usage or
configuration. Configuration is validated before any file is written. Output
is data only (CSV per RFC 4180, or JSON with a schema-version field); timing
columns are informational and vary run to run.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import analysis, spectral, testfns
from .grids import dfs_double, grid_io_write, sample_sphere
from .sh_reference import sh_analyze
from .spectral import _check_degrees, coeff_io_write

SCHEMA_VERSION = 1


def _load_function(args):
    if args.spec:
        with open(args.spec) as fh:
            raw = json.load(fh)
        terms = raw.get("terms") if isinstance(raw, dict) else None
        if not isinstance(terms, list):
            raise ValueError(f'{args.spec}: a spec must be an object whose "terms" is a list of term objects')
        specs = [testfns.spec_from_dict(t) for t in terms]
    else:
        specs = testfns.preset(args.preset)
    return testfns.spherical_function(specs), args.spec or args.preset


def _parse_degrees(raw):
    try:
        degrees = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse degree list {raw!r}")
    if _check_degrees(degrees)[0] < 1:
        raise ValueError("degrees must be positive")
    return degrees


def _check_grid(n):
    if n < 4 or n % 2:
        raise ValueError(f"grid size must be even and >= 4, got {n}")
    return n


def _write_text(path, text):
    """Write ``text`` to ``path`` as given, line endings included, or to stdout when no path is set."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])  # csv defaults to CRLF line endings (RFC 4180)
    _write_text(path, buf.getvalue())


def _write_json(path, payload):
    _write_text(path, json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True) + "\n")


def cmd_transform(args):
    f, name = _load_function(args)
    n = _check_grid(args.grid)
    if not args.out:
        raise ValueError("transform requires --out for the grid file")
    grid = dfs_double(sample_sphere(f, n, n // 2))
    violation = grid.bmc_violation()
    grid_io_write(grid, args.out)
    status = "exact" if violation == 0.0 else f"{violation:.3e}"
    print(f"transform {name}: {grid.n_theta} x {grid.n_lambda} torus grid -> {args.out}")
    print(f"bmc check: {status}")
    return 0


def cmd_coeffs(args):
    f, name = _load_function(args)
    n = _check_grid(args.grid)
    if not args.out:
        raise ValueError("coeffs requires --out for the coefficient file")
    table = analysis.coefficient_table_for(f, n)
    coeff_io_write(table, args.out)
    print(f"coeffs {name}: {n} x {n} grid -> {args.out}")
    print(f"coefficient symmetry (relative): {table.symmetry_violation():.3e}")
    return 0


def cmd_approx(args):
    f, name = _load_function(args)
    n = _check_grid(args.grid)
    h = _parse_degrees(args.degrees)[-1]
    if not args.out:
        raise ValueError("approx requires --out for the reconstruction grid file")
    if n < 4 * h:
        raise ValueError(f"grid {n} under-samples degree {h}; need >= {4 * h} (4x oversampling)")
    (t,) = analysis.truncations(f, [h], args.shape, args.norm, grid_size=n)
    grid_io_write(dfs_double(t.synthesis), args.out)
    ref = t.reference
    print(f"approx {name}: degree {h} {t.omega.shape} ({t.omega.size} terms) -> {args.out}")
    print(f"max error on {ref.n_lambda} x {ref.n_theta_half + 1} grid: {t.max_error:.6e}")
    return 0


def cmd_error_table(args):
    f, name = _load_function(args)
    degrees = _parse_degrees(args.degrees)
    sh_coeffs = None
    if args.sh:
        res = max(2 * degrees[-1] + 2, 64)
        sh_coeffs = sh_analyze(sample_sphere(f, 2 * res, res), degrees[-1])
    rows = analysis.error_table(
        f,
        degrees,
        shape=args.shape,
        norm=args.norm,
        oversample=args.oversample,
        sh_coefficients=sh_coeffs,
    )
    try:
        slope = analysis.fit_rate(rows)
    except ValueError:  # fewer than three rows with positive degree and error
        slope = None
    records = [
        {
            "h": r.degree,
            "shape": r.shape,
            "n_terms": r.n_terms,
            "max_error": r.max_error,
            "elapsed_s": r.elapsed,
            **({"sh_max_error": r.sh_max_error} if args.sh else {}),
        }
        for r in rows
    ]
    if args.format == "json":
        payload = {"function": name, "rows": records}
        if slope is not None:
            payload["slope"] = slope
        _write_json(args.out, payload)
        return 0
    header = list(records[0])
    formats = {"max_error": "{:.12e}", "elapsed_s": "{:.6f}", "sh_max_error": "{:.12e}"}
    out_rows = [[formats.get(k, "{}").format(v) for k, v in rec.items()] for rec in records]
    if slope is not None:
        out_rows.append(["slope", "", "", f"{slope:.6f}"] + [""] * (len(header) - 4))
    _write_csv(args.out, header, out_rows)
    return 0


def _verify_bmc_symmetry(args, report):
    f, name = _load_function(args)
    n = _check_grid(args.grid)
    table = analysis.coefficient_table_for(f, n)
    violation = table.symmetry_violation()
    report["function"] = name
    report["max_relative_asymmetry"] = violation
    report["tolerance"] = 1e-10
    return violation <= 1e-10


def _verify_orthogonality(args, report):
    indices = spectral.orthogonal_indices(4)
    G = spectral.basis_gram(indices)
    off = np.abs(G - np.diag(np.diag(G)))
    diag = np.real(np.diag(G))
    expected = np.array([2 * np.pi**2 if b == 0 else 4 * np.pi**2 for a, b in indices])
    report["n_functions"] = len(indices)
    report["max_off_diagonal"] = float(off.max())
    report["max_diagonal_error"] = float(np.max(np.abs(diag - expected)))
    return off.max() <= 1e-10 and np.max(np.abs(diag - expected)) <= 1e-8


def _verify_decay(args, report):
    f, name = _load_function(args)
    table = analysis.coefficient_table_for(f, max(args.grid, 512))
    rep = analysis.decay_report(table, k=3, alpha=0.9, r_min=8, r_max=128)
    report["function"] = name
    report["slope"] = rep.slope
    report["frac_nonincreasing"] = rep.frac_nonincreasing
    report["mann_kendall_frac"] = rep.mann_kendall_frac
    # bounded rescaled sequence: trend test on all pairs, and the decay
    # exponent itself must beat the smoothness-predicted rate
    return rep.slope <= -3.9 and rep.mann_kendall_frac >= 0.6


def _verify_zeta(args, report):
    alpha = 1.0 if args.alpha is None else args.alpha
    res = analysis.zeta_tail_sum(args.k, alpha, h=10_000)
    tail_bound = 4.0 * 10_000.0 ** (2.0 - args.k - alpha) / (args.k + alpha - 2.0)
    report["partial_sum"] = res.partial_sum
    report["limit"] = res.limit
    report["gap"] = res.gap
    report["integral_tail_bound"] = tail_bound
    return 0.0 <= res.gap <= tail_bound


def _verify_sobolev(args, report):
    probe = analysis.sobolev_probe([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    incr = probe.sphere_increments
    ratios = [probe.torus_ratio(i) for i in range(1, len(probe.epsilons))]
    report["epsilons"] = probe.epsilons.tolist()
    report["sphere_energy"] = probe.sphere_energy.tolist()
    report["torus_energy"] = probe.torus_energy.tolist()
    report["torus_ratios_per_decade"] = ratios
    shrinking = bool(np.all(np.diff(incr) < 0))
    cap = 8.0 * np.pi / np.log(8.0)
    report["sphere_energy_cap"] = cap
    ok_ratios = all(r >= 5.0 for r in ratios[-3:])
    ok_div = probe.torus_energy[-1] / probe.sphere_energy[-1] >= 100.0
    return shrinking and ok_ratios and ok_div and probe.sphere_energy[-1] <= cap


def _verify_hoelder(args, report):
    f, name = _load_function(args)
    alpha = 0.5 if args.alpha is None else args.alpha
    rep = analysis.hoelder_quotient_check(f, alpha=alpha, n_pairs=10_000, seed=args.seed)
    report["alpha"] = alpha
    report["function"] = name
    report["n_pairs"] = rep.n_pairs
    report["n_violations"] = rep.n_violations
    report["max_torus_quotient"] = rep.max_torus_quotient
    report["max_sphere_quotient"] = rep.max_sphere_quotient
    return rep.holds


#: the checks of ``dfs verify``: each fills the report and returns whether it passed
VERIFY_CHECKS = {
    "bmc-symmetry": _verify_bmc_symmetry,
    "orthogonality": _verify_orthogonality,
    "decay": _verify_decay,
    "zeta": _verify_zeta,
    "sobolev": _verify_sobolev,
    "hoelder": _verify_hoelder,
}


def cmd_verify(args):
    report = {"check": args.check, "seed": args.seed}
    passed = VERIFY_CHECKS[args.check](args, report)
    report["passed"] = bool(passed)
    _write_json(args.out, report)
    print(f"verify {args.check}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dfs",
        description="Double Fourier sphere pipeline: transform, expand, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, degrees=False):
        p.set_defaults(handler=handler)
        p.add_argument("--preset", default="f3-combo", help="named test function")
        p.add_argument("--spec", default=None, help="JSON file describing the function")
        p.add_argument("--grid", type=int, default=256, help="torus grid size (even)")
        if degrees:
            p.add_argument("--degrees", default="16,32,64", help="comma-separated ascending degrees")
        p.add_argument("--shape", choices=("rect", "rectangle", "ball"), default="rect")
        p.add_argument("--norm", choices=("l1", "l2"), default="l2")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout for tables)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("transform", help="sample, double, and write a BMC torus grid"), cmd_transform)
    common(sub.add_parser("coeffs", help="write the Fourier coefficient table"), cmd_coeffs)
    p_approx = sub.add_parser("approx", help="truncated reconstruction on the evaluation grid")
    common(p_approx, cmd_approx, degrees=True)
    p_err = sub.add_parser("error-table", help="truncation error per degree (CSV/JSON)")
    common(p_err, cmd_error_table, degrees=True)
    p_err.add_argument("--sh", action="store_true", help="add a spherical-harmonics error column")
    p_err.add_argument("--oversample", type=int, default=4)

    p_ver = sub.add_parser("verify", help="run one named check and write a JSON report")
    p_ver.add_argument("check", choices=VERIFY_CHECKS)
    common(p_ver, cmd_verify)
    p_ver.add_argument("--k", type=int, default=2)
    p_ver.add_argument("--alpha", type=float, default=None,
                       help="smoothness exponent (zeta default 1.0, hoelder default 0.5)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "shape", None) == "rect":
        args.shape = "rectangle"
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

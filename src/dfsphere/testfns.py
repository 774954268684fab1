"""Test functions on the sphere: plateau caps, smooth probes, and the
log-log counterexample whose torus gradient energy diverges.

A function is described by one or more :class:`TestFunctionSpec` terms; a term
is evaluated on arrays of unit vectors and terms add up. Specs serialize to
plain dicts for the JSON configuration consumed by the command-line front end.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TestFunctionSpec",
    "rotation_to",
    "eval_f_nu",
    "eval_counterexample",
    "eval_spec",
    "spherical_function",
    "standard_combination",
    "preset",
    "preset_names",
    "spec_from_dict",
    "spec_to_dict",
]

KINDS = ("f_nu", "counterexample", "harmonic_probe", "constant", "coordinate")


def rotation_to(target):
    """Rotation matrix mapping the north pole e3 to the unit vector ``target``."""
    t = np.asarray(target, dtype=float)
    t = t / np.linalg.norm(t)
    e3 = np.array([0.0, 0.0, 1.0])
    v = np.cross(e3, t)
    c = float(e3 @ t)
    if np.allclose(v, 0.0):
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    K = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + K + K @ K / (1.0 + c)


@dataclass
class TestFunctionSpec:
    """One additive term of a spherical test function."""

    __test__ = False  # not a pytest collection target

    kind: str
    nu: int = 3
    a: float = 0.5
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown test function kind {self.kind!r}")
        self.rotation = np.asarray(self.rotation, dtype=float)
        if self.rotation.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        R = self.rotation
        if not (np.all(np.isfinite(R)) and np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12):
            raise ValueError("rotation matrix must be finite and orthogonal within 1e-12")
        if not np.isfinite(self.weight):
            raise ValueError(f"weight must be finite, got {self.weight}")
        if self.kind == "f_nu" and not (0.0 < self.a < 1.0):
            raise ValueError("plateau cut a must lie in (0, 1)")

    @property
    def axis(self):
        """Image of the north pole under the rotation (the cap axis)."""
        return self.rotation @ np.array([0.0, 0.0, 1.0])


def eval_f_nu(spec, points):
    """Plateau cap: weight * ((<axis, xi> - a)_+)^(nu + 1).

    Exactly zero outside the cap <axis, xi> > a; the (nu)-th derivative is
    Lipschitz across the cap edge, i.e. the function lies in every Hoelder
    class C^{nu, alpha} with alpha < 1.
    """
    p = np.asarray(points, dtype=float)
    t = p @ spec.axis
    return spec.weight * np.clip(t - spec.a, 0.0, None) ** (spec.nu + 1)


def eval_counterexample(points):
    """ln(ln(8 / sqrt(1 - xi3^2))), with value 0 at the two poles.

    Square-integrable on the sphere with square-integrable surface gradient,
    yet the composition with the coordinate transform has divergent gradient
    energy on the torus.
    """
    p = np.asarray(points, dtype=float)
    z = p[..., 2]
    s2 = np.clip(1.0 - z * z, 0.0, None)
    out = np.zeros_like(s2)
    interior = s2 > 0.0
    out[interior] = np.log(np.log(8.0 / np.sqrt(s2[interior])))
    return out


def _eval_harmonic_probe(spec, points):
    """Degree-nu sectoral harmonic polynomial Re[(x + i y)^nu] of the rotated frame."""
    p = np.asarray(points, dtype=float) @ spec.rotation  # rows: (R^T xi), i.e. compose with R
    return spec.weight * np.real((p[..., 0] + 1j * p[..., 1]) ** spec.nu)


def eval_spec(spec, points):
    """Evaluate a single term."""
    if spec.kind == "f_nu":
        return eval_f_nu(spec, points)
    if spec.kind == "counterexample":
        return spec.weight * eval_counterexample(points)
    if spec.kind == "harmonic_probe":
        return _eval_harmonic_probe(spec, points)
    if spec.kind == "constant":
        return spec.weight * np.ones(np.asarray(points).shape[:-1])
    # coordinate: third coordinate of the rotated frame
    p = np.asarray(points, dtype=float)
    return spec.weight * (p @ spec.axis)


def spherical_function(specs):
    """Sum of terms as a single callable over arrays of unit vectors."""
    specs = list(specs)

    def f(points):
        out = eval_spec(specs[0], points)
        for s in specs[1:]:
            out = out + eval_spec(s, points)
        return out

    return f


def standard_combination():
    """The fixed three-cap combination used throughout the benchmarks.

    Three plateau caps with nu = 3 and cut a = 0.5, weights (1.0, 0.6, -0.4),
    axes (1, 0, 0), (0, 1, 0) and -(1, 1, 1)/sqrt(3). Deterministic across runs.
    """
    return [
        TestFunctionSpec("f_nu", nu=3, a=0.5, rotation=rotation_to([1.0, 0.0, 0.0]), weight=1.0),
        TestFunctionSpec("f_nu", nu=3, a=0.5, rotation=rotation_to([0.0, 1.0, 0.0]), weight=0.6),
        TestFunctionSpec("f_nu", nu=3, a=0.5, rotation=rotation_to([-1.0, -1.0, -1.0]), weight=-0.4),
    ]


_PRESETS = {
    "constant": lambda: [TestFunctionSpec("constant", weight=1.0)],
    "coordinate-z": lambda: [TestFunctionSpec("coordinate", weight=1.0)],
    "f1": lambda: [TestFunctionSpec("f_nu", nu=1, a=0.5, weight=1.0)],
    "f3": lambda: [TestFunctionSpec("f_nu", nu=3, a=0.5, weight=1.0)],
    "f3-combo": standard_combination,
    "counterexample": lambda: [TestFunctionSpec("counterexample", weight=1.0)],
    # bandlimited: spherical polynomial of degree 4 (mixed probe degrees/frames)
    "bandlimited-4": lambda: [
        TestFunctionSpec("harmonic_probe", nu=4, weight=1.0),
        TestFunctionSpec("harmonic_probe", nu=3, rotation=rotation_to([0.0, 1.0, 0.0]), weight=0.5),
        TestFunctionSpec("harmonic_probe", nu=2, rotation=rotation_to([1.0, 1.0, 1.0]), weight=-0.25),
        TestFunctionSpec("coordinate", weight=0.75),
    ],
}


def preset_names():
    return sorted(_PRESETS)


def preset(name):
    """Specs of a named preset."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None


def spec_to_dict(spec):
    return {
        "kind": spec.kind,
        "nu": spec.nu,
        "a": spec.a,
        "rotation": spec.rotation.tolist(),
        "weight": spec.weight,
    }


def spec_from_dict(d):
    return TestFunctionSpec(
        kind=d["kind"],
        nu=int(d.get("nu", 3)),
        a=float(d.get("a", 0.5)),
        rotation=np.asarray(d.get("rotation", np.eye(3)), dtype=float),
        weight=float(d.get("weight", 1.0)),
    )

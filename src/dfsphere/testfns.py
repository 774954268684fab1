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
        if not isinstance(self.kind, str) or self.kind not in KINDS:  # a JSON list or object is unhashable
            raise ValueError(f"unknown test function kind {self.kind!r}")
        self.rotation = np.asarray(self.rotation, dtype=float)
        if self.rotation.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        R = self.rotation
        if not (np.all(np.isfinite(R)) and np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12):
            raise ValueError("rotation matrix must be finite and orthogonal within 1e-12")
        if not np.isfinite(self.weight):
            raise ValueError(f"weight must be finite, got {self.weight}")
        if not np.isfinite(self.a):
            raise ValueError(f"plateau cut a must be finite, got {self.a}")
        if self.kind == "f_nu" and not (0.0 < self.a < 1.0):
            raise ValueError("plateau cut a must lie in (0, 1)")
        if self.kind == "f_nu" and not (float(self.nu).is_integer() and self.nu >= 0):
            raise ValueError(f"plateau order nu must be an integer >= 0, got {self.nu}")

    @property
    def axis(self):
        """Image of the north pole under the rotation (the cap axis)."""
        return self.rotation @ np.array([0.0, 0.0, 1.0])


def _power_in_place(x, k):
    """x ** k for an integer k >= 1 by repeated squaring, overwriting ``x``.

    A power of two needs no array besides ``x``, any other k one more.
    """
    result = None
    while k > 1:
        if k & 1:
            result = x.copy() if result is None else np.multiply(result, x, out=result)
        x *= x
        k >>= 1
    return x if result is None else np.multiply(result, x, out=result)


def eval_f_nu(spec, points):
    """Plateau cap: weight * ((<axis, xi> - a)_+)^(nu + 1).

    Exactly zero outside the cap <axis, xi> > a; the (nu)-th derivative is
    Lipschitz across the cap edge, i.e. the function lies in every Hoelder
    class C^{nu, alpha} with alpha < 1. The integer power is taken by squaring
    in place, not by ``**``, which goes through ``pow``.
    """
    p = np.asarray(points, dtype=float)
    cap = np.asarray(p @ spec.axis)  # a 0-d array for a single point, so the in-place steps hold
    cap -= spec.a
    np.maximum(cap, 0.0, out=cap)
    power = _power_in_place(cap, int(spec.nu) + 1)
    power *= spec.weight
    return power


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


#: the evaluator of each term kind, called as evaluator(spec, points)
KINDS = {
    "f_nu": eval_f_nu,
    "counterexample": lambda spec, points: spec.weight * eval_counterexample(points),
    "harmonic_probe": _eval_harmonic_probe,
    "constant": lambda spec, points: spec.weight * np.ones(np.asarray(points).shape[:-1]),
    # third coordinate of the rotated frame
    "coordinate": lambda spec, points: spec.weight * (np.asarray(points, dtype=float) @ spec.axis),
}


def eval_spec(spec, points):
    """Evaluate a single term."""
    return KINDS[spec.kind](spec, points)


def spherical_function(specs):
    """Sum of terms as a single callable over arrays of unit vectors."""
    specs = list(specs)
    if not specs:
        raise ValueError("a spherical function needs at least one term")

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


def _number(x, what, term):
    """``x`` as a float; only a JSON number is one, not a string or boolean that ``float`` would read."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"malformed term {term!r}: {what} must be a number, got {x!r}")
    return float(x)


def spec_from_dict(d):
    """The term of a JSON object; ValueError for a non-object, a missing "kind" or a field not made of numbers."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f'a term must be an object with a "kind", got {d!r}')
    nu, a, weight = (_number(d.get(k, v), k, d) for k, v in (("nu", 3), ("a", 0.5), ("weight", 1.0)))
    rotation = np.asarray(d.get("rotation", np.eye(3)), dtype=object)
    rotation = np.array([_number(x, "a rotation entry", d) for x in rotation.ravel()]).reshape(rotation.shape)
    if not nu.is_integer():
        raise ValueError(f"nu must be an integer, got {nu}")
    return TestFunctionSpec(kind=d["kind"], nu=int(nu), a=a, rotation=rotation, weight=weight)

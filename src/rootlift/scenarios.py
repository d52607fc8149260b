"""Builtin scenario definitions and their load-time consistency checks.

The quintic crossing configuration used by the circle scenarios is pinned
down here: five explicit root curves forming one doubly-winding band and
one triply-winding band that touch at exactly one point, where the two
touching curves follow opposite parabolas.  Every constraint the
configuration must satisfy (endpoint matchings, the unique touch, the
local parabola formulas) is verified numerically when a scenario loads.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import funcspec
from .base import BaseSpace, sample_selfmap
from .bundle import MonicPolynomial, poly_from_exprs, poly_from_roots

PI = math.pi


def _f(x: float) -> str:
    return repr(float(x))


def _c(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"({_f(z.real)}{sign}{_f(abs(z.imag))}i)"


# -- the crossing quintic over the circle -----------------------------------------


def quintic_root_texts() -> list[str]:
    """Expression strings for the five root curves.

    Curves 1-2 swap endpoints after a full turn (a doubly-winding band at
    real part 1); curves 3-5 cycle (a triply-winding band around -3).
    Curve 2 equals (theta-pi)^2 and curve 5 equals -(theta-pi)^2 on
    [pi-1, pi+1]; they touch only at theta = pi.
    """
    lam1 = f"1+1i*(theta/{_f(PI)}-1)"
    lam2 = (
        f"piecewise(theta<={_f(PI - 1)},"
        f"1+1i*(1-theta/{_f(PI - 1)}),"
        f"piecewise(theta<={_f(PI + 1)},"
        f"(theta-{_f(PI)})^2,"
        f"1-1i*((theta-{_f(PI + 1)})/{_f(PI - 1)})))"
    )
    lam3 = "-3+exp(1i*(theta/3))"
    lam4 = f"-3+exp(1i*(theta/3+{_f(2 * PI / 3)}))"
    base5 = f"-3+exp(1i*(theta/3+{_f(4 * PI / 3)}))"
    v1 = -3 + cmath.exp(1j * ((PI - 2) / 3 + 4 * PI / 3))
    v2 = -3 + cmath.exp(1j * ((PI + 2) / 3 + 4 * PI / 3))
    blend_l = f"{_c(v1)}+(theta-{_f(PI - 2)})*{_c(-1 - v1)}"
    blend_r = f"(0-1)+(theta-{_f(PI + 1)})*{_c(v2 + 1)}"
    lam5 = (
        f"piecewise(theta<={_f(PI - 2)},{base5},"
        f"piecewise(theta<={_f(PI - 1)},{blend_l},"
        f"piecewise(theta<={_f(PI + 1)},-(theta-{_f(PI)})^2,"
        f"piecewise(theta<={_f(PI + 2)},{blend_r},{base5}))))"
    )
    return [lam1, lam2, lam3, lam4, lam5]


def time_warp_text() -> str:
    """Circle self-map fixing everything outside [pi-1, pi+1] and slowing
    down through pi by a square-root reparametrization."""
    return (
        f"piecewise(theta<={_f(PI - 1)},theta,"
        f"piecewise(theta<={_f(PI)},{_f(PI)}-sqrt({_f(PI)}-theta),"
        f"piecewise(theta<={_f(PI + 1)},{_f(PI)}+sqrt(theta-{_f(PI)}),theta)))"
    )


def half_turn_text() -> str:
    return f"theta+{_f(PI)}"


def crossing_quintic(circle: BaseSpace) -> MonicPolynomial:
    return poly_from_roots(circle, quintic_root_texts())


def half_turn_map(circle: BaseSpace):
    return sample_selfmap(circle, half_turn_text())


def time_warp_map(circle: BaseSpace):
    return sample_selfmap(circle, time_warp_text())


def verify_crossing_configuration(grid: int = 4096) -> list[dict]:
    """Numeric checks of every constraint the configuration must satisfy.

    Raises AssertionError on the first violated constraint; returns the
    list of performed checks otherwise.
    """
    exprs = [funcspec.parse(t) for t in quintic_root_texts()]
    thetas = np.linspace(0.0, 2 * PI, grid)
    points = [2 * PI, 0.0, PI - 0.5, PI + 0.5, PI]
    # row k holds the five curves at points[k]; the grid angles follow
    at = funcspec.eval_points(exprs, {"theta": np.concatenate([points, thetas])},
                              len(points) + grid)
    (end, start, left, right, touch), vals = at[:len(points)], at[len(points):]

    checks = []

    def check(name, ok, detail=""):
        checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            raise AssertionError(f"crossing configuration violates {name}: {detail}")

    matchings = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]
    for i, j in matchings:
        check(f"endpoint curve{i + 1}(2pi)=curve{j + 1}(0)",
              abs(end[i] - start[j]) < 1e-12, f"{end[i]} vs {start[j]}")

    for theta, row in ((PI - 0.5, left), (PI + 0.5, right)):
        check("local parabola curve2", abs(row[1] - (theta - PI) ** 2) < 1e-12)
        check("local parabola curve5", abs(row[4] + (theta - PI) ** 2) < 1e-12)
    check("touch value", abs(touch[1]) < 1e-12 and abs(touch[4]) < 1e-12)

    for i in range(5):
        for j in range(i + 1, 5):
            d = np.abs(vals[:, i] - vals[:, j])
            if (i, j) == (1, 4):
                near = np.abs(thetas - PI) < 0.5
                check("unique touch separation",
                      float(np.min(d[~near])) > 0.05,
                      f"min off-touch gap {float(np.min(d[~near])):.4f}")
            else:
                check(f"curves {i + 1},{j + 1} disjoint", float(np.min(d)) > 0.05,
                      f"min gap {float(np.min(d)):.4f}")
    return checks


# -- the interval double-zero pair --------------------------------------------------


def cubic_contact_text() -> str:
    """(3x-1)(3x-2)^2: simple zero at 1/3, double zero at 2/3."""
    return "(3*x-1)*(3*x-2)^2"


def interval_square_pair(interval: BaseSpace) -> MonicPolynomial:
    """t^2 - r^2 with r the cubic contact function: sheets +-r."""
    return poly_from_exprs(interval, [f"-({cubic_contact_text()})^2", "0"])


def flip_map(interval: BaseSpace):
    return sample_selfmap(interval, "1-x")


# -- builtin scenario configurations -------------------------------------------------


def builtin_scenario(name: str, samples: int | None = None) -> dict:
    if name == "example1":
        n = 2001 if samples is None else samples
        return {
            "name": "example1",
            "seed": 0,
            "base": {"kind": "interval", "samples": n},
            "polynomial": {"coefficients": [f"-({cubic_contact_text()})^2", "0"]},
            "selfmap": {"expr": "1-x"},
            "analyses": ["bundle", "cole", "ah", "cross_checks"],
            "expect": {"cole": "yes", "ah": "yes"},
        }
    if name == "example2":
        n = 2000 if samples is None else samples
        return {
            "name": "example2",
            "seed": 0,
            "base": {"kind": "circle", "samples": n},
            "polynomial": {"roots": quintic_root_texts()},
            "selfmap": {"expr": time_warp_text()},
            "analyses": ["bundle", "strips", "cole", "ah", "cross_checks"],
            "assertions": "crossing_quintic",
            "expect": {"cole": "yes", "ah": "no"},
        }
    if name == "example3":
        n = 2000 if samples is None else samples
        return {
            "name": "example3",
            "seed": 0,
            "base": {"kind": "circle", "samples": n},
            "polynomial": {"roots": quintic_root_texts()},
            "selfmap": {"expr": half_turn_text()},
            "analyses": ["bundle", "strips", "cole"],
            "assertions": "crossing_quintic",
            "expect": {"cole": "no"},
        }
    if name == "torus":
        n = 64 if samples is None else samples
        return {
            "name": "torus",
            "seed": 0,
            "base": {"kind": "torus2", "shape": [n, n]},
            "polynomial": {"coefficients": ["-exp(1i*theta1)", "0"]},
            "selfmap": {"exprs": ["theta2", "theta1"]},
            "analyses": ["cole", "torus_controls"],
            "expect": {"cole": "no"},
        }
    if name == "graphdemo":
        k = 12 if samples is None else samples
        return {
            "name": "graphdemo",
            "seed": 0,
            "base": {"kind": "graph", "vertices": 1,
                     "edges": [[0, 0], [0, 0]], "samples_per_edge": k},
            "analyses": ["closedness"],
            "expect": {"algebraically_closed": "no"},
        }
    raise KeyError(f"unknown builtin scenario {name!r}")


BUILTIN_NAMES = ("example1", "example2", "example3", "torus", "graphdemo")

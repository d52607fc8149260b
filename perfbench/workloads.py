"""The benchmark's workloads: scenario configs, sizes and expected answers.

Every operation is one ``rootlift.cli.run_scenario(config, out_dir)`` call.
The seed changes only properties that cannot change a verdict: the order
of the operations and, where the workload builds its own polynomials,
root-curve centres and phases.  Expected answers follow from how each
input is built (the reasoning is given next to each builder), never from a
program run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PI = math.pi


@dataclass
class Op:
    """One scenario run and the answers its construction implies."""

    label: str
    config: dict
    base_samples: int
    # dotted path into verdict.json "analyses" -> expected value
    expect: dict = field(default_factory=dict)
    svg: bool = False


def _num(x: float) -> str:
    return repr(round(float(x), 6))


def _complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"({_num(z.real)}{sign}{_num(abs(z.imag))}i)"


# -- scenario-ladder ------------------------------------------------------------
#
# The builtins are the paper's examples; their answers are the paper's:
#   example1  interval, double-zero pair, flip map      cole yes, ah yes
#   example2  circle, crossing quintic, sqrt time warp  cole yes, ah no
#   example3  circle, crossing quintic, half turn       cole no
#   torus     torus, swap map (identity control yes)    cole no
#   graphdemo figure-eight graph                        not algebraically closed
# The crossing quintic has one doubly and one triply winding strip, and both
# self-maps are homotopic to the identity, so both strip lists are [2, 3].

LADDER = [
    ("example1", None, False), ("example2", None, True), ("example3", None, False),
    ("torus", None, False), ("graphdemo", None, False),
    ("example1", 8001, False), ("example2", 8000, False), ("example3", 8000, False),
    ("graphdemo", 96, False),
]


def _builtin_expect(name: str) -> dict:
    if name == "example1":
        return {"cole.answer": "yes", "ah.answer": "yes"}
    if name == "example2":
        return {"cole.answer": "yes", "ah.answer": "no",
                "strips.p": [2, 3], "strips.pT": [2, 3]}
    if name == "example3":
        return {"cole.answer": "no", "strips.p": [2, 3], "strips.pT": [2, 3]}
    if name == "torus":
        return {"cole.answer": "no", "torus_controls.identity_cole.answer": "yes"}
    return {"closedness.algebraically_closed_verdict": False}


def _builtin_samples(config: dict) -> int:
    base = config["base"]
    if base["kind"] == "torus2":
        return base["shape"][0] * base["shape"][1]
    if base["kind"] == "graph":
        return base["vertices"] + len(base["edges"]) * (base["samples_per_edge"] - 1)
    return base["samples"]


def scenario_ladder(rng, scenarios) -> list[Op]:
    ops = []
    for name, n, svg in LADDER:
        config = scenarios.builtin_scenario(name, n)
        label = name if n is None else f"{name}@{n}"
        ops.append(Op(label, config, _builtin_samples(config),
                      _builtin_expect(name), svg))
    return ops


# -- torus-grid -----------------------------------------------------------------
#
# t^2 - exp(i(theta1 + phase)) with the coordinate swap: around the second
# generator the source monodromy is trivial and the target's is the
# transposition of the two sheets, so a lift's basepoint map would have to
# take values the transposition fixes, and it fixes none: cole no.  The
# identity control always lifts: yes.  The phase moves nothing.

TORUS_SIDES = (64, 128, 256)


def torus_grid(rng, scenarios) -> list[Op]:
    ops = []
    for n in TORUS_SIDES:
        config = scenarios.builtin_scenario("torus", n)
        phase = float(rng.uniform(0.0, 2.0 * PI))
        config["polynomial"] = {
            "coefficients": [f"-exp(1i*(theta1+{_num(phase)}))", "0"]}
        ops.append(Op(f"torus@{n}", config, n * n, _builtin_expect("torus")))
    return ops


# -- degree-sweep ---------------------------------------------------------------
#
# cycle d:   (t - c)^d - exp(i(theta + phase)) over 1000 samples with the half
#            turn.  Roots c + exp(i(theta + phase + 2 pi k)/d) form one d-cycle
#            on both sides; an equivariant map of two d-cycles is fixed by the
#            image of one slot, so there are exactly d lifts.  Each lift is
#            lambda -> c + w (lambda - c) with constant w, a polynomial of
#            degree 1 in the root: cole yes, ah yes.
# trivial d: d unit circles c_k + exp(i(theta + phase_k)), centres 3 apart
#            on the real axis, over 64 samples with the half turn.  Both
#            monodromies are trivial, so every basepoint map lifts: d^d
#            lifts.  The first lift sends every sheet to one target sheet,
#            a function constant in the root: cole yes, ah yes.

CYCLE_DEGREES = range(2, 10)
CYCLE_SAMPLES = 1000
TRIVIAL_DEGREES = range(2, 8)
TRIVIAL_SAMPLES = 64


def _half_turn() -> str:
    return f"theta+{_num(PI)}"


def _circle_config(name, samples, polynomial) -> dict:
    return {
        "name": name,
        "seed": 0,
        "base": {"kind": "circle", "samples": samples},
        "polynomial": polynomial,
        "selfmap": {"expr": _half_turn()},
        "analyses": ["cole", "ah"],
        "expect": {"cole": "yes", "ah": "yes"},
    }


def _cycle_coefficients(d: int, c: complex, phase: float) -> list[str]:
    """Lower coefficients of (t - c)^d - exp(i(theta + phase))."""
    coeffs = [_complex(math.comb(d, k) * (-c) ** (d - k)) for k in range(d)]
    coeffs[0] = f"{coeffs[0]}-exp(1i*(theta+{_num(phase)}))"
    return coeffs


def degree_sweep(rng, scenarios) -> list[Op]:
    ops = []
    for d in CYCLE_DEGREES:
        c = complex(*rng.uniform(-0.3, 0.3, size=2))
        phase = float(rng.uniform(0.0, 2.0 * PI))
        config = _circle_config(f"cycle{d}", CYCLE_SAMPLES,
                                {"coefficients": _cycle_coefficients(d, c, phase)})
        ops.append(Op(f"cycle{d}", config, CYCLE_SAMPLES,
                      {"cole.answer": "yes", "cole.solution_count": d,
                       "ah.answer": "yes"}))
    for d in TRIVIAL_DEGREES:
        roots = []
        for k in range(d):
            centre = complex(3.0 * k + rng.uniform(-0.25, 0.25),
                             rng.uniform(-0.25, 0.25))
            phase = float(rng.uniform(0.0, 2.0 * PI))
            roots.append(f"{_complex(centre)}+exp(1i*(theta+{_num(phase)}))")
        config = _circle_config(f"trivial{d}", TRIVIAL_SAMPLES, {"roots": roots})
        ops.append(Op(f"trivial{d}", config, TRIVIAL_SAMPLES,
                      {"cole.answer": "yes", "cole.solution_count": d ** d,
                       "ah.answer": "yes"}))
    return ops


WORKLOADS = {
    "scenario-ladder": scenario_ladder,
    "torus-grid": torus_grid,
    "degree-sweep": degree_sweep,
}


def lookup(doc: dict, dotted: str):
    """Value at a dotted path of verdict.json's "analyses" block."""
    node = doc["analyses"]
    for key in dotted.split("."):
        node = node[key]
    return node


def check_verdict(op: Op, code: int, doc: dict) -> list[str]:
    """Mismatches between a finished run and its construction; empty if none."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if doc["analyses"].get("resolution") != op.base_samples:
        problems.append(f"resolution {doc['analyses'].get('resolution')} "
                        f"!= {op.base_samples}")
    for path, want in op.expect.items():
        try:
            got = lookup(doc, path)
        except (KeyError, TypeError):
            problems.append(f"{path} missing")
            continue
        if path.startswith("strips."):
            got = sorted(got)
        if got != want:
            problems.append(f"{path} = {got!r}, expected {want!r}")
    return problems

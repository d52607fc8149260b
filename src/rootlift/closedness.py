"""Root existence, circle detection, and algebraic-closedness reports.

A continuous root of a polynomial is exactly a continuous section of its
root surface, so root existence reduces to the lift problem with a
one-sheet source bundle.  At graph scale, the algebra of continuous
functions is algebraically closed precisely when the graph contains no
cycle; the failing direction is certified by a winding quadratic with no
root, plus a transplanted rotation endomorphism on the cycle that fails
the full-surface extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .base import BaseSpace, make_circle
from .bundle import (DEFAULT_TOL, MonicPolynomial, RootBundle, Tolerances,
                     build_bundle, is_admissible, poly_from_values)
from .extend import (ExtendError, InadmissibleError, LiftProblem, Verdict,
                     decide_lift)


def trivial_bundle(base: BaseSpace, tol: Tolerances = DEFAULT_TOL) -> RootBundle:
    """The one-sheet bundle whose sections are just the base itself."""
    S, E = base.n_samples, base.n_edges
    return RootBundle(base, 1, np.zeros((S, 1), dtype=complex),
                      np.zeros((E, 1), dtype=np.intp),
                      np.zeros(S, dtype=bool), poly=None, tol=tol)


def has_root(p: MonicPolynomial, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    """Does ``p`` have a continuous root function on its base?

    Decided as a section search: a lift from the one-sheet bundle into the
    root surface.  A yes-verdict carries the sampled root function and its
    worst residual.
    """
    report = is_admissible(p, tol=tol)
    if not report.admissible:
        raise InadmissibleError("polynomial is not admissible")
    return _section_verdict(build_bundle(p, tol))


def _section_verdict(bundle: RootBundle) -> Verdict:
    """:func:`has_root` on the already built root bundle of the polynomial,
    under the bundle's tolerances."""
    problem = LiftProblem(trivial_bundle(bundle.base, bundle.tol), bundle)
    verdict = decide_lift(problem)
    if verdict.answer == "yes":
        root = verdict.witness.values[:, 0]
        res = _kernels.residuals(bundle.poly.coeff_values, root[:, None])
        verdict.diagnostics["root_residual_max"] = float(np.max(res))
    return verdict


@dataclass
class GraphReport:
    has_cycle: bool
    witness_cycle: list | None
    algebraically_closed_verdict: bool
    witness_polynomial: dict | None = None
    cycle_witnesses: list = field(default_factory=list)
    trials: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "has_cycle": self.has_cycle,
            "witness_cycle": self.witness_cycle,
            "algebraically_closed_verdict": self.algebraically_closed_verdict,
            "witness_polynomial": self.witness_polynomial,
            "cycle_witnesses": self.cycle_witnesses,
            "trials": self.trials,
        }


def contains_circle(base: BaseSpace) -> GraphReport:
    """Cycle detection at graph scale (spanning-tree co-tree edges)."""
    if base.kind != "graph":
        raise ExtendError("circle detection is defined for graph bases")
    has_cycle = len(base.loop_basis) > 0
    witness = base.loop_basis[0].tolist() if has_cycle else None
    return GraphReport(has_cycle, witness, not has_cycle)


def winding_function(base: BaseSpace, loop) -> np.ndarray:
    """Unit-modulus values winding once around ``loop``, constant elsewhere.

    Off-cycle samples copy the value at their closest attachment point on
    the cycle, so the function is continuous and never vanishes.
    """
    samples = base.walk_samples(loop)[:-1]
    values = np.zeros(base.n_samples, dtype=complex)
    values[samples] = np.exp(1j * (2 * math.pi * np.arange(len(samples)) / len(samples)))
    order, pred = base.bfs(samples)
    if len(order) != base.n_samples:
        raise ExtendError("graph base is not connected")
    for s in order[pred[order] >= 0].tolist():    # a claimer precedes what it claims
        values[s] = values[pred[s]]
    return values


def cycle_witness_quadratic(base: BaseSpace, loop,
                            tol: Tolerances = DEFAULT_TOL) -> dict:
    """A certified no-root quadratic built from a winding-1 function."""
    g = winding_function(base, loop)
    p = poly_from_values(base, [-g, np.zeros_like(g)])    # t^2 - g
    verdict = has_root(p, tol)
    return {
        "loop_length": len(loop),
        "admissible": True,             # has_root raises on an inadmissible polynomial
        "has_root": verdict.answer,
        "certificate": verdict.certificate,
    }


def transplanted_rotation_failure(cycle_length: int,
                                  tol: Tolerances = DEFAULT_TOL) -> dict:
    """Failure of the full-surface extension on a circle carried by a cycle.

    Re-parametrizes the cycle as a circle, installs the quintic crossing
    configuration together with the half-turn rotation, and reports the
    resulting negative verdict.
    """
    from . import scenarios
    from .extend import cole_extendable

    n = max(2 * cycle_length, 64)
    if n % 2:
        n += 1
    circle = make_circle(n)
    p = scenarios.crossing_quintic(circle)
    smap = scenarios.half_turn_map(circle)
    verdict = cole_extendable(p, smap, tol)
    return {
        "circle_samples": n,
        "cole": verdict.answer,
        "certificate": verdict.certificate,
    }


def closedness_report(base: BaseSpace, trials: int = 20, seed: int = 0,
                      tol: Tolerances = DEFAULT_TOL) -> GraphReport:
    """Algebraic-closedness verdict for a graph base.

    Cyclic graphs are certified not closed: every basis loop yields a
    winding quadratic with no root, and the first loop additionally
    carries a transplanted rotation endomorphism whose full-surface
    extension fails.  Acyclic graphs are probed with seeded random
    admissible quadratics, each of which must have a root.
    """
    report = contains_circle(base)
    if report.has_cycle:
        for k, loop in enumerate(base.loop_basis):
            witness = cycle_witness_quadratic(base, loop, tol)
            report.cycle_witnesses.append(witness)
            if k == 0:
                report.witness_polynomial = dict(witness)
                report.witness_polynomial["transplanted_rotation"] = (
                    transplanted_rotation_failure(len(loop), tol))
        report.algebraically_closed_verdict = False
        return report
    rng = np.random.default_rng(seed)
    for k in range(trials):
        # drawn admissible at tol, so has_root's own check is not repeated
        p = random_tree_quadratic(base, rng, tol)
        verdict = _section_verdict(build_bundle(p, tol))
        report.trials.append({
            "trial": k,
            "has_root": verdict.answer,
            "residual": verdict.diagnostics.get("root_residual_max"),
        })
    report.algebraically_closed_verdict = all(
        t["has_root"] == "yes" for t in report.trials)
    return report


# -- random instances ------------------------------------------------------------


def _smooth_graph_values(base: BaseSpace, rng, scale: float = 1.0) -> np.ndarray:
    """Random complex values, linear along subdivided edges: continuous."""
    ceid, t = base.coords.T
    vertex = ceid < 0
    n_vertices = int(np.count_nonzero(vertex))
    vert_vals = scale * (rng.standard_normal(n_vertices)
                         + 1j * rng.standard_normal(n_vertices))
    cedges = np.asarray(base.meta["cedges"], dtype=np.intp).reshape(-1, 2)
    u, v = cedges[ceid[~vertex].astype(np.intp)].T
    s = t[~vertex]
    values = np.empty(base.n_samples, dtype=complex)
    values[vertex] = vert_vals[t[vertex].astype(np.intp)]
    values[~vertex] = (1 - s) * vert_vals[u] + s * vert_vals[v]
    return values


def random_tree_quadratic(base: BaseSpace, rng, tol: Tolerances = DEFAULT_TOL,
                          max_tries: int = 50) -> MonicPolynomial:
    """A random quadratic admissible at ``tol``, with continuous sampled coefficients."""
    for _ in range(max_tries):
        c0 = _smooth_graph_values(base, rng)
        c1 = _smooth_graph_values(base, rng)
        p = poly_from_values(base, [c0, c1])
        if is_admissible(p, tol=tol).admissible:
            return p
    raise ExtendError("could not draw an admissible quadratic")

"""Deciding the two extension problems on discretized root surfaces.

A lift is a fiber-preserving assignment g that sends sheets of a source
bundle A to sheets of a target bundle B over the same base, consistently
with edge continuations and single-valued where source sheets merge.
Existence of such a lift decides extension to the full function algebra
of the root surface; membership of a lift in the polynomial subalgebra
(coefficient fitting plus a divided-quotient finiteness probe at branch
points) decides extension to the Arens-Hoffman extension.

The search enumerates sheet assignments at one basepoint and transports
them along a spanning tree; co-tree edges become permutation-equivariance
constraints and branch merges become value-agreement constraints, so the
combinatorial search is exact at the sampling resolution.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _reduce_slots
from .bundle import (DEFAULT_TOL, MonicPolynomial, RootBundle, Tolerances,
                     _inverse_rows, _match_edges, _reindexed, build_bundle,
                     is_admissible, pullback_polynomial, solve_fiber)

MAX_LIFTS = 4096         # lifts decide_subalgebra probes before it answers "inconclusive"


class ExtendError(RuntimeError):
    pass


class InadmissibleError(ExtendError):
    pass


# -- the lift constraint problem --------------------------------------------------


def _tree_transports(bundles, nodes, tree_edges, dirs, pred, moving):
    """Each sample's row ``owner``, and per bundle given (only the source when
    it is the target) its owner table F, one row per owner, with F's inverse
    rows: T = F[owner] has T[root] = id and T[x] = step(x) . T[pred[x]].

    ``step(x)``, the sheet permutation along x's tree edge, is the identity
    unless ``moving`` marks that edge, so T is constant between the steps that
    move a sheet.  A sample's owner is its nearest ancestor-or-self whose step
    moves a sheet, or the root (row 0, the one sample that is its own
    ``pred``), found by pointer jumping.  The owners' transports are composed
    together, as one block-diagonal permutation per owner, by pointer
    doubling: while ``F[x] = P[x] . F[anc[x]]`` for a partial product P, each
    round sets ``P[x] <- P[x] . P[anc[x]]`` and ``anc[x] <- anc[anc[x]]`` for
    every x whose ``anc`` is not yet the root, so owners at most d moves deep
    take about log2(d) rounds.
    """
    moves = moving[tree_edges]
    movers = nodes[moves]
    owner = pred.copy()
    owner[movers] = movers
    while not np.array_equal(jumped := owner[owner], owner):
        owner = jumped
    row = np.zeros(len(pred), dtype=np.intp)
    row[movers] = np.arange(1, len(movers) + 1)
    steps, offsets = [], [0]
    for bundle in bundles:
        steps.append(offsets[-1] + bundle.directed_perms(tree_edges[moves], dirs[moves]))
        offsets.append(offsets[-1] + bundle.degree)
    F = np.empty((len(movers) + 1, offsets[-1]), dtype=np.intp)
    F[0] = np.arange(offsets[-1])
    F[1:] = np.concatenate(steps, axis=1)
    anc = np.zeros(len(F), dtype=np.intp)
    anc[1:] = row[owner[pred[movers]]]
    todo = np.flatnonzero(anc)
    while todo.size:
        up = anc[todo]
        F[todo] = np.take_along_axis(F[todo], F[up], axis=1)
        anc[todo] = anc[up]
        todo = todo[anc[todo] != 0]
    both = np.stack([F, _inverse_rows(F)])      # each block-diagonal, a block per bundle
    return row[owner], [tuple(both[..., lo:hi] - lo) for lo, hi in zip(offsets, offsets[1:])]


class LiftProblem:
    """Fiber-assignment constraints between two bundles over one base, and
    the tolerances both were built with.  Sheet transports are kept one row
    per owner, one table when the target is the source (:meth:`_build_transports`)."""

    def __init__(self, source: RootBundle, target: RootBundle):
        if source.base is not target.base:
            raise ExtendError("source and target bundles live on different bases")
        if source.tol != target.tol:
            raise ExtendError("source and target bundles were built with different tolerances")
        self.source = source
        self.target = target
        self.tol = source.tol
        self.base = source.base
        self.basepoint = self._pick_basepoint()
        self._build_loop_constraints(self._build_transports())
        self._build_orbits()
        self._build_merge_constraints()
        self._probes: dict[int, _QuotientProbe] = {}     # filled by divided_quotient_test

    # most-merged sample first: it carries the strongest unary pruning
    def _pick_basepoint(self) -> int:
        table = self.source.merge_clusters
        return max(table, key=lambda s: sum(len(c) * (len(c) - 1) // 2 for c in table[s]),
                   default=0)

    def _build_transports(self):
        """Sheet transports from the basepoint along the BFS spanning tree.

        ``FA[owner[x]]`` (``FB[owner[x]]``) sends a basepoint slot of the
        source (target) to its slot at sample x, ``invFA`` (``invFB``) back,
        one row per owner (see ``_tree_transports``); when the target is the
        source they are found once, and ``FB is FA``.  ``cotree`` lists the
        edges off the tree.  Returns the (E,) mask of the moving edges."""
        base = self.base
        tree, _ = base.spanning_tree(self.basepoint)
        nodes, tree_edges, dirs = tree.T
        ends = np.take(base.edges, tree_edges, axis=0)
        pred = np.arange(base.n_samples)
        pred[nodes] = np.where(dirs > 0, ends[:, 0], ends[:, 1])
        # a permutation is the identity exactly when its inverse is, so the
        # test needs no direction, and when it fixes every slot but the last
        bundles = (self.source,) if self.target is self.source else (self.source, self.target)
        moving = np.zeros(base.n_edges, dtype=bool)
        for bundle in bundles:
            for j in range(bundle.degree - 1):
                moving |= bundle.edge_perms[:, j] != j
        self.owner, tables = _tree_transports(bundles, nodes, tree_edges, dirs, pred, moving)
        (self.FA, self.invFA), (self.FB, self.invFB) = tables[0], tables[-1]
        in_tree = np.zeros(base.n_edges, dtype=bool)
        in_tree[tree_edges] = True
        self.cotree = np.flatnonzero(~in_tree)
        return moving

    def _build_loop_constraints(self, moving):
        """Each co-tree edge x->y yields g0 . rhoA = rhoB . g0 at the basepoint.

        ``loop_pairs`` keeps each distinct (rhoA, rhoB) once, in order of
        first occurrence over the co-tree edges.  An edge that moves no
        sheet gives a pair fixed by the owners of its ends, so only the
        first edge of each owner pair is solved, with every moving edge.
        """
        a, b = np.take(self.owner, np.take(self.base.edges, self.cotree, axis=0)).T
        # one key per owner pair, and a negative one of its own per moving edge
        groups = np.where(moving[self.cotree], -1 - np.arange(len(self.cotree)),
                          a * len(self.FA) + b)
        first = np.sort(np.unique(groups, return_index=True)[1])
        a, b, edges = a[first], b[first], self.cotree[first]
        rhoA, rhoB = (np.take_along_axis(np.take(inv, b, axis=0), np.take_along_axis(
            bundle.edge_perms[edges], np.take(F, a, axis=0), axis=1), axis=1)
            for bundle, F, inv in ((self.source, self.FA, self.invFA),
                                   (self.target, self.FB, self.invFB)))
        keep = []
        if len(edges):
            # one opaque key per (rhoA, rhoB) row; unique's stable sort
            # returns each key's first occurrence
            small = np.min_scalar_type(max(self.source.degree, self.target.degree))
            rows = np.ascontiguousarray(np.concatenate([rhoA, rhoB], axis=1), dtype=small)
            keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
            keep = np.sort(np.unique(keys, return_index=True)[1])
        self.loop_pairs: list[tuple[np.ndarray, np.ndarray]] = [
            (rhoA[k], rhoB[k]) for k in keep]

    def _build_orbits(self):
        """The loop constraints propagated once: one entry per orbit of
        source slots under the rhoA, in order of smallest slot.

        ``orbits[k]`` is (slots, choices): the orbit's slots in walk order,
        and one row per target slot y, ascending, that g0 can send the first
        slot to such that g0[rhoA[s]] = rhoB[g0[s]] propagates consistently
        through the orbit, holding g0 of every slot.  A loop constraint ties
        a slot only to the slots of its orbit, so g0 satisfies every one of
        them exactly when it takes one choice per orbit.  The table is
        derived from ``loop_pairs`` when the problem is built: a later
        change to ``loop_pairs`` has no effect until this runs again.
        """
        nA, nB = self.source.degree, self.target.degree
        images = np.full((nA, nB), -1, dtype=np.intp)   # g0 of a slot, per choice of y
        self.orbits: list[tuple[np.ndarray, np.ndarray]] = []
        for x in range(nA):
            if images[x, 0] >= 0:
                continue
            images[x] = np.arange(nB)
            consistent = np.ones(nB, dtype=bool)
            orbit = [x]
            for s in orbit:                              # grows while it is walked
                for rhoA, rhoB in self.loop_pairs:
                    t, image = int(rhoA[s]), rhoB[images[s]]
                    if images[t, 0] >= 0:
                        consistent &= images[t] == image
                    else:
                        images[t] = image
                        orbit.append(t)
            self.orbits.append((np.array(orbit), images[orbit][:, consistent].T))

    def values_agree(self, sample: int, values: np.ndarray) -> np.ndarray:
        """Which pairs of target values at ``sample`` merged source sheets may
        take: those within ``branch_tol`` plus ``merge_scale`` local target
        sheet movements.  Every merge check applies this one rule."""
        tol = self.tol.branch_tol + self.tol.merge_scale * self.target.local_motion[sample]
        return np.abs(values[:, None] - values[None, :]) <= tol

    def _build_merge_constraints(self):
        """Branch merges, pulled back to basepoint slots as allowed-value matrices."""
        combined: dict[tuple[int, int], np.ndarray] = {}
        table = self.source.merge_clusters
        self.merge_samples = [s for s, clusters in table.items() if clusters]
        for s in self.merge_samples:
            # values of the basepoint slots at s
            allowed = self.values_agree(s, self.target.fibers[s][self.FB[self.owner[s]]])
            for cluster in table[s]:
                slots = self.invFA[self.owner[s]][cluster].tolist()
                for x, y in itertools.combinations(slots, 2):
                    key = (min(x, y), max(x, y))
                    mat = allowed if x < y else allowed.T
                    combined[key] = combined[key] & mat if key in combined else mat.copy()
        self.merge_pairs = [(a, b, m) for (a, b), m in sorted(combined.items())]

    # -- enumeration ------------------------------------------------------------

    def _solutions(self):
        """Basepoint maps g0 of all lifts, lazily, in lexicographic order.

        A depth-first product over the orbits' choices; each merge pair is
        checked at the orbit that sets the later of its two slots.  Each
        orbit's first slot is the smallest not set before it, so ordering
        by the choices is ordering by g0.  An orbit without a choice leaves
        no lift, so then nothing is searched.  ``orbits`` is fixed when the
        problem is built, while ``merge_pairs`` is read on every call.
        """
        if not all(len(choices) for _, choices in self.orbits):
            return iter(())
        g0 = np.zeros(self.source.degree, dtype=np.intp)
        depth = np.empty_like(g0)                        # the orbit of each slot
        for k, (slots, _) in enumerate(self.orbits):
            depth[slots] = k
        checks = [[] for _ in self.orbits]
        for a, b, mat in self.merge_pairs:
            checks[max(depth[a], depth[b])].append((a, b, mat))

        def search(k):
            if k == len(self.orbits):
                yield tuple(g0.tolist())
                return
            slots, choices = self.orbits[k]
            for choice in choices:
                g0[slots] = choice
                if all(mat[g0[a], g0[b]] for a, b, mat in checks[k]):
                    yield from search(k + 1)

        return search(0)

    def enumerate(self, max_count: int | None = None) -> list["LiftWitness"]:
        """All lifts (at most ``max_count``) in lexicographic basepoint-map order."""
        return [LiftWitness(self, g0)
                for g0 in itertools.islice(self._solutions(), max_count)]

    def solution_count(self, cap: int | None = None) -> int:
        """The number of lifts (``cap`` when there are more), counted
        without building them: without merge constraints the product of the
        orbits' choice counts, with them by search, up to ``cap``."""
        if self.merge_pairs:
            return sum(1 for _ in itertools.islice(self._solutions(), cap))
        count = math.prod(len(choices) for _, choices in self.orbits)
        return count if cap is None else min(count, cap)

    def assignments_for(self, g0) -> np.ndarray:
        """Per-sample sheet maps G with G[x, i] the target slot of source slot i."""
        g0 = np.asarray(g0, dtype=np.intp)
        return np.take(np.take_along_axis(self.FB, g0[self.invFA], axis=1), self.owner, axis=0)


@dataclass
class LiftWitness:
    """One lift: the basepoint assignment plus lazily materialized values.
    Witnesses compare by problem and basepoint map."""

    problem: LiftProblem
    g0: tuple[int, ...]

    @functools.cached_property
    def assignments(self) -> np.ndarray:
        return self.problem.assignments_for(self.g0)

    @functools.cached_property
    def values(self) -> np.ndarray:
        """f on the source bundle: value of the assigned target sheet."""
        return _row_take(self.problem.target.fibers, self.assignments)


def _row_take(table: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``table[x, cols[x, i]]`` for each row x of ``cols``, taken flat."""
    return np.take(table, np.arange(len(cols))[:, None] * table.shape[1] + cols)


def validate_witness(problem: LiftProblem, witness: LiftWitness) -> dict:
    """Re-check every lift constraint directly against the raw bundles."""
    A, B = problem.source, problem.target
    G = witness.assignments
    tails, heads = problem.base.edges.T
    # G[head][permsA] against permsB[G[tail]], edge by edge
    lhs = np.take(G, heads[:, None] * G.shape[1] + A.edge_perms)
    rhs = _row_take(B.edge_perms, np.take(G, tails, axis=0))
    edge_ok = bool(np.array_equal(lhs, rhs))
    merge_ok = True
    worst_spread = 0.0
    for s, clusters in A.merge_clusters.items():
        for cluster in clusters:
            vals = B.fibers[s][G[s][cluster]]
            spread = float(np.max(np.abs(vals[:, None] - vals[None, :])))
            worst_spread = max(worst_spread, spread)
            merge_ok &= bool(problem.values_agree(s, vals).all())
    fiber_ok = bool(np.array_equal(witness.values, _row_take(B.fibers, G)))
    return {
        "edge_constraints": edge_ok,
        "merge_constraints": merge_ok,
        "worst_merge_spread": worst_spread,
        "fiber_membership": fiber_ok,
        "valid": edge_ok and merge_ok and fiber_ok,
    }


# -- verdicts ---------------------------------------------------------------------


@dataclass
class Verdict:
    answer: str                       # yes | no | inconclusive
    witness: LiftWitness | None = None
    certificate: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    fit: object = None                # FitResult of the accepted lift, when relevant

    def to_json(self, witness_ref=None) -> dict:
        """The verdict's block in ``verdict.json``."""
        return {
            "answer": self.answer,
            "certificate_kind": None if self.certificate is None
            else self.certificate.get("kind"),
            "certificate_data": _trim_certificate(self.certificate),
            "witness_ref": witness_ref,
            "tolerances": self.diagnostics.get("tolerances"),
            "resolution": self.diagnostics.get("resolution"),
            "solution_count": self.diagnostics.get("solution_count"),
        }


def _jsonable(obj):
    """``obj`` with numpy values (and complex numbers, as [re, im]) made JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _trim_certificate(cert):
    if cert is None:
        return None
    cert = dict(cert)
    if cert.get("kind") == "all_lifts_refused":
        refusals = cert.get("refusals", [])
        cert["refusal_count"] = len(refusals)
        cert["refusals"] = refusals[:12]
    return _jsonable(cert)


def recheck_certificate(problem: LiftProblem, certificate: dict) -> bool:
    """Re-derive a negative certificate from the problem: True when it holds."""
    if certificate["kind"] == "csp_exhaustion":
        return not problem.enumerate(max_count=1)
    return False


def _base_diagnostics(problem: LiftProblem) -> dict:
    return {
        "resolution": problem.base.n_samples,
        "tolerances": problem.tol.as_dict(),
        "basepoint": problem.basepoint,
    }


def decide_lift(problem: LiftProblem) -> Verdict:
    """Existence decision: the first lift as witness and the exact lift
    count, or a ``csp_exhaustion`` certificate.  Its ``orbit_choices``
    holds each orbit's number of choices: a 0 means the loops alone leave
    no basepoint map, as on a circle a source winding that no target
    winding divides does; otherwise the merges at ``merge_samples`` refute
    every map the loops allow."""
    lifts = problem.enumerate(max_count=1)
    if lifts:
        witness = lifts[0]
        report = validate_witness(problem, witness)
        if not report["valid"]:
            raise ExtendError(f"witness failed independent validation: {report}")
        diag = _base_diagnostics(problem)
        diag["solution_count"] = problem.solution_count()
        diag["validator"] = report
        return Verdict("yes", witness=witness, diagnostics=diag)
    cert = {
        "kind": "csp_exhaustion",
        "basepoint": problem.basepoint,
        "source_degree": problem.source.degree,
        "target_degree": problem.target.degree,
        "loop_constraints": len(problem.cotree),
        "orbit_choices": [len(choices) for _, choices in problem.orbits],
        "merge_samples": [int(s) for s in problem.merge_samples],
    }
    return Verdict("no", certificate=cert, diagnostics=_base_diagnostics(problem))


def lift_problem(p: MonicPolynomial, smap, tol: Tolerances = DEFAULT_TOL) -> LiftProblem:
    """The lift problem between the root bundles of ``p`` and of its
    pullback by ``smap``; raises :class:`InadmissibleError` first when
    ``p`` is not admissible.  Where ``smap`` sends samples to samples up to
    rounding and edges onto edges, in either direction, the pullback's
    bundle is the source's re-indexed (:func:`bundle._reindexed`)."""
    report = is_admissible(p, tol=tol)
    if not report.admissible:
        raise InadmissibleError(
            f"polynomial is not admissible: {len(report.runs)} run(s) of merged sheets")
    A = build_bundle(p, tol)
    q = pullback_polynomial(p, smap)
    B = _reindexed(A, q, smap)
    return LiftProblem(A, build_bundle(q, tol) if B is None else B)


def cole_extendable(p: MonicPolynomial, smap, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    """Does the induced endomorphism extend to all continuous functions on
    the root surface?  Decided by lift existence."""
    problem = lift_problem(p, smap, tol)
    return decide_lift(problem)


# -- polynomial-subalgebra membership ----------------------------------------------


@dataclass
class FitResult:
    accepted: bool
    coeffs: np.ndarray | None          # (S, n), NaN rows at skipped samples
    fitted_mask: np.ndarray | None
    refusal: dict | None = None


def ah_fit(bundle: RootBundle, values: np.ndarray) -> FitResult:
    """Fit f as a degree < n polynomial in the root coordinate.

    Solves the per-sample Vandermonde system at samples with pairwise
    distinct fibers, then accepts iff the recovered coefficient functions
    are discretely continuous (resolution-scaled jump bound) including
    across skipped branch runs.
    """
    base = bundle.base
    n = bundle.degree
    S = base.n_samples
    tol = bundle.tol
    fit_mask = ~bundle.branch_flags
    fibers = bundle.fibers[fit_mask]
    V = fibers[:, :, None] ** np.arange(n)[None, None, :]
    try:
        qs = np.linalg.solve(V, values[fit_mask][:, :, None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ExtendError(
            "singular Vandermonde away from branch flags; bundle is corrupt"
        ) from exc
    coeffs = np.full((S, n), np.nan, dtype=complex)
    coeffs[fit_mask] = qs

    edges = base.edges
    if bundle.poly is not None:
        pv = bundle.poly.coeff_values
        osc = float(np.max(np.abs(pv[edges[:, 1]] - pv[edges[:, 0]]))) if len(edges) else 0.0
    else:
        osc = float(np.max(np.abs(values))) * 1e-3
    bound = tol.fit_jump_factor * osc * n + 1e-8 * (1.0 + float(np.max(np.abs(values))))

    fitted = np.flatnonzero(fit_mask[edges[:, 0]] & fit_mask[edges[:, 1]])
    jumps = _reduce_slots(np.maximum, np.abs(coeffs[edges[fitted, 1]] - coeffs[edges[fitted, 0]]))
    over = np.flatnonzero(jumps > bound)
    if over.size:
        eid = int(fitted[over[0]])
        a, b = edges[eid].tolist()
        return FitResult(False, coeffs, fit_mask, refusal={
            "kind": "coefficient_jump",
            "edge": eid,
            "samples": [a, b],
            "jump": float(jumps[over[0]]),
            "bound": bound,
        })

    # continuity across skipped branch runs: flank-to-flank jumps
    for run in base.components(~fit_mask):
        inside = np.zeros(S, dtype=bool)
        inside[run] = True
        leaving = edges[inside[edges[:, 0]] != inside[edges[:, 1]]]   # edges out of the run
        flanks = np.unique(leaving[~inside[leaving]]).tolist()        # their fitted ends
        for i in range(len(flanks)):
            for j in range(i + 1, len(flanks)):
                jump = float(np.max(np.abs(coeffs[flanks[j]] - coeffs[flanks[i]])))
                if jump > bound * (len(run) + 1):
                    return FitResult(False, coeffs, fit_mask, refusal={
                        "kind": "branch_flank_jump",
                        "run_samples": run.tolist(),
                        "flanks": [flanks[i], flanks[j]],
                        "jump": jump,
                        "bound": bound * (len(run) + 1),
                    })
    return FitResult(True, coeffs, fit_mask)


@dataclass
class QuotientReport:
    verdict: str                       # finite | divergent | inconclusive
    sample: int
    branch_coordinate: float | None
    quotients: list[float]
    detail: str = ""


def divided_quotient_test(problem: LiftProblem, witness: LiftWitness,
                          sample: int) -> QuotientReport:
    """Finiteness probe for the two-sheet divided quotient at a branch.

    Follows the coalescing sheet pair (and its image pair) on a dyadic
    sequence of points converging to the branch coordinate located in
    :attr:`RootBundle.branch_coordinates`, from both sides; divergent when
    the quotient magnitude grows monotonically past the divergence bound,
    finite when the tail is Cauchy.  The rest is the problem's
    :class:`_QuotientProbe` at ``sample``: a lift only picks the image pair.
    """
    if problem.base.kind not in ("interval", "circle"):
        return QuotientReport("inconclusive", sample, None, [],
                              "quotient probing needs an interval or circle base")
    if problem.source.poly is None or problem.target.poly is None:
        return QuotientReport("inconclusive", sample, None, [],
                              "no exact coefficient source available")
    clusters = problem.source.merge_clusters.get(sample, [])
    if len(clusters) != 1 or len(clusters[0]) != 2:
        raise ExtendError(f"branch structure at sample {sample} is not two-sheeted")
    probe = problem._probes.get(sample)
    if probe is None:
        probe = problem._probes[sample] = _QuotientProbe(problem, sample)
    quotients_all, side_verdicts = [], []
    for j, (_, u, slots) in enumerate(probe.sides):
        targets = witness.assignments[u][slots]
        if targets[0] == targets[1]:
            # both branches ride one target sheet: the quotient vanishes
            side_verdicts.append("finite")
            quotients_all.extend([0.0] * 8)
            continue
        valuesA, valuesB = probe.tracks
        denom = valuesA[j, :, slots[0]] - valuesA[j, :, slots[1]]
        numer = valuesB[j, :, targets[0]] - valuesB[j, :, targets[1]]
        # np.hypot is the scalar complex abs bit for bit, where the vector
        # loop of np.abs is not; the pair is followed until it coalesces
        apart = np.logical_and.accumulate(np.hypot(denom.real, denom.imag) >= probe.min_gap)
        numer, denom = numer[apart], denom[apart]
        qs = np.where(np.hypot(numer.real, numer.imag) >= probe.b_floor, numer / denom, 0.0)
        side_verdicts.append(_classify_quotients(qs.tolist(), problem.tol))
        quotients_all.extend(np.hypot(qs.real, qs.imag).tolist())
    if not side_verdicts:
        return QuotientReport("inconclusive", sample, probe.y0, quotients_all,
                              "no side of the branch could be probed")
    verdict = ("divergent" if "divergent" in side_verdicts
               else "finite" if all(v == "finite" for v in side_verdicts) else "inconclusive")
    return QuotientReport(verdict, sample, probe.y0, quotients_all)


class _QuotientProbe:
    """The lift-independent half of :func:`divided_quotient_test` at a
    two-sheet merge sample.  ``sides`` holds (side, u, slots) for each side
    ±1 whose start y0 ± 2h lies in the chart: u is the sample nearest it and
    slots the coalescing pair's source slots at u.  Below ``min_gap``
    (``b_floor``) a source (target) pair difference is solver noise."""

    def __init__(self, problem: LiftProblem, sample: int):
        A, B, base = problem.source, problem.target, problem.base
        self.problem, self.y0 = problem, A.branch_coordinates[sample]
        self.sides = []
        for side in (+1.0, -1.0):
            start = self.y0 + side * 2.0 * base.spacing
            if base.kind == "interval" and not (0.0 <= start <= 1.0):
                continue
            u = int(base.nearest_samples(*base.coordinate_locations([base.wrap(start)]))[0])
            self.sides.append((side, u, _transport_slots(A, sample, u, A.merge_clusters[sample][0])))
        self.min_gap, self.b_floor = (
            32.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(bundle.fibers[sample]))))
            for bundle in (A, B))

    @functools.cached_property
    def tracks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per bundle, ``values[j, k, i]``: at the dyadic point y0 ± 2h·2^-k
        of side j, the value of the sheet at slot i of u, continued point by
        point by :func:`_match_edges`.  Both sides' 60 points are solved in
        one call per bundle, when a lift's pair first lands on two sheets."""
        problem, base = self.problem, self.problem.base
        steps = 2.0 * base.spacing * 0.5 ** np.arange(60)
        points = base.wrap(np.concatenate([self.y0 + side * steps for side, _, _ in self.sides]))
        starts = [u for _, u, _ in self.sides]
        tracks = []
        for bundle in (problem.source, problem.target):
            n = bundle.degree
            heads = solve_fiber(bundle.poly.coeffs_at(points), problem.tol).reshape(-1, 60, n)
            tails = np.concatenate([bundle.fibers[starts][:, None], heads[:, :-1]], axis=1)
            perms = _match_edges(tails.reshape(-1, n), heads.reshape(-1, n),
                                 problem.tol.match_margin)[0].reshape(heads.shape)
            for k in range(1, 60):                  # slot at point k of u's slot i
                perms[:, k] = np.take_along_axis(perms[:, k], perms[:, k - 1], axis=1)
            tracks.append(np.take_along_axis(heads, perms, axis=2))
        return tuple(tracks)


def _transport_slots(bundle: RootBundle, src: int, dst: int, slots) -> list[int]:
    """Follow slots from sample src to sample dst of an interval or circle
    along a shortest sample path.  Edge k joins samples k and k + 1 (mod
    n), so the path is a run of consecutive edges, walked the shorter way
    round a circle; where both ways are as short, it is the path the BFS
    spanning tree from src takes: backward, but forward from sample 0,
    whose lower-id edge leads forward."""
    n = bundle.base.n_samples
    ahead = dst - src
    if bundle.base.kind == "circle":
        ahead %= n
        if 2 * ahead > n or (2 * ahead == n and src != 0):
            ahead -= n
    if ahead >= 0:
        eids, way = src + np.arange(ahead), 1               # edges src, src + 1, ...
    else:
        eids, way = src - 1 - np.arange(-ahead), -1         # edges src - 1, src - 2, ...
    out = np.asarray(slots, dtype=np.intp)
    for perm in bundle.directed_perms(eids % n, np.full(len(eids), way)):
        out = perm[out]
    return out.tolist()


def _classify_quotients(qs, tol: Tolerances) -> str:
    if len(qs) < 6:
        return "inconclusive"
    mags = [abs(q) for q in qs]
    tail = mags[-5:]
    if mags[-1] > tol.quotient_divergence and all(
            tail[i] < tail[i + 1] for i in range(4)):
        return "divergent"
    diffs = [abs(qs[i + 1] - qs[i]) for i in range(len(qs) - 5, len(qs) - 1)]
    if all(d <= tol.quotient_cauchy * max(1.0, mags[-1]) for d in diffs):
        return "finite"
    return "inconclusive"


def ah_extendable(p: MonicPolynomial, smap, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    """Does the induced endomorphism extend to the polynomial subalgebra?

    Yes iff some lift both fits as a polynomial in the root coordinate and
    has finite divided quotients at every two-sheet branch point.
    """
    return decide_subalgebra(lift_problem(p, smap, tol))


def decide_subalgebra(problem: LiftProblem) -> Verdict:
    """Polynomial-subalgebra membership: the first accepted of at most
    ``MAX_LIFTS`` lifts, drawn from the search one at a time."""
    count = problem.solution_count(cap=MAX_LIFTS + 1)
    diag = _base_diagnostics(problem)
    diag["lift_count"] = min(count, MAX_LIFTS)
    if not count:
        cole = decide_lift(problem)
        return Verdict("no", certificate={
            "kind": "no_lift",
            "lift_certificate": cole.certificate,
        }, diagnostics=diag)

    refusals = []
    any_inconclusive = count > MAX_LIFTS
    for k, g0 in enumerate(itertools.islice(problem._solutions(), MAX_LIFTS)):
        lift = LiftWitness(problem, g0)
        # the divided-quotient finiteness condition is necessary; probe it first
        reports = []
        failed = False
        inconclusive = False
        for s in problem.merge_samples:
            clusters = problem.source.merge_clusters[s]
            if len(clusters) != 1 or len(clusters[0]) != 2:
                inconclusive = True
                reports.append({"sample": s, "verdict": "inconclusive",
                                "detail": "branch is not two-sheeted"})
                continue
            rep = divided_quotient_test(problem, lift, s)
            reports.append({"sample": s, "verdict": rep.verdict,
                            "branch_coordinate": rep.branch_coordinate})
            if rep.verdict == "divergent":
                failed = True
                break
            if rep.verdict == "inconclusive":
                inconclusive = True
        if failed:
            refusals.append({"lift": k, "stage": "divided_quotient",
                             "reports": reports})
            continue
        fit = ah_fit(problem.source, lift.values)
        if not fit.accepted:
            refusals.append({"lift": k, "stage": "fit", "refusal": fit.refusal})
            continue
        if inconclusive:
            any_inconclusive = True
            refusals.append({"lift": k, "stage": "divided_quotient",
                             "reports": reports})
            continue
        diag["accepted_lift"] = k
        diag["quotient_reports"] = reports
        return Verdict("yes", witness=lift, diagnostics=diag, fit=fit)
    answer = "inconclusive" if any_inconclusive else "no"
    return Verdict(answer, certificate={
        "kind": "all_lifts_refused",
        "refusals": refusals,
    }, diagnostics=diag)


# -- cross-checks -------------------------------------------------------------------


def cross_checks(problem: LiftProblem, cole: Verdict | None = None,
                 ah: Verdict | None = None) -> dict:
    """The two consistency checks on one lift problem, keyed by name.

    ``ah_implies_cole``: a polynomial-subalgebra extension forces a
    full-surface extension; it holds the ``ah`` and ``cole`` verdicts.
    ``root_implies_ah``: a continuous root of the pulled-back polynomial (a
    section of the problem's target bundle) forces the subalgebra
    extension; it holds the ``has_root`` and ``ah`` verdicts.  Each also
    holds ``consistent``.  Every verdict is decided once, on the problem's
    own bundles and under their tolerances, unless it is passed in as
    ``cole`` or ``ah``.
    """
    from .closedness import _section_verdict

    if ah is None:
        ah = decide_subalgebra(problem)
    if cole is None:
        cole = decide_lift(problem)
    root = _section_verdict(problem.target)
    return {
        "ah_implies_cole": {"ah": ah, "cole": cole,
                            "consistent": not (ah.answer == "yes" and cole.answer == "no")},
        "root_implies_ah": {"has_root": root, "ah": ah,
                            "consistent": not (root.answer == "yes" and ah.answer != "yes")},
    }

"""Discretized root surfaces: fibers, continuation matching, pullbacks.

``build_bundle`` solves the polynomial fiber at every sample, a pullback's
where its source's bundle does not give it, then glues adjacent fibers with
minimum-total-squared-distance assignments, the lexicographically first
where costs tie.  A nearest-sheet bound settles every edge whose nearest
heads form a permutation that clearly wins; any other edge is bisected
adaptively until each span is settled or the fibers are inside the branch
tolerance, where sheets genuinely merge and the minimal assignment is
accepted; all such edges are bisected together, one depth at a time.
Off-sample coefficients come from the polynomial's source, which evaluates
with the same array evaluator as its sampled values (exact for expressions,
root curves and pullbacks), and are linear interpolants otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels, funcspec
from .base import BaseSpace, SelfMap, node_components


class BundleError(RuntimeError):
    pass


class AmbiguousMatchError(BundleError):
    """Sheet matching stayed ambiguous at maximum refinement depth."""


@dataclass(frozen=True)
class Tolerances:
    """All numeric thresholds, pinned in one place and carried into verdicts."""

    root_residual: float = 1e-9
    branch_tol: float = 1e-6
    match_margin: float = 2.0
    max_refine_depth: int = 12
    merge_scale: float = 8.0          # merge value agreement, in local sheet movements
    fit_jump_factor: float = 50.0
    quotient_divergence: float = 1e6
    quotient_cauchy: float = 1e-4

    def as_dict(self):
        return asdict(self)


DEFAULT_TOL = Tolerances()


# -- polynomials ---------------------------------------------------------------


class MonicPolynomial:
    """Monic polynomial whose lower coefficients are sampled functions.

    ``coeff_values[s, k]`` is c_k at sample s; the leading coefficient is
    an implicit 1.  ``source`` provides exact off-sample coefficients when
    the polynomial came from expressions, a factored root list, or a
    pullback; otherwise off-sample coefficients are linear interpolants.
    """

    def __init__(self, base: BaseSpace, coeff_values, source=None):
        coeff_values = np.asarray(coeff_values, dtype=complex)
        if coeff_values.ndim != 2 or coeff_values.shape[0] != base.n_samples:
            raise BundleError("coefficient array must be (n_samples, degree)")
        if coeff_values.shape[1] < 2:
            raise BundleError("polynomial degree must be at least 2")
        if not np.all(np.isfinite(coeff_values)):
            raise BundleError("non-finite polynomial coefficient")
        self.base = base
        self.coeff_values = coeff_values
        self.source = source

    @property
    def degree(self) -> int:
        return self.coeff_values.shape[1]

    @functools.cached_property
    def fibers(self) -> np.ndarray:
        """(S, n) canonically ordered roots per sample, solved once."""
        return _kernels.track_fibers(self.coeff_values)

    @functools.cached_property
    def fiber_gaps(self) -> np.ndarray:
        """(S,) smallest pairwise root distance per sample.  Below
        ``branch_tol`` a sample has merged sheets: :func:`build_bundle`
        flags it, and :func:`is_admissible` reads the same samples."""
        return _min_fiber_gap(self.fibers)

    def coeffs_at(self, coords) -> np.ndarray:
        """(K, n) coefficients at K coordinates, shape (K,) or (K, 2) on torus2.

        A source evaluates them with the evaluator that produced
        ``coeff_values``, so a sample's coordinate gives its row bit for
        bit; without a source they interpolate along the edge holding each
        coordinate.
        """
        coords = np.asarray(coords, dtype=float)
        if self.source is not None:
            return self.source.at_coords(self.base, coords)
        return self.coeffs_at_locations(*self.base.coordinate_locations(coords))

    def coeffs_at_locations(self, edges, params) -> np.ndarray:
        """(K, n) coefficients at locations given as edge and parameter
        arrays: the form a graph base, which has no coordinate chart, takes."""
        if self.source is not None:
            return self.coeffs_at(self.base.location_coordinates(edges, params))
        ends = self.base.edges[np.asarray(edges, dtype=np.intp)]
        t = np.asarray(params, dtype=float)[:, None]
        return (1.0 - t) * self.coeff_values[ends[:, 0]] + t * self.coeff_values[ends[:, 1]]


class ExprSource:
    """Exact coefficients from expressions: one per lower coefficient or,
    with ``roots``, one per root curve, expanded by :func:`_expand_monic`."""

    def __init__(self, exprs, roots: bool = False):
        self.exprs = exprs
        self.roots = roots

    def at_coords(self, base, coords):
        env = funcspec.coordinate_env(base.kind, coords)
        values = funcspec.eval_points(self.exprs, env, len(coords))
        return _expand_monic(values) if self.roots else values


class PullbackSource:
    """Coefficients of the base polynomial evaluated at self-map images."""

    def __init__(self, poly, smap):
        self.poly = poly
        self.smap = smap

    def at_coords(self, base, coords):
        return self.poly.coeffs_at(self.smap.image_coords_array(coords))


def _expand_monic(roots: np.ndarray) -> np.ndarray:
    """Lower coefficients (ascending) of prod (t - r) per row of roots."""
    m, n = roots.shape
    acc = np.zeros((m, n + 1), dtype=complex)
    acc[:, 0] = 1.0
    for j in range(n):
        lam = roots[:, j][:, None]
        nxt = np.zeros_like(acc)
        nxt[:, 1 : j + 2] = acc[:, : j + 1]
        nxt[:, : j + 1] -= lam * acc[:, : j + 1]
        acc = nxt
    return acc[:, :n]


def poly_from_exprs(base: BaseSpace, coeff_texts) -> MonicPolynomial:
    """Monic polynomial from expression strings for c_0..c_{n-1}."""
    exprs = [funcspec.parse(t) if isinstance(t, str) else t for t in coeff_texts]
    values = np.column_stack([funcspec.evaluate(e, base).values for e in exprs])
    return MonicPolynomial(base, values, source=ExprSource(exprs))


def poly_from_roots(base: BaseSpace, root_texts) -> MonicPolynomial:
    """Monic polynomial expanded from root-curve expressions (factored form)."""
    exprs = [funcspec.parse(t) if isinstance(t, str) else t for t in root_texts]
    roots = np.column_stack([funcspec.evaluate(e, base).values for e in exprs])
    return MonicPolynomial(base, _expand_monic(roots), source=ExprSource(exprs, roots=True))


def poly_from_values(base: BaseSpace, coeff_values) -> MonicPolynomial:
    """Monic polynomial from sampled coefficient values only."""
    return MonicPolynomial(base, np.column_stack(
        [np.asarray(c.values if isinstance(c, funcspec.SampledFunction) else c)
         for c in coeff_values]))


def pullback_polynomial(p: MonicPolynomial, smap: SelfMap) -> MonicPolynomial:
    """The polynomial with coefficients composed with the self-map."""
    if smap.base is not p.base:
        raise BundleError("self-map and polynomial live on different bases")
    if p.base.kind == "graph":
        # no chart, so no source: sampled values, interpolated along image edges
        return MonicPolynomial(p.base, p.coeffs_at_locations(smap.image_edges,
                                                             smap.image_params))
    return MonicPolynomial(p.base, p.coeffs_at(smap.image_coords),
                           source=PullbackSource(p, smap))


# -- fibers ---------------------------------------------------------------------


def solve_fiber(coeffs, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """All roots (with multiplicity) of a monic fiber, canonically ordered.

    ``coeffs`` is one fiber (n,) or one fiber per row (K, n); the roots
    have the same shape and pass :func:`_check_residuals`.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    rows = np.atleast_2d(coeffs)
    roots = _kernels.solve_fibers(rows)
    _check_residuals(rows, roots, tol)
    return roots if coeffs.ndim == 2 else roots[0]


def _check_residuals(coeffs: np.ndarray, roots: np.ndarray, tol: Tolerances, samples=None):
    """Each root z's residual must stay within ``tol.root_residual`` times
    max(1, max|c_k|, |z|ⁿ + Σ_k |c_k||z|^k), the last term being the bound
    on the rounding of Horner's scheme at z, so a large root is held to its
    own scale; a :class:`BundleError` names the first row that fails, or
    its entry of the rows' ``samples``, and its worst failing residual."""
    rows, worst = _residual_failures(coeffs, roots, tol)
    if rows.size:
        s = int(rows[0] if samples is None else samples[rows[0]])
        raise BundleError(f"fiber residual {worst[0]:.3e} above tolerance at sample {s}")


def _residual_failures(coeffs: np.ndarray, roots: np.ndarray, tol: Tolerances):
    """The rows failing :func:`_check_residuals`, and each one's worst residual."""
    res = _kernels.residuals(coeffs, roots)
    # written as ~(res <= allowance) so that a NaN residual fails
    scale = np.maximum(1.0, _kernels._reduce_slots(np.maximum, np.abs(coeffs)))
    bad = ~(res <= tol.root_residual * scale[:, None])
    rows = np.flatnonzero(_kernels._reduce_slots(np.logical_or, bad))
    if rows.size:               # the Horner bound, only where the coefficient scale fails
        horner_bound = _kernels.horner(np.abs(coeffs[rows]), np.abs(roots[rows]))
        bad[rows] &= ~(res[rows] <= tol.root_residual * horner_bound)
        rows = rows[bad[rows].any(axis=1)]
    return rows, np.max(np.where(bad[rows], res[rows], -np.inf), axis=1, initial=-np.inf)


def _min_fiber_gap(fibers: np.ndarray) -> np.ndarray:
    """Minimal pairwise root distance per fiber row."""
    m, n = fibers.shape
    gap = np.full(m, np.inf)
    for i, j in itertools.combinations(range(n), 2):
        gap = np.minimum(gap, np.abs(fibers[:, i] - fibers[:, j]))
    return gap


def _match_edges(tails: np.ndarray, heads: np.ndarray, margin: float, leaf=True):
    """Sheet matchings tail slot -> head slot per row, by a nearest-sheet bound.

    Each tail slot i takes its nearest head, at squared distance d1(i), with
    gap δ_i to its second-nearest.  ``best = Σ d1`` (summed over each row's
    contiguous slots) is a lower bound on every assignment's cost.  When
    the nearest heads form a permutation P, P costs ``best`` and any other
    permutation, moving two slots or more off their nearest heads, at least
    ``bound = best + δ_(1) + δ_(2)`` (the two smallest gaps); if those gaps
    exceed 1e-9·best, nothing ties P.  Such a row is ``settled`` when its
    bound passes the margin test with a relative slack of 1e-9.  Any other
    row that ``leaf`` marks (every row by default) takes the identity if
    that ties ``best``, else :func:`_first_least_assignment`.  So each
    settled or marked row, at every degree, gets the lexicographically first
    least-cost assignment, costs within a relative 1e-12 tying; the rest
    keep their nearest heads, to be bisected.  The roots must be finite, as
    :func:`_check_residuals` ensures.

    Returns ``(perms, settled, best, bound)``.
    """
    m, n = tails.shape
    # built slot-major, so that its loops run over contiguous edges
    dist = np.abs(np.ascontiguousarray(tails.T)[:, None, :]
                  - np.ascontiguousarray(heads.T)[None, :, :]) ** 2   # [tail slot, head slot, edge]
    near = np.zeros((n, m), dtype=np.intp)          # the first nearest head on a tie
    d1, d2 = dist[:, 0], np.full((n, m), np.inf)
    for j in range(1, n):
        closer = dist[:, j] < d1
        d2 = np.where(closer, d1, np.minimum(d2, dist[:, j]))
        d1 = np.where(closer, dist[:, j], d1)
        near[closer] = j
    # each edge's slots summed as one contiguous run, as numpy sums a row
    best = np.ascontiguousarray(d1.T).sum(axis=1)
    g1, g2 = d2[0] - d1[0], np.full(m, np.inf)      # the two smallest gaps
    for g in d2[1:] - d1[1:]:
        g1, g2 = np.minimum(g1, g), np.minimum(g2, np.maximum(g1, g))
    gap = g1 + g2
    bound = best + gap
    clear = _permutation_columns(near) & (gap > 1e-9 * best)
    settled = clear & (bound * (1.0 - 1e-9) >= margin * best)
    perms = np.ascontiguousarray(near.T)
    search = ~clear & leaf
    # nothing precedes the identity, so it wins wherever it ties best
    first = search & (dist[np.arange(n), np.arange(n)].sum(axis=0) <= best * (1.0 + 1e-12))
    perms[first] = np.arange(n)
    for e in np.flatnonzero(search & ~first):
        perms[e] = _first_least_assignment(dist[:, :, e])
    return perms, settled, best, bound


def _permutation_columns(near: np.ndarray) -> np.ndarray:
    """Which columns of an (n, m) array of slots 0..n-1 are permutations:
    those whose n entries hit every slot, marked slot by slot."""
    n, m = near.shape
    hit = np.zeros((n, m), dtype=bool)
    hit[near, np.arange(m)] = True
    return hit.all(axis=0)


def _first_least_assignment(cost: np.ndarray) -> np.ndarray:
    """The lexicographically first least-cost assignment of an (n, n) cost
    matrix, costs within a relative 1e-12 of the least tying: from a least
    ``linear_sum_assignment``, slot by slot, the first smaller free head
    whose least completion keeps the total within the ties replaces the
    slot's head, the completion the later slots'."""
    from scipy.optimize import linear_sum_assignment
    n = len(cost)
    perm = linear_sum_assignment(cost)[1]
    target = cost[np.arange(n), perm].sum() * (1.0 + 1e-12)
    fixed = 0.0
    for i in range(n - 1):
        for j in sorted(h for h in perm[i + 1:].tolist() if h < perm[i]):
            rest = np.sort(perm[i:][perm[i:] != j])
            c = linear_sum_assignment(cost[i + 1:, rest])[1]
            if fixed + cost[i, j] + cost[np.arange(i + 1, n), rest[c]].sum() <= target:
                perm[i], perm[i + 1:] = j, rest[c]
                break
        fixed += cost[i, perm[i]]
    return perm


def _ternary_rounds(lo, hi, rounds, gap_at):
    """``rounds`` rounds of a ternary search for the least gap on each
    interval [lo[k], hi[k]], from one ``gap_at`` call.

    A round probes m1 = lo + (hi - lo)/3 and m2 = hi - (hi - lo)/3 and
    keeps [lo, m2] where gap(m1) <= gap(m2), else [m1, hi].  Level r holds
    the 2^r intervals that r rounds can reach, breadth first, each child
    computed from its own parent as the round computes it, so the search
    keeps every bit of a round-by-round one; ``gap_at`` gets the two
    probes of every interval of every level, 2^(rounds+1) - 2 points per
    search, and each search then walks its outcomes down the levels."""
    K = len(lo)
    los, his, points = [lo[:, None]], [hi[:, None]], []
    for _ in range(rounds):
        a, b = los[-1], his[-1]
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        points.append(np.stack([m1, m2], axis=2).reshape(K, -1))
        los.append(np.stack([a, m1], axis=2).reshape(K, -1))     # children 2j, 2j + 1
        his.append(np.stack([m2, b], axis=2).reshape(K, -1))
    gap = gap_at(np.concatenate(points, axis=1).ravel()).reshape(K, -1)
    rows, node, offset = np.arange(K), np.zeros(K, dtype=np.intp), 0
    for r in range(rounds):
        at = offset + 2 * node
        # written as ~(<=) so that a NaN gap keeps the right part, as a round does
        node = 2 * node + ~(gap[rows, at] <= gap[rows, at + 1])
        offset += 2 << r
    return los[-1][rows, node], his[-1][rows, node]


def _inverse_rows(perms: np.ndarray) -> np.ndarray:
    """Row-wise inverse permutations."""
    inv = np.empty_like(perms)
    inv[np.arange(len(perms))[:, None], perms] = np.arange(perms.shape[1])
    return inv


@dataclass
class RootBundle:
    """The discretized root surface of a monic polynomial."""

    base: BaseSpace
    degree: int
    fibers: np.ndarray                  # (S, n) complex, canonically ordered
    edge_perms: np.ndarray              # (E, n) tail slot -> head slot
    branch_flags: np.ndarray            # (S,) bool
    refinement: dict = field(default_factory=dict)   # edge id -> midpoint params
    poly: MonicPolynomial | None = None
    tol: Tolerances = DEFAULT_TOL

    def directed_perms(self, edge_ids, directions) -> np.ndarray:
        """(K, n) sheet permutations along K traversed edges: the rows of
        ``edge_perms``, inverted where the direction is -1, so that slot i at
        the start of a step continues to slot ``row[i]`` at its end."""
        perms = self.edge_perms[np.asarray(edge_ids, dtype=np.intp)]
        back = np.asarray(directions) < 0
        perms[back] = _inverse_rows(perms[back])
        return perms

    @functools.cached_property
    def merge_clusters(self) -> dict[int, list[list[int]]]:
        """The merged sheets at each branch-flagged sample, in ascending
        order: the groups of two or more slots that root values within
        branch tolerance connect, by smallest slot."""
        n = self.degree
        flagged = np.flatnonzero(self.branch_flags)
        vals = self.fibers[flagged]
        # slot i of the k-th flagged sample is node k * n + i
        k, i, j = np.nonzero(np.abs(vals[:, :, None] - vals[:, None, :]) < self.tol.branch_tol)
        table: dict[int, list[list[int]]] = {s: [] for s in flagged.tolist()}
        for g in node_components(len(flagged) * n, np.column_stack([k * n + i, k * n + j])):
            if len(g) > 1:
                table[int(flagged[g[0] // n])].append((g % n).tolist())
        return table

    @functools.cached_property
    def branch_coordinates(self) -> dict[int, float]:
        """The located coalescence coordinate at each merge sample whose
        table holds one group of two sheets, on an interval or circle base
        with a polynomial.  Each is a 70-round ternary search for the least
        root gap over [c - 1.5h, c + 1.5h], c the sample's coordinate and h
        the edge length (clipped to [0, 1] on an interval); one call solves
        the points of up to four rounds of every sample (see
        :func:`_ternary_rounds`)."""
        base = self.base
        samples = [s for s, groups in self.merge_clusters.items()
                   if len(groups) == 1 and len(groups[0]) == 2]
        if self.poly is None or base.kind not in ("interval", "circle") or not samples:
            return {}
        c = base.coords[samples]
        lo, hi = c - 1.5 * base.spacing, c + 1.5 * base.spacing
        if base.kind == "interval":
            lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 1.0)

        def gap_at(points):
            coeffs = self.poly.coeffs_at(base.wrap(points))
            return _min_fiber_gap(solve_fiber(coeffs, self.tol))

        for done in range(0, 70, 4):
            lo, hi = _ternary_rounds(lo, hi, min(4, 70 - done), gap_at)
        return dict(zip(samples, (0.5 * (lo + hi)).tolist()))

    @functools.cached_property
    def local_motion(self) -> np.ndarray:
        """(S,) largest sheet movement along the edges at each sample."""
        tails, heads = self.base.edges.T
        move = _kernels._reduce_slots(np.maximum, np.abs(
            self.fibers[heads[:, None], self.edge_perms] - self.fibers[tails]))
        out = np.zeros(self.base.n_samples)
        np.maximum.at(out, tails, move)
        np.maximum.at(out, heads, move)
        return out


def build_bundle(p: MonicPolynomial, tol: Tolerances = DEFAULT_TOL,
                 source: tuple[RootBundle, SelfMap] | None = None) -> RootBundle:
    """Solve and glue the fibers of ``p`` into a :class:`RootBundle`.

    With ``source`` = (A, smap), ``p`` the pullback of A's polynomial by
    ``smap`` and A built with ``tol``, row s takes A's fibers and flags at
    φ(s) (:attr:`SelfMap.image_samples`) where its coefficients equal A's
    there as bytes, or where its image is φ(s) up to rounding
    (:attr:`SelfMap.on_samples`) and A's fibers pass :func:`_check_residuals`
    on its row; only the other rows are solved, with a whole solve's bits.
    An edge keeps A's permutation where both ends took A's rows and its
    image edge runs forward, unbisected; one :func:`_bisect` matches the rest."""
    base, coeffs = p.base, p.coeff_values
    taken = np.zeros(base.n_samples, dtype=bool)
    if source is not None:
        A, smap = source
        phi = smap.image_samples
        # as uint64 words, a row at a time; A's fibers passed the residual check on equal rows
        words = [np.ascontiguousarray(c).view(np.uint64) for c in (coeffs, A.poly.coeff_values)]
        taken = _kernels._reduce_slots(np.logical_and, words[0] == np.take(words[1], phi, axis=0))
        near = np.flatnonzero(~taken)
        if near.size:           # the rounding mask, only where a row differs
            near = near[smap.on_samples[near]]
            taken[near] = True
            taken[near[_residual_failures(coeffs[near], A.fibers[phi[near]], tol)[0]]] = False
    if not taken.any():
        fibers, flags = p.fibers, p.fiber_gaps < tol.branch_tol
        _check_residuals(coeffs, fibers, tol)
        perms, refinement = _bisect(p, fibers, flags, tol)
    else:
        # np.take gathers whole rows several times faster than fancy indexing
        fibers, flags = np.take(A.fibers, phi, axis=0), np.take(A.branch_flags, phi)
        tails, heads = base.edges.T
        image = base.edge_ids(np.take(phi, tails), np.take(phi, heads))
        kept = (image >= 0) & ~np.isin(image, list(A.refinement))
        solve = np.flatnonzero(~taken)
        if solve.size:
            fibers[solve] = _kernels.track_fibers(coeffs, solve)
            _check_residuals(coeffs[solve], fibers[solve], tol, samples=solve)
            flags[solve] = _min_fiber_gap(fibers[solve]) < tol.branch_tol
            kept &= taken[tails] & taken[heads]
        perms, refinement = np.take(A.edge_perms, image, axis=0), {}
        ids = np.flatnonzero(~kept)
        if ids.size:        # _bisect copies the fibers slot-major, even for no edge
            perms[ids], refinement = _bisect(p, fibers, flags, tol, ids)
    return RootBundle(base, p.degree, fibers, perms, flags, refinement=refinement, poly=p, tol=tol)


def _bisect(p, fibers, flags, tol, ids=None):
    """Sheet permutations of every edge of ``p``'s base, or of the edges
    ``ids`` (ascending) alone, by bisection.

    Each edge starts as one span at depth 0; a span at depth d is its edge
    and its left end t0, of width 2^-d.  A span is a leaf, with its minimal
    assignment, when :func:`_match_edges` settles its end fibers or either
    end has merged sheets (a fiber gap below ``branch_tol``, the sample
    ``flags`` at depth 0 and carried with each end after).  Any other span
    is split at its midpoint, whose fiber is solved; past
    ``max_refine_depth`` it raises :class:`AmbiguousMatchError`.  All spans
    of one depth are matched, evaluated and solved together, so errors come
    from the shallowest failing depth, edges in ascending order.  A split
    span's permutation composes its halves', left then right, from the
    deepest depth up.

    Returns the (E, n) permutations, or one per edge of ``ids`` (an edge's
    does not depend on the others bisected with it), and the midpoints of
    each edge that split, edges and midpoints ascending.
    """
    n = p.degree
    tails, heads = (p.base.edges if ids is None else np.take(p.base.edges, ids, axis=0)).T
    # gathered slot-major, (n, E) transposed, so the depth-0 match copies nothing
    f0, f1 = np.take(fibers.T, tails, axis=1).T, np.take(fibers.T, heads, axis=1).T
    m0, m1 = flags[tails], flags[heads]
    levels, mids = [], []
    for depth in itertools.count():
        merged = m0 | m1
        perm, settled, best, bound = _match_edges(f0, f1, tol.match_margin, merged)
        split = ~(settled | merged)
        levels.append((perm, split))
        if not split.any():
            break
        at = np.flatnonzero(split)
        # a depth-0 span is its whole edge: no per-edge index arrays are built
        edge = (at if ids is None else ids[at]) if depth == 0 else edge[at]
        t0 = np.zeros(len(at)) if depth == 0 else t0[at]
        if depth >= tol.max_refine_depth:
            raise AmbiguousMatchError(
                f"edge {edge[0]}: matching ambiguous at depth {depth} "
                f"(best {best[at[0]]:.3e}, runner-up bound {bound[at[0]]:.3e})")
        f0, f1, m0, m1 = np.take(f0, at, axis=0), np.take(f1, at, axis=0), m0[at], m1[at]
        tm = t0 + 0.5 ** (depth + 1)
        fm = solve_fiber(p.coeffs_at_locations(edge, tm), tol)
        mm = _min_fiber_gap(fm) < tol.branch_tol
        mids.append((edge, tm))
        # each span's two halves, left then right, in place of the span
        edge = np.repeat(edge, 2)
        t0 = np.column_stack([t0, tm]).ravel()
        f0 = np.stack([f0, fm], axis=1).reshape(-1, n)
        f1 = np.stack([fm, f1], axis=1).reshape(-1, n)
        m0, m1 = np.column_stack([m0, mm]).ravel(), np.column_stack([mm, m1]).ravel()

    perm = levels.pop()[0]
    for up, split in reversed(levels):
        up[split] = np.take_along_axis(perm[1::2], perm[0::2], axis=1)   # right[left]
        perm = up
    refinement: dict[int, list[float]] = {}
    if mids:
        edge, tm = (np.concatenate(part) for part in zip(*mids))
        for k in np.lexsort((tm, edge)):
            refinement.setdefault(int(edge[k]), []).append(float(tm[k]))
    return perm, refinement


def pullback(p: MonicPolynomial, smap: SelfMap, tol: Tolerances = DEFAULT_TOL) -> RootBundle:
    """The bundle of ``p`` composed with ``smap``, solved at every sample."""
    return build_bundle(pullback_polynomial(p, smap), tol)


# -- admissibility ----------------------------------------------------------------


@dataclass
class AdmissibilityReport:
    admissible: bool
    window: int
    runs: list[dict]


def is_admissible(p: MonicPolynomial, tol: Tolerances = DEFAULT_TOL,
                  window: int | None = None) -> AdmissibilityReport:
    """Discrete proxy for the set where ``p``'s roots coincide having empty
    interior.

    The polynomial is admissible when no connected run of ``window``
    samples (along any edge path) has merged sheets: a fiber gap below
    ``tol.branch_tol``, the samples :func:`build_bundle` flags.  The
    default window scales with resolution so verdicts are stable under
    sample refinement.
    """
    if window is None:
        window = max(8, math.ceil(0.02 * p.base.n_samples))
    runs = []
    for comp in p.base.components(p.fiber_gaps < tol.branch_tol):
        span = _component_path_span(p.base, comp)
        if span >= window:
            runs.append({
                "samples": comp[:50].tolist(),
                "size": len(comp),
                "path_span": span,
            })
    return AdmissibilityReport(not runs, window, runs)


def _component_path_span(base, comp):
    """Longest shortest-path sample count inside the component.

    Exact for path/cycle-shaped components; a marked component containing
    a full cycle is treated as spanning everything.
    """
    inside = np.zeros(base.n_samples, dtype=bool)
    inside[comp] = True
    edges_inside = int(np.count_nonzero(inside[base.edges[:, 0]] & inside[base.edges[:, 1]]))
    if edges_inside >= len(comp):
        return len(base.coords) + len(comp)      # contains a cycle
    # a tree: the sample farthest from any sample ends a longest path
    far = comp[np.argmax(base.hops(comp[0], inside)[comp])]
    return int(np.max(base.hops(far, inside)[comp])) + 1

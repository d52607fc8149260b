"""Graph walks on the CSR adjacency against the hand-written walks they replaced.

Each ``_ref_*`` function below is a per-sample walk over ``incident()``
(stack, FIFO queue or union-find) kept as the reference; every output
that reaches a verdict must match it exactly, in content and in order.
"""

from collections import deque

import numpy as np
import pytest

from instancegen import (edge_endpoint, incident, random_admissible_poly,
                         random_circle_selfmap, synthetic_strip_bundle)
from rootlift import (build_bundle, cli, funcspec, make_circle, make_graph, make_interval,
                      make_torus2, poly_from_exprs, poly_from_roots, poly_from_values,
                      pullback, sample_selfmap)
from rootlift.base import BaseSpace, BaseSpaceError, _hop_distances
from rootlift.bundle import DEFAULT_TOL, RootBundle, _min_fiber_gap, is_admissible
from rootlift.closedness import winding_function
from rootlift.extend import _QuotientProbe, _transport_slots, ah_fit, lift_problem
from rootlift.monodromy import component_count, components
from rootlift.scenarios import builtin_scenario

# -- the reference walks --------------------------------------------------------


def _neighbours(base, s):
    return [edge_endpoint(base, eid, d)[1] for eid, d in incident(base, s)]


def _ref_marked_component(base, marked, start):
    comp = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nxt in _neighbours(base, cur):
            if marked[nxt] and nxt not in comp:
                comp.add(nxt)
                stack.append(nxt)
    return comp


def _ref_components(base, marked):
    out, seen = [], set()
    for s in range(base.n_samples):
        if marked[s] and s not in seen:
            comp = _ref_marked_component(base, marked, s)
            seen |= comp
            out.append(sorted(comp))
    return out


def _ref_bfs_far(base, comp, start):
    dist = {start: 0}
    queue = [start]
    far, fdist = start, 0
    while queue:
        cur = queue.pop(0)
        for nxt in _neighbours(base, cur):
            if nxt in comp and nxt not in dist:
                dist[nxt] = dist[cur] + 1
                if dist[nxt] > fdist:
                    far, fdist = nxt, dist[nxt]
                queue.append(nxt)
    return far, fdist


def _ref_admissibility_runs(base, marked, window):
    runs = []
    for comp in _ref_components(base, marked):
        comp = set(comp)
        inside = np.zeros(base.n_samples, dtype=bool)
        inside[list(comp)] = True
        edges_inside = int(np.count_nonzero(inside[base.edges[:, 0]]
                                            & inside[base.edges[:, 1]]))
        if edges_inside >= len(comp):
            span = base.n_samples + len(comp)
        else:
            far, _ = _ref_bfs_far(base, comp, next(iter(comp)))
            span = _ref_bfs_far(base, comp, far)[1] + 1
        if span >= window:
            runs.append({"samples": sorted(comp)[:50], "size": len(comp),
                         "path_span": span})
    return runs


def _ref_hop_distance(base, loc_a, loc_b):
    """Distance between two ``(edge, t)`` locations, from their nearest
    samples: an edge's tail where ``t < 0.5``, its head otherwise."""
    (edge_a, t_a), (edge_b, t_b) = loc_a, loc_b
    src = edge_endpoint(base, edge_a, 1)[0 if t_a < 0.5 else 1]
    dst = edge_endpoint(base, edge_b, 1)[0 if t_b < 0.5 else 1]
    if src == dst:
        return abs(t_a - 0.5) + abs(t_b - 0.5)
    dist = {src: 0}
    dq = deque([src])
    while dq:
        cur = dq.popleft()
        for nxt in _neighbours(base, cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                if nxt == dst:
                    return float(dist[nxt]) + 1.0
                dq.append(nxt)
    return float("inf")


def _ref_claims(base, sources, mask=None):
    """FIFO multi-source BFS: claim order, claimer and hop count per sample."""
    claimer, hops = {s: -1 for s in sources}, {s: 0 for s in sources}
    order, queue = list(dict.fromkeys(sources)), deque(dict.fromkeys(sources))
    while queue:
        cur = queue.popleft()
        for nxt in _neighbours(base, cur):
            if nxt not in claimer and (mask is None or mask[nxt]):
                claimer[nxt], hops[nxt] = cur, hops[cur] + 1
                order.append(nxt)
                queue.append(nxt)
    return order, claimer, hops


def _ref_winding_function(base, loop):
    samples = base.walk_samples(loop)[:-1]
    L = len(samples)
    values = np.zeros(base.n_samples, dtype=complex)
    claimed = np.zeros(base.n_samples, dtype=bool)
    for k, s in enumerate(samples):
        values[s] = np.exp(2j * np.pi * k / L)
        claimed[s] = True
    queue = list(samples)
    while queue:
        cur = queue.pop(0)
        for nxt in _neighbours(base, cur):
            if not claimed[nxt]:
                values[nxt] = values[cur]
                claimed[nxt] = True
                queue.append(nxt)
    return values


def _ref_flank_refusal(base, fit_mask, coeffs, bound):
    seen = set()
    for s in np.flatnonzero(~fit_mask).tolist():
        if s in seen:
            continue
        run = _ref_marked_component(base, ~fit_mask, s)
        seen |= run
        flanks = sorted({nxt for r in run for nxt in _neighbours(base, r) if fit_mask[nxt]})
        for i in range(len(flanks)):
            for j in range(i + 1, len(flanks)):
                jump = float(np.max(np.abs(coeffs[flanks[j]] - coeffs[flanks[i]])))
                if jump > bound * (len(run) + 1):
                    return {"kind": "branch_flank_jump", "run_samples": sorted(run),
                            "flanks": [flanks[i], flanks[j]], "jump": jump,
                            "bound": bound * (len(run) + 1)}
    return None


def _ref_transport_slots(bundle, src, dst, slots):
    base = bundle.base
    if src == dst:
        return list(slots)
    prev = {src: None}
    queue = [src]
    while queue:
        cur = queue.pop(0)
        if cur == dst:
            break
        for eid, direction in incident(base, cur):
            _, nxt = edge_endpoint(base, eid, direction)
            if nxt not in prev:
                prev[nxt] = (cur, eid, direction)
                queue.append(nxt)
    steps = []
    cur = dst
    while prev[cur] is not None:
        par, eid, direction = prev[cur]
        steps.append((eid, direction))
        cur = par
    out = list(slots)
    for eid, direction in reversed(steps):
        perm = bundle.directed_perms([eid], [direction])[0]
        out = [int(perm[i]) for i in out]
    return out


def _ref_local_motion(bundle, sample):
    """Largest sheet movement along the edges at ``sample``, walked from it."""
    worst = 0.0
    for eid, direction in incident(bundle.base, sample):
        a, b = edge_endpoint(bundle.base, eid, direction)
        perm = bundle.directed_perms([eid], [direction])[0]
        worst = max(worst, float(np.max(np.abs(bundle.fibers[b][perm] - bundle.fibers[a]))))
    return worst


def _union_find(n):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    return find, union


def _ref_merge_clusters(bundle, sample):
    n = bundle.degree
    find, union = _union_find(n)
    vals = bundle.fibers[sample]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) < bundle.tol.branch_tol:
                union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [sorted(g) for g in sorted(groups.values()) if len(g) > 1]


def _ref_bundle_components(bundle):
    n = bundle.degree
    S = bundle.base.n_samples
    find, union = _union_find(S * n)
    for (a, b), perm in zip(bundle.base.edges.tolist(), bundle.edge_perms.tolist()):
        for i in range(n):
            union(a * n + i, b * n + perm[i])
    for s in np.flatnonzero(bundle.branch_flags).tolist():
        for cluster in _ref_merge_clusters(bundle, s):
            for i in cluster[1:]:
                union(s * n + cluster[0], s * n + i)
    groups = {}
    for s in range(S):
        for i in range(n):
            groups.setdefault(find(s * n + i), set()).add((s, i))
    return sorted(groups.values(), key=min)


def _ref_edge_ids(base):
    """(tail, head) -> the lowest id of an edge from tail to head."""
    ids = {}
    for eid, pair in enumerate(map(tuple, base.edges.tolist())):
        ids.setdefault(pair, eid)
    return ids


def _ref_survey(exprs):
    """Thresholds and the sqrt / variable-denominator test, each by its own
    walk, and a walk of every denominator."""
    cuts = {}
    for node in (node for expr in exprs for node in funcspec.walk(expr)):
        if isinstance(node, funcspec.Piecewise):
            cuts.setdefault(node.var, set()).add(node.threshold)
    kinks = any(isinstance(node, funcspec.Call) and node.func == "sqrt"
                or isinstance(node, funcspec.Bin) and node.op == "/"
                and any(isinstance(n, funcspec.Var) for n in funcspec.walk(node.rhs))
                for expr in exprs for node in funcspec.walk(expr))
    return {var: sorted(ts) for var, ts in cuts.items()}, kinks


# -- instances --------------------------------------------------------------------

BASES = {
    "interval9": make_interval(9),
    "interval40": make_interval(40),
    "circle12": make_circle(12),
    "circle50": make_circle(50),
    "torus6": make_torus2(6, 6),
    "graph-parallel": make_graph(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1)], 2),
    "graph-branches": make_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 3),
}


def _masks(base, seed):
    """Seeded masks of several densities, plus every third sample cleared."""
    rng = np.random.default_rng(seed)
    S = base.n_samples
    masks = [rng.random(S) < density for density in (0.2, 0.45, 0.7, 0.9)]
    masks.append(np.arange(S) % 3 != 0)
    return masks


def _instance_bundles():
    """Root bundles of seeded random admissible polynomials and their pullbacks."""
    rng = np.random.default_rng(17)
    circle = make_circle(60)
    p = random_admissible_poly(circle, 3, rng)
    yield "random-circle", build_bundle(p)
    yield "random-circle-pullback", pullback(p, random_circle_selfmap(circle, rng))
    yield "random-interval", build_bundle(random_admissible_poly(make_interval(61), 2, rng))
    yield "strips-2-3", synthetic_strip_bundle(make_circle(30), [2, 3])


def _clustered_bundle(base, degree, seed):
    """Random sheet permutations, and fibers built from a few values plus
    offsets that chain slots within and just beyond the branch tolerance."""
    rng = np.random.default_rng(seed)
    S, E = base.n_samples, base.n_edges
    step = DEFAULT_TOL.branch_tol * np.array([0.0, 0.6, 1.2, 3.0])
    fibers = (rng.integers(0, 3, (S, degree)) + rng.choice(step, (S, degree))).astype(complex)
    perms = np.array([rng.permutation(degree) for _ in range(E)], dtype=np.intp)
    flags = rng.random(S) < 0.5
    return RootBundle(base, degree, fibers, perms, flags)


# -- base walks ----------------------------------------------------------------------


@pytest.mark.parametrize("name", BASES)
def test_components_match_reference_walk(name):
    base = BASES[name]
    several = 0
    for mask in _masks(base, len(name)):
        got = [c.tolist() for c in base.components(mask)]
        assert got == _ref_components(base, mask)
        several += len(got) > 1
    assert several                   # some mask splits into several components


@pytest.mark.parametrize("name", BASES)
def test_admissibility_runs_match_reference_walk(name):
    base = BASES[name]
    zeros = np.zeros(base.n_samples, dtype=complex)
    for mask in _masks(base, 3 * len(name)):
        g = np.where(mask, 0.0, 1.0 + np.arange(base.n_samples))
        p = poly_from_values(base, [g, zeros])
        marked = _min_fiber_gap(p.fibers) < DEFAULT_TOL.branch_tol
        for window in (1, 2, 3, 5, None):
            report = is_admissible(p, window=window)
            assert report.runs == _ref_admissibility_runs(base, marked, report.window)


@pytest.mark.parametrize("name", BASES)
def test_bfs_matches_fifo_queue(name):
    base = BASES[name]
    S = base.n_samples
    rng = np.random.default_rng(S)
    for sources in ([0], [S - 1], rng.permutation(S)[:3].tolist(),
                    base.walk_samples(base.loop_basis[0])[:-1] if base.loop_basis else [S // 2]):
        order, pred = base.bfs(sources)
        ref_order, claimer, _ = _ref_claims(base, sources)
        assert order.tolist() == ref_order
        assert pred.tolist() == [claimer.get(s, -1) for s in range(S)]


@pytest.mark.parametrize("name", BASES)
def test_hops_match_reference_walk(name):
    base = BASES[name]
    S = base.n_samples
    for mask in [None] + _masks(base, 5):
        for source in sorted({0, S // 2, S - 1}):
            if mask is not None and not mask[source]:
                continue
            _, _, ref = _ref_claims(base, [source], mask)
            assert base.hops(source, mask).tolist() == [
                float(ref.get(s, np.inf)) for s in range(S)]


@pytest.mark.parametrize("name", BASES)
def test_hop_distance_matches_reference_walk(name):
    base = BASES[name]
    rng = np.random.default_rng(base.n_edges)
    locs = [(int(e), float(t)) for e, t in
            zip(rng.integers(0, base.n_edges, 24), rng.random(24))]
    edges, params = np.array(locs).T
    a, b = np.divmod(np.arange(len(locs) ** 2), len(locs))     # every ordered pair
    dist = _hop_distances(base, edges[a].astype(int), params[a],
                          edges[b].astype(int), params[b])
    for x, y, d in zip(a, b, dist):
        assert d == _ref_hop_distance(base, locs[x], locs[y])


@pytest.mark.parametrize("name", [n for n in BASES if BASES[n].kind == "graph"])
def test_bounded_hop_distances_match_unbounded(name):
    # random location tables: hop counts up to the limit are exact, the rest inf
    base = BASES[name]
    rng = np.random.default_rng(base.n_samples)
    edges_a, edges_b = rng.integers(0, base.n_edges, (2, 300))
    params_a, params_b = rng.random((2, 300))
    full = _hop_distances(base, edges_a, params_a, edges_b, params_b)
    assert np.isfinite(full).all()
    for limit in (0.0, 1.0, 2.0, 2.5, 4.0, float(base.n_samples)):
        bounded = _hop_distances(base, edges_a, params_a, edges_b, params_b, limit=limit)
        assert np.array_equal(bounded, np.where(full > limit + 1.0, np.inf, full))
    # a random table is rejected on its first jumping edge, at its exact distance
    table = rng.integers(0, base.n_edges, base.n_samples), rng.random(base.n_samples)
    x, y = base.edges.T
    dist = _hop_distances(base, table[0][x], table[1][x], table[0][y], table[1][y])
    eid = int(np.argmax(dist > 2.0 + 1e-9))
    with pytest.raises(BaseSpaceError) as err:
        sample_selfmap(base, table)
    assert str(err.value) == (f"self-map violates discrete continuity on edge {eid}: "
                              f"image distance {dist[eid]:.3f} edges exceeds bound 2.0")


@pytest.mark.parametrize("name", [*BASES, "parallel-edges"])
def test_edge_ids_match_a_scan_of_the_edges(name):
    # the last base has parallel edges, both ways round
    base = BASES.get(name) or BaseSpace("graph", np.zeros((3, 2)),
                                        [(0, 1), (1, 2), (0, 1), (2, 0), (1, 0), (1, 2)])
    S = base.n_samples
    tails, heads = np.divmod(np.arange(S * S), S)      # every ordered pair
    ref = _ref_edge_ids(base)
    got = base.edge_ids(tails, heads)
    assert got.tolist() == [ref.get(pair, -1) for pair in zip(tails.tolist(), heads.tolist())]
    assert np.count_nonzero(got >= 0) == len(ref)


@pytest.mark.parametrize("texts", [
    ["x"], ["1/x"], ["x/2"], ["2/(1+0*x)"], ["1/piecewise(x<=0.5, 1, 2)"],
    ["-(1/(1/x))^2"], ["exp(1i*theta)/2", "abs(theta)", "sqrt(2)"],
    ["piecewise(x<=0.5, 1/(2+sin(x)), 3)", "piecewise(x>=0.25, x, 1)"],
    ["piecewise(theta1<=3, piecewise(theta2>=-1, 1, 2), theta1)",
     "piecewise(theta1>=3, sqrt(theta1), piecewise(theta1<=0.5, 0, 1))", "theta2"],
])
def test_survey_matches_separate_walks(texts):
    exprs = [funcspec.parse(t) for t in texts]
    cuts, kinks = funcspec.survey(exprs)
    assert ({var: ts.tolist() for var, ts in cuts.items()}, kinks) == _ref_survey(exprs)


@pytest.mark.parametrize("name", [n for n in BASES if BASES[n].loop_basis])
def test_winding_function_matches_reference_walk(name):
    base = BASES[name]
    for loop in base.loop_basis:
        assert np.array_equal(winding_function(base, loop), _ref_winding_function(base, loop))


# -- bundle walks ------------------------------------------------------------------


def _all_bundles():
    yield from _instance_bundles()
    for k, (name, base) in enumerate(BASES.items()):
        yield f"clustered-{name}", _clustered_bundle(base, 3 + k % 4, k)


@pytest.mark.parametrize("name, bundle", list(_all_bundles()))
def test_merge_clusters_and_components_match_reference(name, bundle):
    flagged = np.flatnonzero(bundle.branch_flags).tolist()
    assert list(bundle.merge_clusters) == flagged
    assert bundle.merge_clusters == {s: _ref_merge_clusters(bundle, s) for s in flagged}
    assert components(bundle) == _ref_bundle_components(bundle)


def _builtin_problem(name, n):
    """The lift problem of a builtin at n samples, built as ``run_scenario``
    builds it."""
    config = builtin_scenario(name, n)
    base = cli._scaled_base(config["base"], 1, None)
    spec = config["polynomial"]
    poly = (poly_from_roots(base, spec["roots"]) if "roots" in spec
            else poly_from_exprs(base, spec["coefficients"]))
    return lift_problem(poly, cli._build_selfmap(base, config["selfmap"]))


def _builtin_bundles():
    """The source and pullback bundles of every builtin with a polynomial,
    at small sizes."""
    for name, n in (("example1", 301), ("example2", 240), ("example3", 200), ("torus", 16)):
        problem = _builtin_problem(name, n)
        yield f"{name}-source", problem.source
        yield f"{name}-pullback", problem.target


@pytest.mark.parametrize("name, bundle", list(_all_bundles()) + list(_builtin_bundles()))
def test_component_count_equals_component_sets(name, bundle):
    assert component_count(bundle) == len(components(bundle))


@pytest.mark.parametrize("name, bundle", list(_all_bundles()))
def test_local_motion_matches_reference_walk(name, bundle):
    assert bundle.local_motion.tolist() == [_ref_local_motion(bundle, s)
                                            for s in range(bundle.base.n_samples)]


@pytest.mark.parametrize("name, bundle", list(_all_bundles()))
def test_directed_perms_match_the_scalar_step(name, bundle):
    n, E = bundle.degree, bundle.base.n_edges
    for e, perm in enumerate(bundle.edge_perms.tolist()):
        inverse = [perm.index(j) for j in range(n)]
        assert bundle.directed_perms([e], [1])[0].tolist() == perm
        assert bundle.directed_perms([e], [-1])[0].tolist() == inverse
    rng = np.random.default_rng(E)
    eids, dirs = rng.integers(0, E, 40), rng.choice([-1, 1], 40)
    rows = bundle.directed_perms(eids, dirs)
    for row, e, d in zip(rows, eids, dirs):
        assert np.array_equal(row, bundle.directed_perms([e], [d])[0])


# quotient probes, the one caller, run on interval and circle bases only
@pytest.mark.parametrize("name, bundle", [(name, bundle) for name, bundle in _all_bundles()
                                          if bundle.base.kind in ("interval", "circle")])
def test_transport_slots_match_reference_walk(name, bundle):
    S, n = bundle.base.n_samples, bundle.degree
    rng = np.random.default_rng(S)
    slots = rng.permutation(n)[:2].tolist()
    for src in sorted({0, S // 3, S - 1} | set(rng.integers(0, S, 3).tolist())):
        for dst in range(S):
            assert (_transport_slots(bundle, src, dst, slots)
                    == _ref_transport_slots(bundle, src, dst, slots))


def _tree_transport_slots(bundle, src, dst, slots):
    """Follow slots from src to dst along the path from src in its BFS
    spanning tree: the form the chart walk replaced, kept as its reference."""
    base = bundle.base
    tree, _ = base.spanning_tree(src)
    parent = np.empty((base.n_samples, 2), dtype=np.intp)   # (edge, direction) into a sample
    parent[tree[:, 0]] = tree[:, 1:]
    steps = []
    cur = dst
    while cur != src:
        eid, direction = parent[cur].tolist()
        steps.append((eid, direction))
        cur = int(base.edges[eid, int(direction < 0)])
    eids, dirs = np.array(steps[::-1], dtype=np.intp).reshape(-1, 2).T
    out = np.asarray(slots, dtype=np.intp)
    for perm in bundle.directed_perms(eids, dirs):
        out = perm[out]
    return out.tolist()


@pytest.mark.parametrize("base", [make_interval(n) for n in (2, 3, 4, 7)]
                         + [make_circle(n) for n in range(3, 13)],
                         ids=lambda base: f"{base.kind}{base.n_samples}")
def test_transport_slots_walk_the_chart_like_the_tree(base):
    """Every (src, dst) pair, whole fibers of random sheet permutations."""
    rng = np.random.default_rng(base.n_samples)
    perms = np.array([rng.permutation(4) for _ in range(base.n_edges)], dtype=np.intp)
    bundle = RootBundle(base, 4, np.zeros((base.n_samples, 4), dtype=complex), perms,
                        np.zeros(base.n_samples, dtype=bool))
    for src in range(base.n_samples):
        for dst in range(base.n_samples):
            assert (_transport_slots(bundle, src, dst, [0, 1, 2, 3])
                    == _tree_transport_slots(bundle, src, dst, [0, 1, 2, 3]))


@pytest.mark.parametrize("name, samples", [("example1", 8001), ("example2", 8000)])
def test_transport_slots_of_builtin_probes_match_the_tree(name, samples):
    """The pair of every two-sheet merge sample, followed to each side's
    start sample, as the quotient probes follow it."""
    problem = _builtin_problem(name, samples)
    A = problem.source
    probed = 0
    for sample, groups in A.merge_clusters.items():
        if len(groups) != 1 or len(groups[0]) != 2:
            continue
        for _, u, slots in _QuotientProbe(problem, sample).sides:
            assert slots == _tree_transport_slots(A, sample, u, groups[0])
            probed += 1
    assert probed >= 2


def _fit_cases():
    """Bundles whose unfitted (branch-flagged) runs separate fitted regions
    carrying different constant multiples of the root coordinate."""
    two_sheets = {name: RootBundle(base, 2, np.tile(np.array([-1.0, 1.0], dtype=complex),
                                                    (base.n_samples, 1)),
                                   np.tile(np.arange(2), (base.n_edges, 1)),
                                   np.zeros(base.n_samples, dtype=bool))
                  for name, base in BASES.items()}
    for name, bundle in [*two_sheets.items(), *_instance_bundles()]:
        base = bundle.base
        for k, mask in enumerate(_masks(base, 7 + len(name))):
            flags = mask if k % 2 else ~mask
            scale = np.ones(base.n_samples)
            for c, comp in enumerate(_ref_components(base, ~flags)):
                scale[comp] = 1.0 + c % 4
            flagged = RootBundle(base, bundle.degree, bundle.fibers, bundle.edge_perms, flags)
            yield f"{name}-{k}", flagged, bundle.fibers * scale[:, None]


def test_flank_refusals_match_reference_walk():
    refused = accepted = 0
    for _, bundle, values in _fit_cases():
        fit = ah_fit(bundle, values)
        # ah_fit's jump bound for a bundle without a polynomial
        size = float(np.max(np.abs(values)))
        bound = DEFAULT_TOL.fit_jump_factor * size * 1e-3 * bundle.degree + 1e-8 * (1.0 + size)
        ref = _ref_flank_refusal(bundle.base, fit.fitted_mask, fit.coeffs, bound)
        assert fit.refusal == ref
        assert fit.accepted == (ref is None)
        refused += ref is not None
        accepted += ref is None
    assert refused and accepted

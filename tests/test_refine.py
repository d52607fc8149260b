"""Level-by-level edge bisection against a recursive bisection, and the
reference rule for off-sample coefficients.

``_ref_refine_match`` is the per-edge depth-first recursion that
``build_bundle`` used before it bisected all unsettled edges one depth at
a time, with the exhaustive search of ``instancegen.exhaustive_match`` as
its matcher.  Under the ``"bound"`` rule a span is a leaf when the
nearest-sheet bound, worked out from fully sorted distances, settles it; under the
``"search"`` rule, the old one, when the search's runner-up passes the
margin.  ``build_bundle`` must give the bound rule's permutations and
midpoints exactly, and the search rule's permutations.
"""

import math

import numpy as np
import pytest

from instancegen import (exhaustive_match, random_admissible_poly, random_circle_selfmap,
                         random_interval_selfmap)
from rootlift import (_kernels, build_bundle, cli, funcspec, identity_selfmap,
                      make_circle, make_graph, make_interval, make_torus2,
                      poly_from_values, pullback_polynomial)
from rootlift.bundle import (DEFAULT_TOL, AmbiguousMatchError, BundleError, Tolerances,
                             _min_fiber_gap, poly_from_exprs, poly_from_roots, solve_fiber)
from rootlift.extend import _transport_slots, divided_quotient_test, lift_problem
from rootlift.funcspec import EvalError, parse
from rootlift.scenarios import (builtin_scenario, crossing_quintic, flip_map,
                                half_turn_map, interval_square_pair, time_warp_map)

# -- the reference bisection ------------------------------------------------------


def _ref_leaf(f0, f1, tol, rule):
    """Whether each span of rows f0 -> f1 is a leaf under ``rule``, with the
    costs an error quotes: the best and the runner-up (or its bound)."""
    if rule == "search":
        _, best, second = exhaustive_match(f0, f1)
        return second >= tol.match_margin * best, best, second
    n = f0.shape[1]
    dist = np.abs(f0[:, :, None] - f1[:, None, :]) ** 2    # [span, tail slot, head slot]
    order = np.argsort(dist, axis=2, kind="stable")          # nearest head first
    near = np.take_along_axis(dist, order, axis=2)
    best = sum(near[:, i, 0] for i in range(n))              # in slot order
    gaps = np.sort(near[:, :, 1] - near[:, :, 0], axis=1)
    bound = best + gaps[:, 0] + gaps[:, 1]
    onto = np.all(np.sort(order[:, :, 0], axis=1) == np.arange(n), axis=1)
    settled = (onto & (gaps[:, 0] + gaps[:, 1] > 1e-9 * best)
               & (bound * (1.0 - 1e-9) >= tol.match_margin * best))
    return settled, best, bound


def _ref_refine_match(p, eid, t0, t1, f0, f1, depth, tol, midpoints, rule):
    leaf, best, runner_up = (a[0] for a in _ref_leaf(f0[None, :], f1[None, :], tol, rule))
    if leaf or min(_min_fiber_gap(np.stack([f0, f1]))) < tol.branch_tol:
        return exhaustive_match(f0, f1)[0][0]   # a leaf takes the minimum
    if depth >= tol.max_refine_depth:
        raise AmbiguousMatchError(
            f"edge {eid}: matching ambiguous at depth {depth} "
            f"(best {best:.3e}, runner-up bound {runner_up:.3e})")
    tm = 0.5 * (t0 + t1)
    midpoints.append(tm)
    fm = solve_fiber(p.coeffs_at_locations([eid], [tm])[0], tol)
    left = _ref_refine_match(p, eid, t0, tm, f0, fm, depth + 1, tol, midpoints, rule)
    right = _ref_refine_match(p, eid, tm, t1, fm, f1, depth + 1, tol, midpoints, rule)
    return right[left]


def _ref_edge_perms(p, tol=DEFAULT_TOL, rule="bound"):
    """``build_bundle``'s edge permutations and midpoints, edge by edge."""
    fibers = p.fibers
    flags = _min_fiber_gap(fibers) < tol.branch_tol
    edges = p.base.edges
    tails, heads = fibers[edges[:, 0]], fibers[edges[:, 1]]
    perms = exhaustive_match(tails, heads)[0]
    leaf = _ref_leaf(tails, heads, tol, rule)[0]
    refinement = {}
    for eid in np.flatnonzero(~(flags[edges[:, 0]] | flags[edges[:, 1]] | leaf)):
        midpoints = []
        perms[eid] = _ref_refine_match(p, int(eid), 0.0, 1.0, tails[eid], heads[eid],
                                       0, tol, midpoints, rule)
        refinement[int(eid)] = midpoints
    return perms, refinement


def _assert_same_refinement(p, tol=DEFAULT_TOL):
    """Returns the number of refined edges, so a case can show it refines."""
    bundle = build_bundle(p, tol)
    perms, refinement = _ref_edge_perms(p, tol)
    assert np.array_equal(bundle.edge_perms, perms)
    assert list(bundle.refinement) == list(refinement)
    for eid, midpoints in refinement.items():
        assert bundle.refinement[eid] == sorted(midpoints)
    assert np.array_equal(perms, _ref_edge_perms(p, tol, "search")[0])
    return len(refinement)


# -- cases ----------------------------------------------------------------------


def test_random_instances_and_their_pullbacks():
    refined = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for base, smap in ((make_interval(16), random_interval_selfmap),
                           (make_circle(20), random_circle_selfmap)):
            for degree in (3, 4):
                p = random_admissible_poly(base, degree, rng)
                refined += _assert_same_refinement(p)
                refined += _assert_same_refinement(pullback_polynomial(p, smap(base, rng)))
    assert refined >= 30


@pytest.mark.parametrize("n", [2000, 8000])
def test_crossing_quintic_and_its_pullbacks(n):
    circle = make_circle(n)
    p = crossing_quintic(circle)
    refined = [_assert_same_refinement(q) for q in
               (p, pullback_polynomial(p, time_warp_map(circle)),
                pullback_polynomial(p, half_turn_map(circle)))]
    assert min(refined) >= 2


def _graph_poly():
    """t^2 - r^2 on a figure-eight graph, r crossing zero between samples."""
    g = make_graph(1, [(0, 0), (0, 0)], 5)
    x = g.coords[:, 0] + g.coords[:, 1]
    r = np.cos(3 * x + 0.3) + 0.3j * np.sin(2 * x)
    return poly_from_values(g, [-(r ** 2), np.zeros_like(r)])


def test_sourceless_graph_polynomial():
    p = _graph_poly()
    assert p.source is None
    assert _assert_same_refinement(p) >= 2


def test_graph_pullback_refines_like_the_polynomial():
    # a graph has no chart: its pullback keeps sampled values only, and
    # bisects them by interpolation like the polynomial itself
    p = _graph_poly()
    q = pullback_polynomial(p, identity_selfmap(p.base))
    assert q.source is None
    a, b = build_bundle(p), build_bundle(q)
    assert np.array_equal(a.edge_perms, b.edge_perms)
    assert a.refinement == b.refinement


def test_merge_at_a_midpoint_ends_the_span():
    # the sheets x - 7/16 and 2(x - 7/16) merge at 7/16, the midpoint of
    # edge 3 on samples k/8: its left half ends at a double root
    p = poly_from_roots(make_interval(9), ["x-0.4375", "2*(x-0.4375)"])
    assert _assert_same_refinement(p) >= 1
    assert build_bundle(p).refinement[3] == [0.5]


def _match_count_cases():
    circle = make_circle(2000)
    quintic = crossing_quintic(circle)
    yield pytest.param(quintic, True, id="quintic")
    yield pytest.param(pullback_polynomial(quintic, time_warp_map(circle)), True,
                       id="quintic-pullback")
    yield pytest.param(poly_from_roots(make_interval(9), ["x-0.4375", "2*(x-0.4375)"]), True,
                       id="midpoint-merge")
    yield pytest.param(poly_from_exprs(make_torus2(64, 64), ["-exp(1i*theta1)", "0"]), False,
                       id="torus")


@pytest.mark.parametrize("p, refines", list(_match_count_cases()))
def test_one_match_per_depth(monkeypatch, p, refines):
    # every edge's first match is depth 0 of the bisection, and each depth
    # with split spans adds one match: a midpoint of denominator 2^k is
    # matched at depth k
    from rootlift import bundle
    calls, match = [], bundle._match_edges

    def counting(*args):
        calls.append(len(args[0]))
        return match(*args)

    monkeypatch.setattr(bundle, "_match_edges", counting)
    b = build_bundle(p)
    assert bool(b.refinement) == refines
    depth = max((t.as_integer_ratio()[1].bit_length() - 1
                 for mids in b.refinement.values() for t in mids), default=0)
    assert len(calls) == 1 + depth
    assert calls[0] == p.base.n_edges


def test_depth_cap_raises_like_the_reference():
    base = make_interval(11)
    p = poly_from_exprs(base, ["-(x-0.4999999)^2", "0"])
    for depth in (0, 1, 2, 5):
        tol = Tolerances(branch_tol=1e-300, max_refine_depth=depth)
        with pytest.raises(AmbiguousMatchError) as ref:
            _ref_edge_perms(p, tol)
        with pytest.raises(AmbiguousMatchError) as got:
            build_bundle(p, tol)
        assert str(got.value) == str(ref.value)


def test_midpoint_at_a_pole_names_the_point():
    # samples at x = k/8; the pole x = 0.4375 is the midpoint of edge 3,
    # whose skewed crossing at x = 0.49 needs bisection
    base = make_interval(9)
    p = poly_from_exprs(base, ["-(x-0.49)^2+1e-30/(x-0.4375)", "0"])
    with pytest.raises(EvalError, match=r"expression is not finite at \{'x': 0\.4375\}"):
        build_bundle(p)


# -- the reference rule: sampled values come from the off-sample evaluator ------


def _sampled_cases():
    interval, circle, torus = make_interval(33), make_circle(40), make_torus2(6, 7)
    yield poly_from_exprs(interval, ["-(3*x-1)*(3*x-2)^2", "sin(5*x)+0.3i"])
    yield poly_from_roots(interval, ["x", "-x+0.1i", "sqrt(x)*exp(2i*x)"])
    yield poly_from_exprs(circle, ["exp(1i*theta/3)/7", "piecewise(theta<=2,theta,1/theta)"])
    yield crossing_quintic(circle)
    yield poly_from_exprs(torus, ["-exp(1i*theta1)*cos(theta2)", "theta1/3+0.5i*theta2"])
    yield poly_from_roots(torus, ["exp(1i*theta1)", "2+exp(1i*theta2)/3"])


@pytest.mark.parametrize("p", list(_sampled_cases()),
                         ids=["interval-expr", "interval-roots", "circle-expr",
                              "circle-roots", "torus-expr", "torus-roots"])
def test_coeffs_at_sample_coordinates_are_the_sampled_values(p):
    coords = p.base.coords
    assert np.array_equal(p.coeffs_at(coords), p.coeff_values)
    # one point at a time, and in any order, gives the same bits
    for s in np.random.default_rng(0).permutation(p.base.n_samples)[:9]:
        assert np.array_equal(p.coeffs_at(coords[s:s + 1])[0], p.coeff_values[s])
    edges, params = p.base.sample_locations()
    assert np.array_equal(p.coeffs_at_locations(edges, params), p.coeff_values)


@pytest.mark.parametrize("n", [2000, 2001])
def test_pullback_coeffs_at_sample_coordinates_are_the_sampled_values(n):
    # a chart self-map keeps its images as its expressions give them, so a
    # pullback's source reproduces every sampled row bit for bit
    circle, interval = make_circle(n), make_interval(n // 10)
    quintic, square = crossing_quintic(circle), interval_square_pair(interval)
    for p, smap in ((quintic, time_warp_map(circle)), (quintic, half_turn_map(circle)),
                    (quintic, identity_selfmap(circle)), (square, flip_map(interval)),
                    (square, identity_selfmap(interval))):
        q = pullback_polynomial(p, smap)
        assert np.array_equal(q.coeffs_at(p.base.coords), q.coeff_values)


def test_sourceless_coefficients_interpolate_along_edges():
    base = make_circle(12)
    p = poly_from_values(base, [np.arange(12.0) ** 2, 1j * np.arange(12.0)])
    got = p.coeffs_at(np.array([base.coords[3], 2 * math.pi * 3.25 / 12]))
    assert np.array_equal(got[0], p.coeff_values[3])
    assert np.allclose(got[1], [0.75 * 9 + 0.25 * 16, 3.25j])


def test_scenarios_make_no_one_point_evaluations(monkeypatch, tmp_path):
    # refinement, branch location, quotient probes and the crossing checks
    # all evaluate arrays of points
    calls = []
    original = funcspec.eval_scalar

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(funcspec, "eval_scalar", counting)
    for name, n in (("example1", 401), ("example2", 400), ("example3", 400)):
        assert cli.run_scenario(builtin_scenario(name, n), str(tmp_path / name)) == 0
    assert calls == []


# -- one batch per fiber row: residuals, non-finite values ---------------------------


def test_solve_fiber_checks_each_row_against_its_own_scale(monkeypatch):
    # roots moved by 1e-7 leave residuals of about 2e-4 on t^2 - 1e6 and
    # 2e-7 on t^2 - 1; only the second is above 1e-8 times its own scale,
    # and the first row's scale must not loosen the second row's check
    exact = _kernels.solve_fibers
    monkeypatch.setattr(_kernels, "solve_fibers", lambda coeffs: exact(coeffs) + 1e-7)
    rows = np.array([[-1e6, 0], [-1, 0]], dtype=complex)
    tol = Tolerances(root_residual=1e-8)
    assert np.allclose(solve_fiber(rows[0], tol), [-1000, 1000])
    for fibers in (rows[1], rows, rows[::-1]):
        with pytest.raises(BundleError, match="residual 2.000e-07 above"):
            solve_fiber(fibers, tol)


def test_first_non_finite_point_is_named_whichever_expression_fails():
    x = np.array([0.1, 0.25, 0.5, 0.75])
    exprs = [parse("x"), parse("1/(x-0.5)"), parse("1/(x-0.25)")]
    with pytest.raises(EvalError, match=r"at \{'x': 0\.25\}"):
        funcspec.eval_points(exprs, {"x": x}, len(x))
    with pytest.raises(EvalError, match=r"at \{'x': 0\.5\}"):
        funcspec.eval_points(exprs[:2], {"x": x}, len(x))


# -- branch location and quotient probes against the one-point loops -------------


def _track_pair(fiber: np.ndarray, prev_pair: np.ndarray) -> np.ndarray:
    """Continue an ordered root pair to the nearest pair in a new fiber."""
    d0 = np.abs(fiber - prev_pair[0])
    d1 = np.abs(fiber - prev_pair[1])
    i0 = int(np.argmin(d0))
    i1 = int(np.argmin(d1))
    if i0 == i1:
        alt0 = np.argsort(d0)
        alt1 = np.argsort(d1)
        if d0[alt0[1]] + d1[i1] <= d0[i0] + d1[alt1[1]]:
            i0 = int(alt0[1])
        else:
            i1 = int(alt1[1])
    return np.array([fiber[i0], fiber[i1]])


def _ref_probe(problem, witness, sample, tol=DEFAULT_TOL):
    """Branch coordinate and quotients of ``divided_quotient_test``, one
    point per coefficient evaluation and the pairwise gap loop, the pair
    continued by :func:`_track_pair`, the nearest-pair rule."""
    A, B, base = problem.source, problem.target, problem.base
    h = 2.0 * math.pi / base.n_samples if base.kind == "circle" else 1.0 / (base.n_samples - 1)

    def wrap(y):
        return y % (2.0 * math.pi) if base.kind == "circle" else min(max(y, 0.0), 1.0)

    def fiber(poly, y):
        return solve_fiber(poly.coeffs_at([wrap(y)])[0], tol)

    def gap_at(y):
        fib = fiber(A.poly, y)
        return min(abs(fib[i] - fib[j]) for i in range(len(fib)) for j in range(i + 1, len(fib)))

    c = float(base.coords[sample])
    lo, hi = c - 1.5 * h, c + 1.5 * h
    if base.kind == "interval":
        lo, hi = max(lo, 0.0), min(hi, 1.0)
    for _ in range(70):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if gap_at(m1) <= gap_at(m2):
            hi = m2
        else:
            lo = m1
    y0 = 0.5 * (lo + hi)
    pair_slots = A.merge_clusters[sample][0]
    min_gap = 32.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(A.fibers[sample]))))
    b_floor = 32.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(B.fibers[sample]))))
    quotients = []
    for side in (+1.0, -1.0):
        start = y0 + side * 2.0 * h
        if base.kind == "interval" and not (0.0 <= start <= 1.0):
            continue
        # the edge holding the start point and the parameter along it,
        # then the nearer end of that edge
        n = base.n_samples
        pos = wrap(start) / (2.0 * math.pi) * n if base.kind == "circle" else wrap(start) * (n - 1)
        e = min(int(pos), n - 1 if base.kind == "circle" else n - 2)
        u = int(base.edges[e][0] if pos - e < 0.5 else base.edges[e][1])
        slots = _transport_slots(A, sample, u, pair_slots)
        targets = witness.assignments[u][slots]
        if targets[0] == targets[1]:
            quotients.extend([0.0] * 8)
            continue
        a_pair, b_pair = A.fibers[u][slots], B.fibers[u][targets]
        d = 2.0 * h
        for _ in range(60):
            a_pair = _track_pair(fiber(A.poly, y0 + side * d), a_pair)
            b_pair = _track_pair(fiber(B.poly, y0 + side * d), b_pair)
            denom = a_pair[0] - a_pair[1]
            if abs(denom) < min_gap:
                break
            numer = b_pair[0] - b_pair[1]
            quotients.append(abs(numer / denom if abs(numer) >= b_floor else 0.0))
            d *= 0.5
    return y0, quotients


@pytest.mark.parametrize("case", ["interval-flip", "interval-flip-8001", "circle-time-warp",
                                  "circle-time-warp-8000"])
def test_quotient_probes_match_the_one_point_loops(case):
    if case.startswith("interval-flip"):
        # at 8001 samples four adjacent samples are flagged, and their
        # branch coordinates are searched in one batch
        base = make_interval(8001 if case.endswith("8001") else 301)
        problem = lift_problem(interval_square_pair(base), flip_map(base))
    else:
        # at 8000 samples the batched probe also solves many rows past the
        # point where the pair coalesces
        base = make_circle(8000 if case.endswith("8000") else 400)
        problem = lift_problem(crossing_quintic(base), time_warp_map(base))
    probed = 0
    for s, clusters in problem.source.merge_clusters.items():
        if len(clusters) != 1 or len(clusters[0]) != 2:
            continue
        for witness in problem.enumerate()[:2]:
            rep = divided_quotient_test(problem, witness, s)
            y0, quotients = _ref_probe(problem, witness, s)
            assert rep.branch_coordinate == y0
            assert rep.quotients == quotients
            probed += len(quotients) > 8
    assert probed >= 1

import numpy as np
import pytest

from instancegen import exhaustive_match, resultant_discriminant, root_discriminant
from rootlift import (build_bundle, identity_selfmap, is_admissible, make_circle,
                      make_interval, make_torus2, poly_from_exprs, poly_from_roots,
                      poly_from_values, pullback, sample_selfmap, solve_fiber)
from rootlift.bundle import (DEFAULT_TOL, AmbiguousMatchError, BundleError, MonicPolynomial,
                             Tolerances, _min_fiber_gap, _permutation_columns,
                             pullback_polynomial)
from rootlift.scenarios import (crossing_quintic, cubic_contact_text, interval_square_pair,
                                time_warp_map)

R = cubic_contact_text()


def test_solve_fiber_quadratic():
    assert np.allclose(solve_fiber([-1, 0]), [-1, 1])


def test_solve_fiber_double_root():
    roots = solve_fiber([0, 0])
    assert np.max(np.abs(roots)) < 1e-7


def test_solve_fiber_square_pair_at_zero():
    # r(0) = (-1)(-2)^2 = -4, so the fiber of t^2 - r^2 at x=0 is {-4, 4}
    base = make_interval(3)
    p = interval_square_pair(base)
    roots = solve_fiber(p.coeff_values[0])
    assert np.allclose(roots, [-4, 4], atol=1e-9)


def test_bundle_sqrt_fibers_and_branch():
    # t^2 - x: fibers are +-sqrt(x), single branch at x = 0
    base = make_interval(101)
    p = poly_from_exprs(base, ["-x", "0"])
    b = build_bundle(p)
    assert list(np.flatnonzero(b.branch_flags)) == [0]
    x = np.asarray(base.coords)
    assert np.allclose(b.fibers[:, 1], np.sqrt(x), atol=1e-9)
    assert np.allclose(b.fibers[:, 0], -np.sqrt(x), atol=1e-9)


def test_bundle_constant_identity_perms():
    base = make_circle(32)
    p = poly_from_exprs(base, ["-4+0*theta", "0"])
    b = build_bundle(p)
    assert np.all(b.edge_perms == np.arange(2))
    assert not np.any(b.branch_flags)


def test_square_pair_branch_flags_at_exact_contact_points():
    # with 1/3 and 2/3 on the grid both contact points collapse exactly
    base = make_interval(301)
    p = interval_square_pair(base)
    b = build_bundle(p)
    flagged = set(np.flatnonzero(b.branch_flags))
    assert flagged == {100, 200}


def test_square_pair_branch_flag_near_double_contact_at_spec_resolution():
    base = make_interval(2001)
    p = interval_square_pair(base)
    b = build_bundle(p)
    flagged = np.flatnonzero(b.branch_flags)
    assert len(flagged) >= 1
    assert all(abs(base.coords[s] - 2 / 3) < 1e-3 for s in flagged)


def _built_bundles():
    circle = make_circle(400)
    quintic = crossing_quintic(circle)
    yield "sqrt", build_bundle(poly_from_exprs(make_interval(101), ["-x", "0"]))
    yield "square-pair", build_bundle(interval_square_pair(make_interval(301)))
    yield "quintic", build_bundle(quintic)
    yield "quintic-pullback", pullback(quintic, time_warp_map(circle))
    yield "merged-torus", build_bundle(poly_from_roots(
        make_torus2(16, 16), ["cos(theta1)", "2", "3+sin(theta2)"]))
    yield "unmerged", build_bundle(poly_from_exprs(circle, ["-exp(1i*theta)", "0"]))


@pytest.mark.parametrize("name, b", list(_built_bundles()))
def test_merge_table_holds_exactly_the_flagged_samples(name, b):
    # a built bundle flags a sample exactly when two of its sheets merge there
    assert list(b.merge_clusters) == np.flatnonzero(b.branch_flags).tolist()
    assert all(b.merge_clusters.values())


def test_fiber_residuals_below_tolerance():
    base = make_circle(200)
    p = poly_from_exprs(base, ["-exp(1i*theta)", "0.5+0i", "0"])
    b = build_bundle(p)
    from rootlift._kernels import residuals
    res = residuals(p.coeff_values, b.fibers)
    assert np.max(res) < 1e-9 * max(1.0, np.max(np.abs(p.coeff_values)))


def _assert_resultant_agrees(p):
    """The product agrees with the resultant to a relative 1e-6 away from
    samples whose sheets merge."""
    prod = root_discriminant(p)
    rel = np.abs(prod - resultant_discriminant(p)) / np.maximum(np.abs(prod), 1.0)
    away = _min_fiber_gap(p.fibers) >= DEFAULT_TOL.branch_tol
    assert np.all(rel[away] <= 1e-6)


def test_discriminant_quadratic_is_4c():
    base = make_interval(11)
    p = poly_from_exprs(base, ["-(0.5+0.25i)+0*x", "0"])   # t^2 - c
    assert np.allclose(root_discriminant(p), 4 * (0.5 + 0.25j))
    _assert_resultant_agrees(p)


def test_discriminant_square_pair_value_at_zero():
    # D = 4 r^2, r(0) = -4 -> 64
    base = make_interval(5)
    p = interval_square_pair(base)
    assert root_discriminant(p)[0] == pytest.approx(64.0)
    _assert_resultant_agrees(p)


def test_discriminant_t2_plus_1():
    base = make_interval(7)
    p = poly_from_exprs(base, ["1+0*x", "0"])
    assert np.allclose(root_discriminant(p), -4.0)
    _assert_resultant_agrees(p)


def test_resultant_matches_product_formula():
    base = make_circle(64)
    p = poly_from_exprs(base, ["-exp(1i*theta)", "0.3+0.1i", "0.2+0i"])
    prod = root_discriminant(p)
    res = resultant_discriminant(p)
    rel = np.abs(prod - res) / np.maximum(np.abs(prod), 1.0)
    assert np.max(rel) < 1e-8


def test_resultant_sign_convention_hand_case():
    # Sylvester of (t^2 - c, 2t) has det -4c; discriminant is 4c
    base = make_interval(3)
    p = poly_from_exprs(base, ["-2+0*x", "0"])
    assert np.allclose(resultant_discriminant(p), 8.0)


def test_admissibility_verdicts():
    base = make_interval(401)
    assert is_admissible(interval_square_pair(base)).admissible
    zero = poly_from_values(base, [np.zeros(401), np.zeros(401)])   # t^2
    assert not is_admissible(zero).admissible
    linear = poly_from_exprs(base, ["-x", "0"])                     # t^2 - x
    assert is_admissible(linear).admissible


def test_admissibility_report_lists_runs():
    base = make_interval(101)
    zero = poly_from_values(base, [np.zeros(101), np.zeros(101)])
    rep = is_admissible(zero)
    assert rep.runs and rep.runs[0]["size"] == 101


def test_pullback_identity_bitwise_equal():
    base = make_interval(201)
    p = interval_square_pair(base)
    a = build_bundle(p)
    b = pullback(p, identity_selfmap(base))
    assert np.array_equal(a.fibers, b.fibers)
    assert np.array_equal(a.edge_perms, b.edge_perms)


def test_pullback_flip_fiber_is_mirrored():
    base = make_interval(301)
    p = interval_square_pair(base)
    smap = sample_selfmap(base, "1-x")
    b = pullback(p, smap)
    a = build_bundle(p)
    # fiber of the pullback at sample s equals the fiber of p at 1-x
    s = 30
    mirror = base.n_samples - 1 - s
    assert np.allclose(sorted(b.fibers[s], key=lambda z: (z.real, z.imag)),
                       sorted(a.fibers[mirror], key=lambda z: (z.real, z.imag)),
                       atol=1e-9)


def test_pullback_rotation_on_circle():
    import math
    base = make_circle(64)
    p = poly_from_exprs(base, ["-exp(1i*theta)", "0"])
    smap = sample_selfmap(base, f"theta+{math.pi}")
    b = pullback(p, smap)
    a = build_bundle(p)
    s, shifted = 5, (5 + 32) % 64
    assert np.allclose(b.fibers[s], a.fibers[shifted], atol=1e-9)


def test_interval_edge_perm_coherence():
    base = make_interval(301)
    p = interval_square_pair(base)
    b = build_bundle(p)
    perm = np.arange(2)
    for e in range(base.n_edges):
        perm = b.edge_perms[e][perm]
    for e in range(base.n_edges - 1, -1, -1):
        perm = b.directed_perms([e], [-1])[0][perm]
    assert np.array_equal(perm, np.arange(2))


def test_refinement_resolves_skewed_crossing():
    # transversal crossing at 90% of an edge: matching needs bisection
    base = make_interval(11)
    xstar = 0.49
    p = poly_from_exprs(base, [f"-(x-{xstar})^2", "0"])
    b = build_bundle(p)
    assert b.refinement                      # at least one edge was refined
    assert np.array_equal(b.edge_perms[4], np.arange(2))


def test_refinement_depth_cap_raises():
    base = make_interval(11)
    p = poly_from_exprs(base, ["-(x-0.4999999)^2", "0"])
    tol = Tolerances(branch_tol=1e-300, max_refine_depth=2)
    with pytest.raises(AmbiguousMatchError):
        build_bundle(p, tol)


def test_lsap_matching_agrees_with_enumeration():
    # rows whose nearest heads collide take the assignment search
    from rootlift.bundle import _first_least_assignment
    rng = np.random.default_rng(12)
    tails = rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
    heads = tails + 0.05 * (rng.standard_normal((40, 5))
                            + 1j * rng.standard_normal((40, 5)))
    want, best, _ = exhaustive_match(tails, heads)
    for t, h, w, b in zip(tails, heads, want, best):
        cost = np.abs(t[:, None] - h[None, :]) ** 2
        perm = _first_least_assignment(cost)
        assert np.array_equal(perm, w)
        assert cost[np.arange(5), perm].sum() == pytest.approx(b, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", range(2, 10))
def test_exhaustive_matching_equals_the_sorted_reference(n):
    # the reference enumerates the permutations in sorted (lexicographic)
    # order and takes the first of least cost, at every degree
    from rootlift.bundle import _match_edges
    rng = np.random.default_rng(40 + n)
    m = 60
    tails = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    heads = tails + 0.05 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    # tied costs: repeated roots, a whole row of one value, integer lattices
    tails[::4, 1] = tails[::4, 0]
    heads[::4] = tails[::4]
    tails[1::7] = heads[1::7] = 0.5
    tails[2::9] = rng.integers(0, 2, size=tails[2::9].shape)
    heads[2::9] = rng.integers(0, 2, size=heads[2::9].shape)
    # and 50 rows of complex 0/1 lattices, whose ties round apart:
    # |1+1i|² is 2 + 4e-16, |1|² + |1i|² is 2
    lattice = rng.integers(0, 2, size=(2, 50, n, 2)) @ np.array([1, 1j])
    tails, heads = np.concatenate([tails, lattice[0]]), np.concatenate([heads, lattice[1]])
    got = _match_edges(tails, heads, 2.0)[0]
    want, best, second = exhaustive_match(tails, heads)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.any(best == second)            # some rows do tie


@pytest.mark.parametrize("n", [5, 8, 9])
def test_touch_leaf_keeps_the_identity(n):
    # a double root 0 opening to -a, a (and back) ties both assignments of
    # the pair exactly; the lexicographically first is the identity
    from rootlift.bundle import _match_edges
    a = 0.3
    rest = 3.0 * np.arange(1, n - 1) + 0.5j
    pair = np.array([[0.0, 0.0], [-a, a]])
    tails = np.array([np.concatenate([p, rest]) for p in pair])
    heads = tails[::-1]
    perm, settled, _, _ = _match_edges(tails, heads, 2.0)
    assert np.array_equal(perm, np.tile(np.arange(n), (2, 1)))
    assert not settled.any()
    assert np.array_equal(exhaustive_match(tails, heads)[0], perm)


def test_nearest_sheet_bound_settles_at_degree_70():
    # the permutation test has no bit masks to overflow past degree 63
    from rootlift.bundle import _match_edges
    tails = np.arange(70.0)[None, :] + 0.5j
    perm, settled, _, _ = _match_edges(tails, tails + 0.01, 2.0)
    assert settled.all() and np.array_equal(perm[0], np.arange(70))


def test_large_degree_bundle_uses_lsap():
    # degree 8, where the matching rule is the same as at every other
    # degree, must still produce a coherent bundle
    base = make_circle(24)
    texts = [f"({0.2 * k}+{0.1 * k}i)+0.05*exp(1i*theta)" for k in range(8)]
    p = poly_from_exprs(base, texts)
    b = build_bundle(p)
    assert b.degree == 8
    assert not np.any(b.branch_flags)


def test_degree_must_be_at_least_two():
    base = make_interval(5)
    with pytest.raises(Exception):
        MonicPolynomial(base, np.zeros((5, 1), dtype=complex))


def test_pullback_polynomial_exact_composition():
    base = make_interval(51)
    p = interval_square_pair(base)
    smap = sample_selfmap(base, "1-x")
    pt = pullback_polynomial(p, smap)
    from rootlift import funcspec
    expr = funcspec.parse(f"-({R})^2")
    for s in (0, 10, 25, 50):
        want = funcspec.eval_scalar(expr, {"x": 1.0 - base.coords[s]})
        assert pt.coeff_values[s, 0] == pytest.approx(want, abs=1e-12)


def _least_and_runner_up(cost):
    """The least assignment of a cost matrix, its cost and the runner-up
    cost (the least over assignments avoiding one of its pairs), by
    ``linear_sum_assignment``: a check of the threshold independent of the
    enumeration."""
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    runner_up = np.inf
    for i in range(len(cost)):
        masked = cost.copy()
        masked[i, cols[i]] = np.inf
        r, c = linear_sum_assignment(masked)
        runner_up = min(runner_up, masked[r, c].sum())
    return cols, cost[rows, cols].sum(), runner_up


def _threshold_row(n, margin, rng):
    """One edge on the exact search's decision boundary: heads slide from
    one clear matching towards another, bisected to the last step the search
    still calls unambiguous with the first permutation, and the step after."""
    tails = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    noise = 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    start = tails + noise
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    end = tails[swap] + noise

    def heads_at(s):
        return ((1.0 - s) * start + s * end)[None, :]

    def clear(s):
        cols, best, second = _least_and_runner_up(np.abs(tails[:, None] - heads_at(s)) ** 2)
        return np.array_equal(cols, np.arange(n)) and second >= margin * best

    lo, hi = 0.0, 1.0
    assert clear(lo) and not clear(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if clear(mid) else (lo, mid)
    heads = np.concatenate([heads_at(lo), heads_at(hi)])
    tails = np.stack([tails, tails])
    _, best, second = exhaustive_match(tails, heads)
    # above margin 1 the boundary is the margin test, at or below it the switch
    # to the other permutation, where the runner-up ties the best
    target = max(margin, 1.0) * best
    assert np.min(np.abs(second - target) / target) <= 1e-12
    return tails, heads


@pytest.mark.parametrize("margin", [0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("n", range(2, 10))
def test_screened_matching_equals_the_search(n, margin):
    # the nearest-sheet rule gives the search's permutations, and a row it
    # settles is never ambiguous to the search
    from rootlift.bundle import _match_edges
    rng = np.random.default_rng(100 * n + int(10 * margin))
    m = 48
    tails = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    heads = (tails[:, rng.permutation(n)]
             + 0.02 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))))
    tails[::4, 1] = tails[::4, 0]                        # repeated roots
    tails[1::7] = heads[1::7] = 0.5                      # constant rows: best = 0
    heads[3::11] = tails[3::11]                          # best = 0, distinct roots
    tails[2::9] = rng.integers(0, 2, size=tails[2::9].shape)     # 0/1 lattices:
    heads[2::9] = rng.integers(0, 2, size=heads[2::9].shape)     # tied nearest heads
    rows = [(tails, heads)] + [_threshold_row(n, margin, rng) for _ in range(3)]
    tails = np.concatenate([t for t, _ in rows])
    heads = np.concatenate([h for _, h in rows])

    perm, settled, best, bound = _match_edges(tails, heads, margin)
    want_perm, want_best, want_second = exhaustive_match(tails, heads)
    assert perm.dtype == want_perm.dtype and np.array_equal(perm, want_perm)
    assert settled.any() and not settled.all()
    assert np.all(want_second[settled] >= margin * want_best[settled])
    # best and bound are the least cost and a lower bound on the runner-up
    # where the nearest heads form a permutation, and best a lower bound else
    near = np.argmin(np.abs(tails[:, :, None] - heads[:, None, :]), axis=2)
    onto = np.all(np.sort(near, axis=1) == np.arange(n), axis=1)
    assert np.allclose(best[onto], want_best[onto], rtol=1e-12, atol=0.0)
    assert np.all(bound[onto] <= want_second[onto] * (1.0 + 1e-12))
    assert np.all(best <= want_best * (1.0 + 1e-12))
    # rows marked as leaves keep their assignment unsettled, the others
    # only where settled
    leaf = rng.random(len(tails)) < 0.5
    kept = leaf | settled
    assert np.array_equal(_match_edges(tails, heads, margin, leaf)[0][kept], perm[kept])


def _match_edges_strided(tails, heads, margin, leaf=True):
    """``_match_edges`` as it was with the squared-distance table built from
    the strided transposes, kept to pin the contiguous build to it."""
    from rootlift.bundle import _first_least_assignment
    m, n = tails.shape
    dist = np.abs(tails.T[:, None, :] - heads.T[None, :, :]) ** 2
    near = np.zeros((n, m), dtype=np.intp)
    d1, d2 = dist[:, 0], np.full((n, m), np.inf)
    for j in range(1, n):
        closer = dist[:, j] < d1
        d2 = np.where(closer, d1, np.minimum(d2, dist[:, j]))
        d1 = np.where(closer, dist[:, j], d1)
        near[closer] = j
    best = d1.sum(axis=0)
    g1, g2 = d2[0] - d1[0], np.full(m, np.inf)
    for g in d2[1:] - d1[1:]:
        g1, g2 = np.minimum(g1, g), np.minimum(g2, np.maximum(g1, g))
    gap = g1 + g2
    bound = best + gap
    clear = _permutation_columns(near) & (gap > 1e-9 * best)
    settled = clear & (bound * (1.0 - 1e-9) >= margin * best)
    perms = np.ascontiguousarray(near.T)
    search = ~clear & leaf
    first = search & (dist[np.arange(n), np.arange(n)].sum(axis=0) <= best * (1.0 + 1e-12))
    perms[first] = np.arange(n)
    for e in np.flatnonzero(search & ~first):
        perms[e] = _first_least_assignment(dist[:, :, e])
    return perms, settled, best, bound


@pytest.mark.parametrize("n", range(2, 10))
def test_contiguous_distance_table_matches_the_strided_one_bit_for_bit(n):
    # random fibers with repeated roots, exact ties (0/1 lattices, equal
    # rows) and rows the search decides, in both memory layouts
    from rootlift.bundle import _match_edges
    rng = np.random.default_rng(900 + n)
    m = 300
    tails = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    heads = tails[:, rng.permutation(n)] + 0.3 * rng.standard_normal((m, n))
    tails[::5, 1] = tails[::5, 0]
    tails[1::7] = heads[1::7] = 0.5
    heads[3::11] = tails[3::11]
    tails[2::9] = rng.integers(0, 2, size=tails[2::9].shape)
    heads[2::9] = rng.integers(0, 2, size=heads[2::9].shape)
    leaf = rng.random(m) < 0.5
    for t, h in ((tails, heads), (np.asfortranarray(tails), np.asfortranarray(heads))):
        for margin, marks in ((2.0, True), (4.0, leaf)):
            got = _match_edges(t, h, margin, marks)
            want = _match_edges_strided(tails, heads, margin, marks)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_non_finite_roots_are_rejected_before_matching(monkeypatch):
    # matching needs finite roots: the residual guard stops a non-finite
    # sample fiber in build_bundle and a non-finite midpoint in _bisect
    from rootlift import _kernels, bundle
    seen = []
    match = bundle._match_edges

    def checked(tails, heads, margin, leaf):
        seen.append(bool(np.all(np.isfinite(tails)) and np.all(np.isfinite(heads))))
        return match(tails, heads, margin, leaf)

    monkeypatch.setattr(bundle, "_match_edges", checked)
    solve = _kernels.solve_fibers
    p, q = (poly_from_exprs(make_interval(11), ["-(x-0.49)^2", "0"]) for _ in range(2))
    q.fibers                                             # solved at the samples
    monkeypatch.setattr(_kernels, "solve_fibers", lambda c: np.where(
        np.arange(len(c))[:, None] == 7, np.nan, solve(c)))
    with pytest.raises(BundleError, match="residual nan above tolerance at sample 7"):
        build_bundle(p)
    assert seen == []

    monkeypatch.setattr(_kernels, "solve_fibers", lambda c: np.full(c.shape, np.nan + 0j))
    with pytest.raises(BundleError, match="residual nan above tolerance"):
        build_bundle(q)                                  # the midpoint of edge 4
    assert seen and all(seen)                            # the edges and spans before it


def _count_searches(monkeypatch):
    """The degree of each later assignment search, which a row whose
    nearest heads collide takes."""
    from rootlift import bundle
    sizes, search = [], bundle._first_least_assignment

    def counting(cost):
        sizes.append(len(cost))
        return search(cost)

    monkeypatch.setattr(bundle, "_first_least_assignment", counting)
    return sizes


def test_screen_settles_a_smooth_degree7_bundle(monkeypatch):
    from rootlift import poly_from_roots
    searched = _count_searches(monkeypatch)
    base = make_circle(400)
    texts = [f"({0.3 * k}+{0.1 * k}i)+0.1*exp(1i*(theta+{k}))" for k in range(7)]
    b = build_bundle(poly_from_roots(base, texts))
    assert b.degree == 7 and not b.refinement
    assert len(searched) <= 0.05 * len(base.edges)


def test_large_degree_bundle_falls_back_to_lsap_where_the_screen_fails(monkeypatch):
    # two of eight roots pass within 0.008 of each other while moving 0.08
    # per sample: the bound cannot settle the edges where they pass, so
    # bisection resolves them, and no span there needs the assignment
    # search, which only leaves the bound leaves unsettled take
    from rootlift import bundle, poly_from_roots
    base = make_circle(24)
    texts = [f"({0.2 * k}+{0.1 * k}i)+0.05*exp(1i*theta)" for k in range(2, 8)]
    texts += ["-0.5+0.3*cos(theta)+0.004i", "-0.5-0.3*cos(theta)-0.004i"]
    p = poly_from_roots(base, texts)
    searched = _count_searches(monkeypatch)
    b = build_bundle(p)
    assert b.degree == 8 and not np.any(b.branch_flags)
    assert searched == []
    assert b.refinement

    # the same bundle with every edge and span matched by exhaustive search,
    # split where the search itself finds the matching ambiguous
    def searched_rule(tails, heads, margin, leaf):
        perms, best, second = exhaustive_match(tails, heads)
        return perms, second >= margin * best, best, second

    monkeypatch.setattr(bundle, "_match_edges", searched_rule)
    ref = build_bundle(p)
    assert np.array_equal(b.edge_perms, ref.edge_perms)
    assert b.refinement == ref.refinement


@pytest.mark.parametrize("n", [2000, 2001, 8000])
def test_tracked_fibers_keep_every_branch_decision(monkeypatch, n):
    # sample fibers come from track_fibers; a row near a coalescence must
    # fall back to solve_fibers, so flags, merges and refinement are those of
    # bundles solved by solve_fibers alone
    from rootlift import _kernels
    from rootlift.scenarios import half_turn_map
    circle = make_circle(n)
    p = crossing_quintic(circle)
    polys = [p] + [pullback_polynomial(p, f(circle)) for f in (time_warp_map, half_turn_map)]
    tracked = [build_bundle(q) for q in polys]
    monkeypatch.setattr(_kernels, "track_fibers", _kernels.solve_fibers)
    checked = 0
    for q, a in zip(polys, tracked):
        b = build_bundle(MonicPolynomial(q.base, q.coeff_values, q.source))
        near = _min_fiber_gap(b.fibers) < DEFAULT_TOL.branch_tol
        assert np.array_equal(a.fibers[near], b.fibers[near])
        assert np.array_equal(a.branch_flags, b.branch_flags)
        assert a.merge_clusters == b.merge_clusters
        assert a.refinement == b.refinement
        checked += np.count_nonzero(near)
    assert checked      # some sample, or its image, lies on the touch at pi


def _one_sample_ternary_search(bundle, s):
    """Sample s's branch coordinate, one ternary round per two-point solve,
    on Python floats: the search that ``branch_coordinates`` batches."""
    base = bundle.base
    c = float(base.coords[s])
    lo, hi = c - 1.5 * base.spacing, c + 1.5 * base.spacing
    if base.kind == "interval":
        lo, hi = max(lo, 0.0), min(hi, 1.0)
    for _ in range(70):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        fibers = solve_fiber(bundle.poly.coeffs_at(base.wrap(np.array([m1, m2]))))
        g1, g2 = (min(abs(f[i] - f[j]) for i in range(len(f)) for j in range(i))
                  for f in fibers)
        if g1 <= g2:
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind, n, located", [
    # the window of 5335 misses the touch at 2/3 and returns its own edge
    ("interval-pair", 8001, [5332, 5333, 5334, 5335]),
    ("quintic", 2000, [1000]),
    ("quintic", 16001, [7999, 8000, 8001, 8002]),
    ("interval-pair", 301, [100, 200]),
])
def test_branch_coordinates_equal_one_sample_ternary_search(kind, n, located):
    if kind == "quintic":
        bundle = build_bundle(crossing_quintic(make_circle(n)))
    else:
        bundle = build_bundle(interval_square_pair(make_interval(n)))
    table = bundle.branch_coordinates
    assert set(located) <= set(table)
    assert table == {s: _one_sample_ternary_search(bundle, s) for s in table}


def _sorted_permutation_columns(near):
    """The sort-based test the slot marking replaced, kept as its reference."""
    return np.all(np.sort(near, axis=0) == np.arange(len(near))[:, None], axis=0)


@pytest.mark.parametrize("n", range(1, 10))
def test_permutation_columns_equal_the_sorted_reference(n):
    rng = np.random.default_rng(n)
    m = 2000
    perms = np.argsort(rng.random((n, m)), axis=0)       # every column a permutation
    near = np.where(rng.random((n, m)) < 0.1, rng.integers(0, n, (n, m)), perms)
    got = _permutation_columns(near)
    assert np.array_equal(got, _sorted_permutation_columns(near))
    assert got.any() and (n == 1 or not got.all())
    assert _permutation_columns(near[:, :0]).shape == (0,)

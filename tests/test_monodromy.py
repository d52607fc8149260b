import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootlift import (build_bundle, make_circle, make_graph, make_interval, make_torus2,
                      poly_from_exprs, pullback)
from rootlift.bundle import RootBundle
from instancegen import bundle_monodromy, synthetic_strip_bundle
from rootlift.monodromy import components, loop_monodromy, permutation_cycles, strips
from rootlift.scenarios import (crossing_quintic, interval_square_pair,
                                time_warp_map)


def _brute_components(bundle):
    """Independent union-find oracle over the raw bundle data."""
    n = bundle.degree
    S = bundle.base.n_samples
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for eid, (a, b) in enumerate(bundle.base.edges):
        for i in range(n):
            union((a, i), (b, int(bundle.edge_perms[eid][i])))
    for s in range(S):
        vals = bundle.fibers[s]
        for i in range(n):
            for j in range(i + 1, n):
                if abs(vals[i] - vals[j]) < bundle.tol.branch_tol:
                    union((s, i), (s, j))
    return len({find((s, i)) for s in range(S) for i in range(n)})


def test_constant_polynomial_identity_monodromy():
    base = make_circle(24)
    p = poly_from_exprs(base, ["-4+0*theta", "0"])
    b = build_bundle(p)
    perm = loop_monodromy(b, base.loop_basis[0])
    assert np.array_equal(perm, np.arange(2))


def test_square_root_swap_monodromy():
    # analytic continuation of +-exp(i theta / 2) swaps sheets after a loop
    base = make_circle(40)
    p = poly_from_exprs(base, ["-exp(1i*theta)", "0"])
    b = build_bundle(p)
    perm = loop_monodromy(b, base.loop_basis[0])
    assert np.array_equal(perm, [1, 0])


def test_interval_closed_walk_identity():
    base = make_interval(101)
    p = interval_square_pair(base)
    b = build_bundle(p)
    walk = [(e, +1) for e in range(base.n_edges)]
    walk += [(e, -1) for e in reversed(range(base.n_edges))]
    assert np.array_equal(loop_monodromy(b, walk), np.arange(2))


def test_strips_crossing_quintic():
    base = make_circle(400)
    b = build_bundle(crossing_quintic(base))
    assert strips(b).windings == [2, 3]


def test_strips_time_warp_pullback():
    base = make_circle(400)
    p = crossing_quintic(base)
    b = pullback(p, time_warp_map(base))
    assert strips(b).windings == [2, 3]


def test_strips_square_root_is_one_2_strip():
    base = make_circle(36)
    b = build_bundle(poly_from_exprs(base, ["-exp(1i*theta)", "0"]))
    assert strips(b).windings == [2]


def test_strips_constant_two_1_strips():
    base = make_circle(20)
    b = build_bundle(poly_from_exprs(base, ["-4+0*theta", "0"]))
    assert strips(b).windings == [1, 1]


def test_strips_wrong_base_kind():
    base = make_interval(10)
    b = build_bundle(interval_square_pair(base))
    with pytest.raises(Exception):
        strips(b)


def test_windings_sum_to_degree():
    base = make_circle(60)
    p = poly_from_exprs(base, ["-exp(1i*theta)", "0.4+0.2i", "0.1+0i"])
    b = build_bundle(p)
    assert sum(strips(b).windings) == 3


def test_cycle_type_invariant_under_basepoint_change():
    base = make_circle(48)
    b = build_bundle(crossing_quintic(base))
    loop = base.loop_basis[0]
    t1 = sorted(len(c) for c in permutation_cycles(loop_monodromy(b, loop)))
    rotated = np.roll(loop, -10, axis=0)       # the same walk from sample 10
    t2 = sorted(len(c) for c in permutation_cycles(loop_monodromy(b, rotated)))
    assert t1 == t2


def test_components_square_pair_connected():
    # sheets +-r meet where r vanishes, so the surface is connected
    base = make_interval(301)
    b = build_bundle(interval_square_pair(base))
    comps = components(b)
    assert len(comps) == _brute_components(b) == 1


def test_components_constant_two_pieces():
    base = make_circle(30)
    b = build_bundle(poly_from_exprs(base, ["-4+0*theta", "0"]))
    assert len(components(b)) == 2


def test_components_crossing_quintic_touch_joins_strips():
    base = make_circle(200)
    b = build_bundle(crossing_quintic(base))
    # oracle fixes the expected count: the touch at the crossing sample
    # connects the 2-strip and the 3-strip into one piece
    expected = _brute_components(b)
    assert expected == 1
    assert len(components(b)) == expected


def test_branch_free_components_equal_strips():
    base = make_circle(50)
    p = poly_from_exprs(base, ["-exp(2i*theta)*0+0*theta-4", "0"])
    for texts in (["-exp(1i*theta)", "0"], ["-4+0*theta", "0"]):
        b = build_bundle(poly_from_exprs(base, texts))
        if not np.any(b.branch_flags):
            assert len(components(b)) == len(strips(b).strips)


def test_synthetic_strips_windings():
    base = make_circle(30)
    b = synthetic_strip_bundle(base, [2, 3])
    assert strips(b).windings == [2, 3]
    assert len(components(b)) == 2


def test_monodromy_object_cycle_types():
    base = make_circle(36)
    b = build_bundle(crossing_quintic(base))
    mono = bundle_monodromy(b)
    assert mono.cycle_types() == [(2, 3)]


_LOOP_BASES = {
    "circle": make_circle(40),
    "torus": make_torus2(5, 7),
    "graph": make_graph(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1)], 3),
}


def _every_step_monodromy(bundle, loop):
    """The composition of every step's permutation, one step at a time."""
    perm = list(range(bundle.degree))
    for eid, direction in np.asarray(loop).tolist():
        row = bundle.edge_perms[eid].tolist()
        if direction < 0:
            row = [row.index(i) for i in range(len(row))]
        perm = [row[i] for i in perm]
    return perm


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_LOOP_BASES)), st.integers(2, 6),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.integers(0, 2**32 - 1))
def test_loop_monodromy_of_moving_steps_equals_every_step(name, degree, share, seed):
    # random edge permutations, the identity on all but a share of the edges;
    # each basis loop is also walked backwards and from another start
    base = _LOOP_BASES[name]
    rng = np.random.default_rng(seed)
    perms = np.tile(np.arange(degree), (base.n_edges, 1))
    moving = rng.random(base.n_edges) < share
    perms[moving] = np.argsort(rng.random((int(moving.sum()), degree)), axis=1)
    S = base.n_samples
    bundle = RootBundle(base, degree, np.zeros((S, degree), dtype=complex), perms,
                        np.zeros(S, dtype=bool))
    for loop in base.loop_basis:
        backwards = loop[::-1] * np.array([1, -1])
        for walk in (loop, backwards, np.roll(loop, -2, axis=0)):
            assert loop_monodromy(bundle, walk).tolist() == _every_step_monodromy(bundle, walk)

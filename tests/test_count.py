"""Lift counting and the vectorised circle fast path against references.

``solution_count`` multiplies the choice counts of the orbit table (no
merge constraints) or counts by search (with them), and the search lists
lifts in lexicographic order; the reference here checks every basepoint map
against every loop and merge constraint, in that order.
``_strip_obstruction`` counts at the merge samples with the lift search's
own merge rules; the reference is a per-sample loop over the same two
counts, by union-find.
"""

import copy
import itertools
import math

import numpy as np
import pytest

from instancegen import (random_admissible_poly, random_circle_selfmap,
                         random_interval_selfmap, synthetic_strip_bundle)
from rootlift import (build_bundle, identity_selfmap, make_circle, make_graph,
                      make_interval, make_torus2, poly_from_exprs, poly_from_roots,
                      poly_from_values, pullback, sample_selfmap)
from rootlift import extend
from rootlift.bundle import Tolerances
from rootlift.extend import (LiftProblem, _strip_obstruction, cole_extendable,
                             decide_lift, lift_problem, recheck_certificate)
from rootlift import monodromy as monod
from rootlift.scenarios import (crossing_quintic, flip_map, half_turn_map,
                                interval_square_pair, time_warp_map)


def _brute_solutions(problem):
    """Basepoint maps g0 with g0[rhoA] = rhoB[g0] for every loop pair and
    every merge pair's value allowed, found by trying all of them in
    lexicographic order."""
    nA, nB = problem.source.degree, problem.target.degree
    found = []
    for g0 in itertools.product(range(nB), repeat=nA):
        g = np.array(g0)
        if all(np.array_equal(g[rhoA], rhoB[g]) for rhoA, rhoB in problem.loop_pairs) \
                and all(mat[g[a], g[b]] for a, b, mat in problem.merge_pairs):
            found.append(g0)
    return found


def _without_merges(problem):
    bare = copy.copy(problem)
    bare.merge_pairs = []
    return bare


def _assert_counts(problem):
    """The count equals the reference, and the enumeration is the
    reference's list in its lexicographic order, with and without the
    problem's merge constraints; returns the count."""
    for instance in (problem, _without_merges(problem)) if problem.merge_pairs else (problem,):
        want = _brute_solutions(instance)
        assert [w.g0 for w in instance.enumerate()] == want
        assert instance.solution_count() == len(want)
    return problem.solution_count()


def test_count_on_random_interval_and_circle_instances():
    rng = np.random.default_rng(23)
    interval, circle = make_interval(81), make_circle(90)
    counts = []
    for _ in range(6):
        for base, selfmap in ((interval, random_interval_selfmap),
                              (circle, random_circle_selfmap)):
            p = random_admissible_poly(base, int(rng.integers(2, 5)), rng)
            counts.append(_assert_counts(lift_problem(p, selfmap(base, rng))))
    assert max(counts) > 1


def test_count_with_merge_constraints():
    interval = make_interval(301)
    pair = lift_problem(interval_square_pair(interval), flip_map(interval))
    circle = make_circle(400)
    p = crossing_quintic(circle)
    warp = LiftProblem(build_bundle(p), pullback(p, time_warp_map(circle)))
    for problem in (pair, warp):
        assert problem.merge_pairs
        _assert_counts(problem)
    assert warp.solution_count() == 1


def _torus_problems(n=8):
    base = make_torus2(n, n)
    quadratic = poly_from_exprs(base, ["-exp(1i*theta1)", "0"])
    # (t^2 - exp(i theta1)) (t - 3): a transposition and a fixed sheet
    cubic = poly_from_exprs(base, ["3*exp(1i*theta1)", "-exp(1i*theta1)", "-3+0*theta1"])
    maps = [sample_selfmap(base, ("theta2", "theta1")),
            identity_selfmap(base),
            sample_selfmap(base, ("theta1+theta2", "theta2"))]
    return [LiftProblem(build_bundle(p), pullback(p, smap))
            for p in (quadratic, cubic) for smap in maps]


def test_count_on_torus_maps():
    problems = _torus_problems()
    assert all(len(problem.loop_pairs) >= 2 for problem in problems)
    counts = [_assert_counts(problem) for problem in problems]
    # the cubic's fixed sheet 3 also takes every slot the transposition must fix
    assert counts == [0, 2, 0, 1, 3, 1]


def _figure_eight_poly(base, windings, split):
    """t^3 - a or (t^2 - a)(t - 3), a = exp(2 pi i w u) with w the winding
    on the sample's loop and u its parameter along the loop."""
    loop, u = base.coords[:, 0].astype(int), base.coords[:, 1]
    a = np.exp(2j * math.pi * np.asarray(windings)[np.maximum(loop, 0)] * np.where(loop < 0, 0.0, u))
    if split:
        return poly_from_values(base, [3 * a, -a, np.full_like(a, -3)])
    return poly_from_values(base, [-a, np.zeros_like(a), np.zeros_like(a)])


def test_count_on_the_figure_eight():
    base = make_graph(1, [(0, 0), (0, 0)], 12)
    sources = [build_bundle(_figure_eight_poly(base, w, False)) for w in ((1, 0), (1, 1))]
    targets = [build_bundle(_figure_eight_poly(base, w, split))
               for w, split in (((1, 0), False), ((0, 1), False), ((2, 1), False),
                                ((1, 0), True), ((1, 1), True))]
    counts, pairs = [], []
    for A in sources:
        for B in targets:
            problem = LiftProblem(A, B)
            pairs.append(len(problem.loop_pairs))
            counts.append(_assert_counts(problem))
    assert pairs.count(2) >= 8          # one pair when both loops pull back alike
    assert 0 in counts and max(counts) > 1


def test_count_on_synthetic_strips():
    base = make_circle(24)
    specs = [[1, 1, 2], [3], [1, 2], [2, 2], [1, 1, 1]]
    for wa in specs:
        for wb in specs:
            problem = LiftProblem(synthetic_strip_bundle(base, wa),
                                  synthetic_strip_bundle(base, wb))
            # on a circle: the product over source cycles a of the sum of b over target cycles b | a
            want = math.prod(sum(b for b in wb if a % b == 0) for a in wa)
            assert _assert_counts(problem) == want


def test_degree_eight_trivial_monodromy_counts_without_enumerating(monkeypatch):
    built = []

    class CountingWitness(extend.LiftWitness):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(extend, "LiftWitness", CountingWitness)
    base = make_circle(64)
    p = poly_from_roots(base, [f"{3 * k}+exp(1i*(theta+{0.7 * k}))" for k in range(8)])
    problem = lift_problem(p, half_turn_map(base))
    assert not problem.merge_pairs
    verdict = decide_lift(problem)
    assert verdict.answer == "yes"
    assert verdict.diagnostics["solution_count"] == 8 ** 8
    assert verdict.witness.g0 == (0,) * 8
    assert len(built) <= 1


def test_csp_exhaustion_recheck_stops_at_the_first_lift():
    swap = _torus_problems()[0]
    verdict = decide_lift(swap)
    assert verdict.certificate["kind"] == "csp_exhaustion"
    assert recheck_certificate(swap, verdict.certificate)
    ident = _torus_problems()[1]
    assert not recheck_certificate(ident, {"kind": "csp_exhaustion"})


# -- the fiber-count fast path against the per-sample loop ----------------------------


def _group_count(values, close) -> int:
    """The number of groups that the pairwise test ``close`` connects among
    ``values``, by union-find."""
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(values)), 2):
        if close(values[i], values[j]):
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(values))})


def _ref_strip_obstruction(problem):
    """The per-sample loop: at each sample with merged source sheets, the
    source's sheets with each merged group once against the groups that the
    required target slots' values connect within the merge tolerance."""
    if problem.base.kind != "circle" or not problem.loop_pairs:
        return None
    rhoA, rhoB = problem.loop_pairs[0]
    cyclesA = monod.permutation_cycles(rhoA)
    cyclesB = monod.permutation_cycles(rhoB)
    lensB = [len(c) for c in cyclesB]
    pairing = []
    for cyc in cyclesA:
        targets = [k for k, c in enumerate(cyclesB) if len(cyc) % len(c) == 0]
        if not targets:
            return {"kind": "strip_divisibility", "source_winding": len(cyc),
                    "target_windings": sorted(lensB)}
        pairing.append(targets)
    if any(len(t) != 1 for t in pairing):
        return None
    required_slots = sorted({slot for targets in pairing for slot in cyclesB[targets[0]]})
    A, B, tol = problem.source, problem.target, problem.tol
    for s in range(problem.base.n_samples):
        n_src = _group_count(A.fibers[s], lambda u, v: abs(u - v) < tol.branch_tol)
        if n_src == A.degree:
            continue                    # no merged sheets, so no merge constraint here
        merge_tol = tol.branch_tol + tol.merge_scale * B.local_motion[s]
        n_req = _group_count(B.fibers[s][problem.FB[problem.owner[s]][required_slots]],
                             lambda u, v: abs(u - v) <= merge_tol)
        if n_src < n_req:
            return {
                "kind": "fiber_count",
                "sample": int(s),
                # a circle sample's canonical location: parameter 0 on edge s
                "coordinate": float(problem.base.coords[problem.base.edges[s][0]]),
                "source_distinct": n_src,
                "target_distinct": n_req,
                "pairing": [[len(cyclesA[i]), len(cyclesB[t[0]])]
                            for i, t in enumerate(pairing)],
            }
    return None


@pytest.mark.parametrize("n", [2000, 4000, 8000])
def test_fiber_count_certificate_matches_the_loop_on_example3(n):
    base = make_circle(n)
    p = crossing_quintic(base)
    problem = LiftProblem(build_bundle(p), pullback(p, half_turn_map(base)))
    cert = _strip_obstruction(problem)
    assert cert["kind"] == "fiber_count"
    assert cert == _ref_strip_obstruction(problem)
    assert recheck_certificate(problem, cert)
    warp = LiftProblem(problem.source, pullback(p, time_warp_map(base)))
    assert _strip_obstruction(warp) is _ref_strip_obstruction(warp) is None
    # a wider coincidence tolerance falls short on a run of samples: the first one counts
    wide_tol = Tolerances(branch_tol=1e-2)
    wide = LiftProblem(build_bundle(p, wide_tol), pullback(p, half_turn_map(base), wide_tol))
    cert = _strip_obstruction(wide)
    assert cert == _ref_strip_obstruction(wide)
    assert cert["sample"] < problem.base.n_samples // 2 - 10


def test_fast_path_matches_the_loop_on_random_circle_instances():
    rng = np.random.default_rng(31)
    base = make_circle(150)
    for _ in range(10):
        p = random_admissible_poly(base, int(rng.integers(2, 5)), rng)
        problem = lift_problem(p, random_circle_selfmap(base, rng))
        assert _strip_obstruction(problem) == _ref_strip_obstruction(problem)


# -- examples 2 and 3 where the touch at pi is flagged on several samples ----------


@pytest.mark.parametrize("n", [9000, 10000, 13000, 16000, 18000, 20001])
def test_examples_2_and_3_above_the_flag_threshold(n):
    # from n = 8,887 the neighbours of pi are flagged as merges too (their
    # fiber gap 2 h^2 falls below branch_tol), and their time-warped images
    # are not: the count must let them agree as the search does
    base = make_circle(n)
    p = crossing_quintic(base)
    source = build_bundle(p)
    warp = LiftProblem(source, pullback(p, time_warp_map(base)))
    assert decide_lift(warp).answer == "yes"
    turn = LiftProblem(source, pullback(p, half_turn_map(base)))
    verdict = decide_lift(turn)
    cert = verdict.certificate
    assert verdict.answer == "no" and cert["kind"] == "fiber_count"
    assert (cert["source_distinct"], cert["target_distinct"]) == (4, 5)
    # on the first flagged sample: inside the band 2 (theta - pi)^2 < branch_tol
    # around the touch, which holds up to two samples either side of pi here
    assert abs(cert["coordinate"] - math.pi) < math.sqrt(turn.tol.branch_tol / 2)
    assert not turn.enumerate(max_count=1)


@pytest.mark.xfail(strict=True, reason="no sample lies within branch_tol of the touch "
                   "at pi, so no merge is flagged and the search finds a lift")
def test_example3_at_odd_n_without_a_flag_at_the_touch():
    base = make_circle(2001)
    assert cole_extendable(crossing_quintic(base), half_turn_map(base)).answer == "no"

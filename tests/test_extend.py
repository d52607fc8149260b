import copy
import dataclasses
import inspect
import math

import numpy as np
import pytest

from instancegen import (edge_endpoint, random_admissible_poly, random_circle_selfmap,
                         random_interval_selfmap, synthetic_strip_bundle)
from rootlift import (build_bundle, identity_selfmap, make_circle, make_graph,
                      make_interval, make_torus2, poly_from_exprs,
                      poly_from_roots, poly_from_values, pullback, sample_selfmap)
from rootlift import _kernels, bundle, cli, closedness, extend, figures, monodromy
from rootlift.bundle import Tolerances
from rootlift.extend import (ExtendError, InadmissibleError, LiftProblem,
                             LiftWitness, Verdict, ah_extendable, ah_fit,
                             cole_extendable, cross_checks,
                             decide_lift, decide_subalgebra,
                             divided_quotient_test, lift_problem,
                             validate_witness)
from rootlift.scenarios import (crossing_quintic, flip_map, half_turn_map,
                                interval_square_pair, quintic_root_texts, time_warp_map)


def _square_pair_problem(n=301):
    base = make_interval(n)
    p = interval_square_pair(base)
    return lift_problem(p, flip_map(base)), p, base


def _quintic_problem(smap_builder, n=400):
    base = make_circle(n)
    p = crossing_quintic(base)
    A = build_bundle(p)
    B = pullback(p, smap_builder(base))
    return LiftProblem(A, B), p, base


def test_identity_map_yes_with_projection_witness():
    base = make_circle(60)
    p = poly_from_exprs(base, ["-exp(1i*theta)", "0.2+0.1i", "0"])
    verdict = cole_extendable(p, identity_selfmap(base))
    assert verdict.answer == "yes"
    lifts = lift_problem(p, identity_selfmap(base)).enumerate()
    assert any(np.array_equal(w.values, build_bundle(p).fibers) for w in lifts)


def test_half_turn_rejected_with_fiber_count_certificate():
    problem, _, base = _quintic_problem(half_turn_map, n=400)
    verdict = decide_lift(problem)
    assert verdict.answer == "no"
    cert = verdict.certificate
    # the loop allows 3 x 2 basepoint maps, and the merge at the sample
    # nearest the point -1, where 5 target values meet 4 source sheets,
    # refutes them all
    assert cert["kind"] == "csp_exhaustion" and cert["orbit_choices"] == [3, 2]
    assert [abs(base.coords[s] - math.pi) < 2 * math.pi / 400
            for s in cert["merge_samples"]] == [True]


def test_time_warp_unique_lift():
    problem, _, _ = _quintic_problem(time_warp_map, n=400)
    verdict = decide_lift(problem)
    assert verdict.answer == "yes"
    assert verdict.diagnostics["solution_count"] == 1
    assert validate_witness(problem, verdict.witness)["valid"]


def test_strip_divisibility_synthetic():
    base = make_circle(40)
    for a, b, expected in ((4, 2, "yes"), (2, 3, "no"), (6, 3, "yes"), (3, 2, "no")):
        A = synthetic_strip_bundle(base, [a])
        B = synthetic_strip_bundle(base, [b])
        assert decide_lift(LiftProblem(A, B)).answer == expected


def test_strip_divisibility_certificate_kind():
    base = make_circle(40)
    v = decide_lift(LiftProblem(synthetic_strip_bundle(base, [2]),
                                synthetic_strip_bundle(base, [3])))
    # a winding-2 strip has no image in a winding-3 one: its orbit has no choice
    assert v.certificate["kind"] == "csp_exhaustion"
    assert v.certificate["orbit_choices"] == [0]
    assert v.certificate["merge_samples"] == []


def test_square_pair_lift_enumeration():
    problem, _, base = _square_pair_problem()
    lifts = problem.enumerate()
    assert len(lifts) == 4
    fibers = problem.source.fibers
    # both fiber-constant lifts are present
    consts = [w for w in lifts if np.allclose(w.values[:, 0], w.values[:, 1])]
    assert len(consts) == 2


def test_square_pair_divergent_quotient_at_double_contact():
    problem, _, base = _square_pair_problem()
    bs = [int(s) for s in np.flatnonzero(problem.source.branch_flags)]
    two_thirds = min(bs, key=lambda s: abs(base.coords[s] - 2 / 3))
    lifts = problem.enumerate()
    verdicts = {}
    for w in lifts:
        rep = divided_quotient_test(problem, w, two_thirds)
        verdicts[w.g0] = rep.verdict
        assert abs(rep.branch_coordinate - 2 / 3) < 1e-6
    assert "divergent" in verdicts.values()
    assert "finite" in verdicts.values()


def test_square_pair_simple_contact_quotient_finite():
    # at the transversal contact the quotient tends to zero for every lift
    problem, _, base = _square_pair_problem()
    bs = [int(s) for s in np.flatnonzero(problem.source.branch_flags)]
    third = min(bs, key=lambda s: abs(base.coords[s] - 1 / 3))
    for w in problem.enumerate():
        rep = divided_quotient_test(problem, w, third)
        assert rep.verdict == "finite"


def test_projection_lift_quotient_is_one():
    base = make_interval(301)
    p = interval_square_pair(base)
    problem = lift_problem(p, identity_selfmap(base))
    ident = [w for w in problem.enumerate()
             if np.array_equal(w.values, problem.source.fibers)][0]
    s = int(np.flatnonzero(problem.source.branch_flags)[1])
    rep = divided_quotient_test(problem, ident, s)
    assert rep.verdict == "finite"
    assert abs(rep.quotients[-1] - 1.0) < 1e-6


def _count_solves(monkeypatch):
    """The row count of every ``solve_fibers`` call from now on, in order."""
    rows = []
    solve = _kernels.solve_fibers
    monkeypatch.setattr(_kernels, "solve_fibers",
                        lambda coeffs: rows.append(len(coeffs)) or solve(coeffs))
    return rows


def test_branch_coordinates_are_located_once_per_bundle(monkeypatch):
    # two lift problems share the source bundle: a probe in the second reads
    # the coordinates the first one's probe located; a problem solves a
    # sample's probe points once, when a lift's pair first lands on two
    # target sheets there: lift 0 (0, 0) rides one sheet, lift 1 (0, 1)
    # does not, and lift 2 (1, 0) reads lift 1's points
    problem, _, _ = _square_pair_problem()
    A = problem.source
    twin = LiftProblem(A, A)
    s = min(A.merge_clusters)
    rows = _count_solves(monkeypatch)

    def probe(prob, k):
        rows.clear()
        divided_quotient_test(prob, prob.enumerate()[k], s)
        return list(rows)

    first = probe(problem, 1)
    # 70 rounds, four to a solve: 30 points per two-sheet merge sample for
    # each of 17 solves, then 6 for the last two rounds; then both sides' 60
    # points, in one solve per bundle
    K = len(A.merge_clusters)
    assert sorted(A.branch_coordinates) == sorted(A.merge_clusters)
    assert first == [30 * K] * 17 + [6 * K] + [120, 120]
    assert probe(problem, 2) == probe(problem, 1) == probe(problem, 0) == []
    assert probe(twin, 0) == []
    assert probe(twin, 1) == [120, 120]
    assert probe(twin, 2) == []


def _band_problem():
    """Example 2's quintic times two winding-2 bands (t - C)^2 - e^(i theta),
    C = 10 and 20, under the time warp at 2000 samples: degree 9, 36 lifts,
    and every pair lands on one pair of target sheets at the merge sample."""
    base = make_circle(2000)
    texts = quintic_root_texts() + [f"{c}{sign}exp(0.5i*theta)"
                                    for c in (10, 20) for sign in "+-"]
    return lift_problem(poly_from_roots(base, texts), time_warp_map(base))


def test_band_decision_probes_its_merge_sample_once(monkeypatch):
    problem = _band_problem()
    problem.source.branch_coordinates          # the branch search
    rows = _count_solves(monkeypatch)
    verdict = decide_subalgebra(problem)
    assert rows == [120, 120]
    want = _eager_decide_subalgebra(problem, extend.MAX_LIFTS)
    assert (verdict.answer, verdict.certificate) == (want.answer, want.certificate)
    assert verdict.answer == "no"
    assert verdict.certificate["kind"] == "all_lifts_refused"
    assert len(verdict.certificate["refusals"]) == 36


def test_ah_fit_accepts_constant_rejects_sheetwise():
    # the jump bound separates the two fits once the grid resolves the
    # blow-up; 601 samples is comfortably past that point
    problem, _, _ = _square_pair_problem(601)
    fits = {}
    for w in problem.enumerate():
        const = np.allclose(w.values[:, 0], w.values[:, 1])
        fits[bool(const)] = ah_fit(problem.source, w.values)
    assert fits[True].accepted
    assert not fits[False].accepted
    assert fits[False].refusal["kind"] in ("coefficient_jump", "branch_flank_jump")


def test_ah_fit_recovers_coefficients():
    problem, p, base = _square_pair_problem()
    const = [w for w in problem.enumerate()
             if np.allclose(w.values[:, 0], w.values[:, 1])][0]
    fit = ah_fit(problem.source, const.values)
    mask = fit.fitted_mask
    q0 = fit.coeffs[mask, 0]
    q1 = fit.coeffs[mask, 1]
    assert np.max(np.abs(q1)) < 1e-7
    # the recovered q0 equals the lift value itself
    assert np.allclose(q0, const.values[mask, 0], atol=1e-7)


def test_ah_verdicts_on_the_three_scenarios():
    problem, _, _ = _square_pair_problem()
    assert decide_subalgebra(problem).answer == "yes"
    warp, _, _ = _quintic_problem(time_warp_map, n=400)
    v = decide_subalgebra(warp)
    assert v.answer == "no"
    refusal = v.certificate["refusals"][0]
    assert refusal["stage"] == "divided_quotient"
    rot, _, _ = _quintic_problem(half_turn_map, n=400)
    v3 = decide_subalgebra(rot)
    assert v3.answer == "no"
    assert v3.certificate["kind"] == "no_lift"


def test_ah_implies_cole_on_examples():
    base = make_interval(301)
    p = interval_square_pair(base)
    rep = cross_checks(lift_problem(p, flip_map(base)))["ah_implies_cole"]
    assert rep["consistent"]
    assert rep["ah"].answer == "yes" and rep["cole"].answer == "yes"


def test_root_implies_extendable():
    base = make_interval(201)
    p = interval_square_pair(base)
    rep = cross_checks(lift_problem(p, flip_map(base)))["root_implies_ah"]
    assert rep["has_root"].answer == "yes"
    assert rep["ah"].answer == "yes"
    assert rep["consistent"]


@pytest.mark.parametrize("check", ["ah_implies_cole", "root_implies_ah"],
                         ids=["ah_implies_cole_check", "root_implies_extendable_check"])
def test_cross_checks_build_each_bundle_once(monkeypatch, check):
    from rootlift import bundle, closedness, extend

    built = []
    original = bundle.build_bundle

    def counting(p, *args, **kwargs):
        built.append(p)
        return original(p, *args, **kwargs)

    for module in (bundle, extend, closedness):
        monkeypatch.setattr(module, "build_bundle", counting)
    tracked, _ = _counted_solves(monkeypatch)
    base = make_interval(201)
    rep = cross_checks(lift_problem(interval_square_pair(base), flip_map(base)))[check]
    assert rep["consistent"]
    assert len(built) == 2           # the polynomial, and its pullback from the source's rows
    assert tracked == [201]          # the flip's pullback solves no row


def test_root_free_identity_still_extends():
    base = make_circle(48)
    p = poly_from_exprs(base, ["-exp(1i*theta)", "0"])
    rep = cross_checks(lift_problem(p, identity_selfmap(base)))["root_implies_ah"]
    assert rep["has_root"].answer == "no"        # square root winds
    assert rep["ah"].answer == "yes"             # projection lift always fits
    assert rep["consistent"]


def test_inadmissible_polynomial_rejected():
    base = make_interval(51)
    p = poly_from_values(base, [np.zeros(51), np.zeros(51)])
    with pytest.raises(InadmissibleError):
        cole_extendable(p, identity_selfmap(base))


def test_verdict_json_shape():
    base = make_circle(36)
    p = poly_from_exprs(base, ["-4+0*theta", "0"])
    v = cole_extendable(p, identity_selfmap(base))
    doc = v.to_json(witness_ref="lift_f.csv")
    assert set(doc) == {"answer", "certificate_kind", "certificate_data",
                        "witness_ref", "tolerances", "resolution", "solution_count"}
    assert doc["answer"] == "yes"
    assert doc["resolution"] == 36


def test_enumerate_lifts_on_half_turn_is_empty():
    base = make_circle(200)
    p = crossing_quintic(base)
    assert lift_problem(p, half_turn_map(base)).enumerate() == []


def test_mixed_strip_verdicts_match_enumeration_and_oracle():
    # oracle: a lift exists iff every source winding has a divisor target
    import itertools

    base = make_circle(24)
    specs = [[a] for a in range(1, 5)] + \
            [list(t) for t in itertools.combinations_with_replacement(range(1, 4), 2)]
    for wa in specs:
        for wb in specs:
            problem = LiftProblem(synthetic_strip_bundle(base, wa),
                                  synthetic_strip_bundle(base, wb))
            verdict = decide_lift(problem)
            exists = bool(problem.enumerate(max_count=1))
            want = all(any(a % b == 0 for b in wb) for a in wa)
            assert (verdict.answer == "yes") == exists == want, (wa, wb)


def test_identity_trivial_monodromy_lift_count_matches_brute_force():
    # oracle: every per-sample sheet assignment on a 3-sample circle,
    # filtered by the edge-consistency constraint
    import itertools

    base = make_circle(3)
    p = poly_from_exprs(base, ["-4+0*theta", "0"])
    A = build_bundle(p)
    maps = list(itertools.product(range(2), repeat=2))
    expected = 0
    for assignment in itertools.product(maps, repeat=3):
        ok = True
        for eid, (a, b) in enumerate(base.edges):
            perm = A.edge_perms[eid]
            for i in range(2):
                if assignment[b][int(perm[i])] != int(perm[assignment[a][i]]):
                    ok = False
        expected += ok
    assert expected == 4            # identity, swap, and both constant drops
    problem = lift_problem(p, identity_selfmap(base))
    assert len(problem.enumerate()) == expected


def test_random_interval_instances_consistent():
    import sys
    sys.path.insert(0, "tests")
    from instancegen import random_admissible_poly, random_interval_selfmap

    rng = np.random.default_rng(55)
    base = make_interval(201)
    for _ in range(12):
        p = random_admissible_poly(base, int(rng.integers(2, 5)), rng)
        smap = random_interval_selfmap(base, rng)
        problem = lift_problem(p, smap)
        cole = decide_lift(problem)
        ah = decide_subalgebra(problem)
        assert not (ah.answer == "yes" and cole.answer == "no")
        if cole.answer == "yes":
            assert validate_witness(problem, cole.witness)["valid"]


def test_witness_validator_catches_corruption():
    problem, _, _ = _square_pair_problem(101)
    w = problem.enumerate()[0]
    _ = w.values
    corrupt = w.assignments.copy()
    corrupt[50, 0] = 1 - corrupt[50, 0]
    w.assignments = corrupt
    del w.values                       # materialized again from the corrupt map
    report = validate_witness(problem, w)
    assert not report["valid"]


def test_witness_validator_catches_a_flipped_sample_on_a_torus():
    # the identity control at 64 x 64: one sample's map flipped breaks the
    # edges at that sample and nothing else
    base = make_torus2(64, 64)
    A = build_bundle(poly_from_exprs(base, ["-exp(1i*theta1)", "0"]))
    problem = LiftProblem(A, A)
    w = problem.enumerate(max_count=1)[0]
    assert validate_witness(problem, w)["valid"]
    corrupt = w.assignments.copy()
    corrupt[2080] = corrupt[2080][::-1]
    w.assignments = corrupt
    del w.values
    report = validate_witness(problem, w)
    assert not report["edge_constraints"]
    assert report["merge_constraints"] and report["fiber_membership"]


def test_witness_validator_catches_a_split_merge_on_a_circle():
    # the sheets +-cos(theta) merge at theta = pi/2 and 3 pi/2; the map that
    # keeps them apart on the constant sheets +-1 meets every edge
    # constraint, yet sends each merged pair to two sheets 2 apart
    base = make_circle(120)
    A = build_bundle(poly_from_roots(base, ["cos(theta)", "-cos(theta)"]))
    B = build_bundle(poly_from_roots(base, ["1", "-1"]))
    problem = LiftProblem(A, B)
    assert problem.merge_samples == [30, 90]
    assert [w.g0 for w in problem.enumerate()] == [(0, 0), (1, 1)]
    w = LiftWitness(problem, (0, 1))
    report = validate_witness(problem, w)
    assert report["edge_constraints"] and report["fiber_membership"]
    assert not report["merge_constraints"] and report["worst_merge_spread"] == 2.0


def test_witnesses_compare_by_problem_and_basepoint_map():
    problem, _, _ = _square_pair_problem(101)
    first, second = problem.enumerate(), problem.enumerate()
    for w in first + second:
        _ = w.values                   # both caches materialized
    assert first == second
    assert first[0] != first[1]
    assert first[0] != LiftWitness(_square_pair_problem(101)[0], first[0].g0)


# -- the array LiftProblem against per-sample references ---------------------------


def _reference_transports(problem):
    """Step-by-step composition down the BFS tree, one sample at a time."""
    base = problem.base
    A, B = problem.source, problem.target
    TA = {problem.basepoint: np.arange(A.degree)}
    TB = {problem.basepoint: np.arange(B.degree)}
    tree, _ = base.spanning_tree(problem.basepoint)
    for sample, eid, direction in tree.tolist():
        parent, _ = edge_endpoint(base, eid, direction)
        TA[sample] = A.directed_perms([eid], [direction])[0][TA[parent]]
        TB[sample] = B.directed_perms([eid], [direction])[0][TB[parent]]
    return TA, TB


def _reference_loop_pairs(problem):
    """One (rhoA, rhoB) per co-tree edge, in edge-id order."""
    base = problem.base
    tree, _ = base.spanning_tree(problem.basepoint)
    in_tree = {eid for _, eid, _ in tree.tolist()}
    pairs = []
    for eid, (a, b) in enumerate(base.edges.tolist()):
        if eid in in_tree:
            continue
        oa, ob = problem.owner[a], problem.owner[b]
        rhoA = problem.invFA[ob][problem.source.edge_perms[eid][problem.FA[oa]]]
        rhoB = problem.invFB[ob][problem.target.edge_perms[eid][problem.FB[oa]]]
        pairs.append((rhoA, rhoB))
    return pairs


def _check_against_reference(problem):
    TA, TB = _reference_transports(problem)
    assert len(TA) == problem.base.n_samples
    for s in range(problem.base.n_samples):
        assert np.array_equal(problem.FA[problem.owner[s]], TA[s])
        assert np.array_equal(problem.FB[problem.owner[s]], TB[s])
    ref = _reference_loop_pairs(problem)
    key = [(tuple(a.tolist()), tuple(b.tolist())) for a, b in ref]
    got = [(tuple(a.tolist()), tuple(b.tolist())) for a, b in problem.loop_pairs]
    assert len(got) == len(set(got))                 # each distinct pair once
    assert got == list(dict.fromkeys(key))           # first-occurrence order
    assert len(problem.cotree) == len(ref)
    full = copy.copy(problem)                        # the search with every co-tree edge
    full.loop_pairs = ref
    full._build_orbits()                             # the orbit table is derived from loop_pairs
    assert full.orbits is not problem.orbits
    assert [w.g0 for w in full.enumerate()] == [w.g0 for w in problem.enumerate()]


def _torus_swap_problems(n=64):
    base = make_torus2(n, n)
    p = poly_from_exprs(base, ["-exp(1i*theta1)", "0"])
    A = build_bundle(p)
    swap = sample_selfmap(base, ("theta2", "theta1"))
    return (LiftProblem(A, pullback(p, swap)),
            LiftProblem(A, pullback(p, identity_selfmap(base))))


@pytest.mark.parametrize("n", [16, 33, 64])
def test_torus_maps_off_the_grid_lines(n):
    # (theta1 + pi, theta2 + pi) pulls lambda^2 - e^{i theta1} back to
    # lambda^2 + e^{i theta1}, lifted by i*lambda; the swap moves the
    # transposition onto the other generator, so no lift exists
    base = make_torus2(n, n)
    p = poly_from_exprs(base, ["-exp(1i*theta1)", "0"])
    half = sample_selfmap(base, (f"theta1+{math.pi!r}", f"theta2+{math.pi!r}"))
    swap = sample_selfmap(base, ("theta2+0.1", "theta1+0.1"))
    assert cole_extendable(p, half).answer == "yes"
    assert cole_extendable(p, swap).answer == "no"


def _counted_solves(monkeypatch):
    """The row counts of every ``track_fibers`` call from now on, and of
    every ``solve_fibers`` call (:func:`_count_solves`)."""
    tracked, track = [], _kernels.track_fibers

    def counting(coeffs, rows=None):
        tracked.append(len(coeffs) if rows is None else len(rows))
        return track(coeffs, rows)

    monkeypatch.setattr(_kernels, "track_fibers", counting)
    return tracked, _count_solves(monkeypatch)


def _tracked_rows(monkeypatch):
    """The ``rows`` argument of every ``track_fibers`` call from now on."""
    calls, track = [], _kernels.track_fibers
    monkeypatch.setattr(_kernels, "track_fibers",
                        lambda coeffs, rows=None: calls.append(rows) or track(coeffs, rows))
    return calls


def _assert_same_bundle(B, C):
    assert B.poly.coeff_values.tobytes() == C.poly.coeff_values.tobytes()
    assert B.fibers.tobytes() == C.fibers.tobytes()
    assert np.array_equal(B.edge_perms, C.edge_perms)
    assert np.array_equal(B.branch_flags, C.branch_flags)
    assert B.refinement == C.refinement


def _on(base, coeffs, smap):
    """A polynomial from coefficient expressions, or from sampled values when
    ``coeffs`` is a function of the base, and a self-map of the same base."""
    p = (poly_from_values(base, coeffs(base)) if callable(coeffs)
         else poly_from_exprs(base, coeffs))
    return p, smap(base)


def _graph_wobble(base):
    wobble = 0.1 * np.exp(1j * np.arange(base.n_samples) / 7)
    return [-1.0 - wobble, wobble]


def _swap(base):
    return sample_selfmap(base, ("theta2", "theta1"))


def _interval_map(text):
    return lambda: _on(make_interval(101), ["-1", "0"], lambda base: sample_selfmap(base, text))


def test_image_samples_are_the_samples_nearest_the_images():
    S = np.arange(12)
    circle, interval, torus = make_circle(12), make_interval(12), make_torus2(4, 4)
    graph = make_graph(2, [(0, 1), (1, 0)], 3)
    assert np.array_equal(sample_selfmap(circle, f"theta+{math.pi!r}").image_samples,
                          (S + 6) % 12)
    assert np.array_equal(sample_selfmap(circle, "theta+0.25").image_samples, S)
    assert np.array_equal(sample_selfmap(circle, "theta-0.3").image_samples, (S - 1) % 12)
    assert np.array_equal(sample_selfmap(interval, "1-x").image_samples, S[::-1])
    i, j = np.divmod(np.arange(16), 4)
    assert np.array_equal(_swap(torus).image_samples, j * 4 + i)
    assert np.array_equal(identity_selfmap(graph).image_samples, np.arange(graph.n_samples))


# self-maps that permute the samples, edges onto edges in either orientation,
# with coefficient rows equal to the source's at the images byte for byte
PERMUTING = [
    *(pytest.param(lambda n=n: _on(make_torus2(n, n), ["-exp(1i*theta1)", "0"], _swap),
                   id=f"torus-swap{n}") for n in (16, 33, 64)),
    pytest.param(lambda: _on(make_interval(101), ["-1-x", "0", "0"],
                             identity_selfmap), id="interval-identity"),
    pytest.param(lambda: _on(make_circle(100), ["-exp(1i*theta)", "0", "0"], identity_selfmap),
                 id="circle-identity"),
    pytest.param(lambda: _on(make_torus2(16, 16), ["-exp(1i*theta1)", "0"], identity_selfmap),
                 id="torus-identity"),
    pytest.param(lambda: _on(make_graph(3, [(0, 1), (1, 2), (2, 0), (0, 0)], 6), _graph_wobble,
                             identity_selfmap), id="graph-identity"),
    # the source bisects edges of this one, and the flip reverses every edge
    pytest.param(lambda: _on(make_torus2(8, 8), ["-(sin(theta1)-0.65)^2", "0"], _swap),
                 id="bisected-swap"),
    pytest.param(_interval_map("1-x"), id="reversed"),
]


def _midpoints(B):
    return sum(map(len, B.refinement.values()))


@pytest.mark.parametrize("case", PERMUTING)
def test_a_permuting_map_reindexes_the_source_bundle(monkeypatch, case):
    p, smap = case()
    S = p.base.n_samples
    tracked, solved = _counted_solves(monkeypatch)
    problem = lift_problem(p, smap)
    # the source's fibers are the only sample fibers solved; the rest are
    # the midpoints of the two bisections
    assert tracked == [S]
    assert sum(solved) <= S + _midpoints(problem.source) + _midpoints(problem.target)
    _assert_same_bundle(problem.target, pullback(p, smap))


def _graph_identity_off_by_rounding(base):
    """The identity of a graph with each image a rounding step along its
    edge: every image's nearest sample is its own, and rows differ in the
    last bits, so the byte rule, the graph's only rule, fails."""
    edges, params = base.sample_locations()
    return sample_selfmap(base, (edges, np.where(params == 0.0, 1e-15, params - 1e-15)))


def _quintic_under(n, text):
    base = make_circle(n)
    return crossing_quintic(base), sample_selfmap(base, text)


# self-maps whose pullback is built: coefficient rows that differ from the
# source's at the nearest samples with images off the samples (by 1e-12 and
# by 3.5e-7 rad from the half turn's), and a graph's rows that differ by
# rounding; a map that collapses every edge takes the source's rows, equal
# as bytes, and matches every edge again
BUILT = [
    pytest.param(lambda: _on(make_torus2(33, 33), ["-exp(1i*theta1)", "0"],
                             lambda base: sample_selfmap(base, ("theta2+0.1", "theta1+0.1"))),
                 False, id="shifted-swap"),
    pytest.param(lambda: _quintic_under(2000, f"theta+{math.pi!r}+1e-12"), False,
                 id="half-turn+1e-12"),
    pytest.param(lambda: _quintic_under(2000, "theta+3.141593"), False, id="theta+3.141593"),
    pytest.param(lambda: _on(make_graph(3, [(0, 1), (1, 2), (2, 0)], 6), _graph_wobble,
                             _graph_identity_off_by_rounding), False, id="graph-rounding"),
    pytest.param(_interval_map("0.5"), True, id="collapsed"),
]


@pytest.mark.parametrize("case, same_rows", BUILT)
def test_the_pullback_is_built_where_reindexing_could_differ(monkeypatch, case, same_rows):
    p, smap = case()
    q = bundle.pullback_polynomial(p, smap)
    assert (q.coeff_values.tobytes()
            == p.coeff_values[smap.image_samples].tobytes()) == same_rows
    tracked, _ = _counted_solves(monkeypatch)
    problem = lift_problem(p, smap)
    assert len(tracked) == 1 + (not same_rows)
    _assert_same_bundle(problem.target, pullback(p, smap))


def _flip(n):
    base = make_interval(n)
    return interval_square_pair(base), flip_map(base)


# images on the samples up to rounding, with rows that differ from the
# source's in the last bits (the half turn and the flip), and the swap whose
# source bisects edges, with rows equal as bytes
ON_SAMPLES = [
    *(pytest.param(lambda n=n: _quintic_under(n, f"theta+{math.pi!r}"), id=f"half-turn{n}")
      for n in (2000, 8000)),
    *(pytest.param(lambda n=n: _flip(n), id=f"flip{n}") for n in (2001, 8001)),
    PERMUTING[-2],
]


@pytest.mark.parametrize("case", ON_SAMPLES)
def test_a_map_onto_the_samples_up_to_rounding_reindexes(monkeypatch, case):
    p, smap = case()
    phi = smap.image_samples
    tracked, _ = _counted_solves(monkeypatch)
    problem = lift_problem(p, smap)
    assert tracked == [p.base.n_samples]
    A, B = problem.source, problem.target
    assert smap.on_samples.all()
    assert ((B.poly.coeff_values.tobytes() == p.coeff_values[phi].tobytes())
            == (p.base.kind == "torus2"))
    assert B.fibers.tobytes() == A.fibers[phi].tobytes()
    bundle._check_residuals(B.poly.coeff_values, B.fibers, B.tol)
    # kept edges carry the source's permutations at their images; the edges
    # re-matched carry what a bisection of every edge gives them
    tails, heads = phi[p.base.edges].T
    image = p.base.edge_ids(tails, heads)
    kept = (image >= 0) & ~np.isin(image, list(A.refinement))
    assert kept.any() or p.base.kind == "interval"
    assert np.array_equal(B.edge_perms[kept], A.edge_perms[image[kept]])
    perms, refinement = bundle._bisect(B.poly, B.fibers, B.branch_flags, B.tol)
    assert np.array_equal(B.edge_perms, perms)
    assert B.refinement == refinement
    built = LiftProblem(A, pullback(p, smap))
    for decide in (decide_lift, decide_subalgebra):
        assert decide(problem).to_json() == decide(built).to_json()


@pytest.mark.parametrize("text, backwards", [(f"theta+{math.pi!r}", False), ("-theta", True)])
def test_edges_whose_image_runs_backwards_are_matched_again(text, backwards):
    # the source's edges carry seeded sheet permutations, 3-cycles among
    # them, that its constant sheets do not show: an edge whose image runs
    # forward keeps its image's, and one whose image runs backwards takes
    # what a bisection of the constant sheets gives it, the identity
    base = make_circle(100)
    A = _permuted(_constant_sheets(base, 3), 0.5, np.random.default_rng(3))
    smap = sample_selfmap(base, text)
    B = build_bundle(bundle.pullback_polynomial(A.poly, smap), source=(A, smap))
    tails, heads = smap.image_samples[base.edges].T
    if backwards:
        assert np.array_equal(B.edge_perms, np.tile(np.arange(3), (base.n_edges, 1)))
    else:
        assert np.array_equal(B.edge_perms, A.edge_perms[base.edge_ids(tails, heads)])


def test_rows_off_by_rounding_whose_roots_fail_the_residual_rule_are_built(monkeypatch):
    # the source's fibers stand for the pullback's only at the rows where
    # they pass the residual rule on its own rows; only the others are solved
    p, smap = _quintic_under(2000, f"theta+{math.pi!r}")
    A = build_bundle(p)
    q = bundle.pullback_polynomial(p, smap)
    # rows moved by 1e-6, which the source's roots no longer solve
    failing = np.arange(3, 2000, 7)
    coeffs = q.coeff_values.copy()
    coeffs[failing, 0] += 1e-6
    whole = _kernels.track_fibers(coeffs)
    solved = _tracked_rows(monkeypatch)
    phi = smap.image_samples
    assert build_bundle(q, source=(A, smap)).fibers.tobytes() == A.fibers[phi].tobytes()
    assert solved == []

    q = bundle.MonicPolynomial(q.base, coeffs)       # off-sample rows interpolated
    B = build_bundle(q, source=(A, smap))
    assert len(solved) == 1 and np.array_equal(solved[0], failing)
    assert B.fibers[failing].tobytes() == whole[failing].tobytes()
    rest = np.setdiff1d(np.arange(2000), failing)
    assert B.fibers[rest].tobytes() == A.fibers[phi[rest]].tobytes()
    perms, refinement = bundle._bisect(q, B.fibers, B.branch_flags, B.tol)
    assert np.array_equal(B.edge_perms, perms) and B.refinement == refinement


@pytest.mark.parametrize("case", [
    *PERMUTING[:3],
    pytest.param(lambda: _on(make_torus2(33, 33), ["-exp(1i*theta1)", "0", "0"], _swap),
                 id="cubic-swap33")])
def test_reindexed_residuals_are_the_sources_at_the_images(case):
    # the re-indexed bundle runs no residual check of its own: its rows and
    # fibers are the source's at the images, which passed it row by row
    p, smap = case()
    A = build_bundle(p)
    B = build_bundle(bundle.pullback_polynomial(p, smap), source=(A, smap))
    phi = smap.image_samples
    assert B.fibers.tobytes() == A.fibers[phi].tobytes()
    assert (_kernels.residuals(B.poly.coeff_values, B.fibers).tobytes()
            == _kernels.residuals(p.coeff_values, A.fibers)[phi].tobytes())


@pytest.mark.parametrize("n, lo, hi", [(2000, 682, 1318), (8000, 2727, 5273)])
def test_the_time_warp_solves_only_the_rows_it_moves(monkeypatch, n, lo, hi):
    # example 2's warp is the identity off [pi - 1, pi + 1] and fixes pi,
    # so those rows equal the source's as bytes; one call solves the rest,
    # and one bisection matches only the edges that touch them
    base = make_circle(n)
    p, smap = crossing_quintic(base), time_warp_map(base)
    whole = _kernels.track_fibers(bundle.pullback_polynomial(p, smap).coeff_values)
    solved = _tracked_rows(monkeypatch)
    matched, bisect = [], bundle._bisect
    monkeypatch.setattr(bundle, "_bisect",
                        lambda *args: matched.append(args[4:]) or bisect(*args))
    problem = lift_problem(p, smap)
    moved = np.setdiff1d(np.arange(lo, hi + 1), [n // 2])
    assert solved[0] is None and len(solved) == 2 and np.array_equal(solved[1], moved)
    assert matched[0] == () and len(matched) == 2
    assert np.array_equal(matched[1][0], np.arange(lo - 1, hi + 1))
    A, B = problem.source, problem.target
    kept = np.setdiff1d(np.arange(n), moved)
    assert B.fibers[kept].tobytes() == A.fibers[kept].tobytes()
    assert B.fibers[moved].tobytes() == whole[moved].tobytes()
    perms, refinement = bisect(B.poly, B.fibers, B.branch_flags, B.tol)
    assert np.array_equal(B.edge_perms, perms) and B.refinement == refinement


def test_a_cubic_swap_decides_as_the_built_pullback():
    # at degree 3 the continuation solve of the pullback can differ from the
    # source's in the last bits; the decision cannot
    base = make_torus2(33, 33)
    p = poly_from_exprs(base, ["-exp(1i*theta1)", "0", "0"])
    swap = sample_selfmap(base, ("theta2", "theta1"))
    problem = lift_problem(p, swap)
    built = LiftProblem(problem.source, pullback(p, swap))
    assert not problem.target.refinement and not built.target.refinement
    assert np.array_equal(problem.target.edge_perms, built.target.edge_perms)
    assert decide_lift(problem).answer == decide_lift(built).answer == "no"
    assert problem.solution_count() == built.solution_count()


def test_lift_problem_matches_reference_on_random_instances():
    import sys
    sys.path.insert(0, "tests")
    from instancegen import (random_admissible_poly, random_circle_selfmap,
                             random_interval_selfmap)

    rng = np.random.default_rng(55)
    interval = make_interval(201)
    circle = make_circle(120)
    for _ in range(4):
        p = random_admissible_poly(interval, int(rng.integers(2, 5)), rng)
        _check_against_reference(lift_problem(p, random_interval_selfmap(interval, rng)))
        q = random_admissible_poly(circle, int(rng.integers(2, 4)), rng)
        _check_against_reference(lift_problem(q, random_circle_selfmap(circle, rng)))


def test_lift_problem_matches_reference_on_torus_swap():
    swap, ident = _torus_swap_problems()
    for problem in (swap, ident):
        _check_against_reference(problem)
    assert len(swap.cotree) == 4097                  # E - S + 1 on the 64x64 grid
    assert len(swap.loop_pairs) == 3
    assert len(ident.loop_pairs) == 2
    verdict = decide_lift(swap)
    assert verdict.answer == "no"
    assert verdict.certificate["kind"] == "csp_exhaustion"
    assert verdict.certificate["loop_constraints"] == 4097
    assert decide_lift(ident).answer == "yes"


def test_merges_are_grouped_once_per_bundle(monkeypatch):
    # sheets 2 and 3 + sin(theta2) merge along the circle theta2 = 3 pi / 2
    base = make_torus2(64, 64)
    W = build_bundle(poly_from_roots(base, ["cos(theta1)", "2", "3+sin(theta2)"]))
    calls = []
    grouped = bundle.node_components
    monkeypatch.setattr(bundle, "node_components",
                        lambda *args: calls.append(args) or grouped(*args))
    problem = LiftProblem(W, W)
    assert decide_lift(problem).answer == "yes"
    assert len(calls) == 1
    assert problem.merge_samples == np.flatnonzero(W.branch_flags).tolist()
    assert len(problem.merge_samples) == 64


def _constant_sheets(base, degree):
    """The bundle with sheets 0, 1, ..., degree - 1, which no edge moves."""
    lower = np.poly(np.arange(degree))[1:][::-1]
    return build_bundle(poly_from_values(base, [np.full(base.n_samples, c) for c in lower]))


def _permuted(bundle, share, rng):
    """``bundle`` with a seeded random sheet permutation, never the identity,
    on each edge drawn with probability ``share``; no other edge moves a sheet."""
    ident = np.arange(bundle.degree)
    perms = np.tile(ident, (bundle.base.n_edges, 1))
    drawn = rng.random(len(perms)) < share
    perms[drawn] = rng.permuted(perms[drawn], axis=1)
    perms[drawn & (perms == ident).all(axis=1)] = np.roll(ident, 1)
    return dataclasses.replace(bundle, edge_perms=perms)


def _check_inverses(problem):
    for F, inv in ((problem.FA, problem.invFA), (problem.FB, problem.invFB)):
        T, invT = F[problem.owner], inv[problem.owner]         # every sample's row
        assert np.array_equal(np.take_along_axis(invT, T, axis=1),
                              np.broadcast_to(np.arange(T.shape[1]), T.shape))


@pytest.mark.parametrize("share", [0.0, 0.01, 1.0])
def test_lift_problem_matches_reference_on_permuted_bundles(share):
    # transports are composed only at tree steps that move a sheet; these
    # bundles move none, about 1% or all of their sheets along the edges
    rng = np.random.default_rng(int(share * 100) + 7)
    for base in (make_circle(120), make_torus2(16, 16), make_graph(1, [(0, 0), (0, 0)], 20)):
        for degree in (2, 3, 4):
            R = _constant_sheets(base, degree)
            A, B = _permuted(R, share, rng), _permuted(R, share, rng)
            for problem in (LiftProblem(A, B), LiftProblem(A, A)):
                _check_against_reference(problem)
                _check_inverses(problem)


@pytest.mark.parametrize("source", [
    pytest.param(lambda: _square_pair_problem(101)[0].source, id="interval-merges"),
    pytest.param(lambda: build_bundle(crossing_quintic(make_circle(400))), id="circle-quintic"),
    pytest.param(lambda: build_bundle(poly_from_exprs(make_torus2(16, 16),
                                                      ["-exp(1i*theta1)", "0"])), id="torus"),
    pytest.param(lambda: _permuted(_constant_sheets(make_graph(1, [(0, 0), (0, 0)], 20), 3),
                                   0.1, np.random.default_rng(5)), id="graph-permuted"),
])
def test_a_problem_on_one_bundle_shares_its_transports(source):
    A = source()
    same, twin = LiftProblem(A, A), LiftProblem(A, dataclasses.replace(A))
    assert same.FB is same.FA and same.invFB is same.invFA
    assert twin.FB is not twin.FA
    assert np.array_equal(same.owner, twin.owner)
    assert np.array_equal(same.FA, twin.FB) and np.array_equal(same.invFA, twin.invFB)
    assert ([(a.tolist(), b.tolist()) for a, b in same.loop_pairs]
            == [(a.tolist(), b.tolist()) for a, b in twin.loop_pairs])
    assert ([(s.tolist(), c.tolist()) for s, c in same.orbits]
            == [(s.tolist(), c.tolist()) for s, c in twin.orbits])
    assert ([(a, b, m.tolist()) for a, b, m in same.merge_pairs]
            == [(a, b, m.tolist()) for a, b, m in twin.merge_pairs])
    assert decide_lift(same).to_json() == decide_lift(twin).to_json()
    for problem in (same, twin):
        _check_against_reference(problem)
        _check_inverses(problem)


def test_lift_problem_matches_reference_from_a_branch_basepoint():
    # the sheets +-cos(theta) merge at theta = pi/2 and 3 pi/2, so the
    # basepoint is a merge sample and not sample 0
    base = make_circle(120)
    A = build_bundle(poly_from_roots(base, ["cos(theta)", "-cos(theta)", "2"]))
    rng = np.random.default_rng(3)
    for B in (A, _permuted(A, 0.01, rng), _permuted(A, 1.0, rng)):
        problem = LiftProblem(A, B)
        assert problem.basepoint == 30 and problem.merge_samples == [30, 90]
        _check_against_reference(problem)
        _check_inverses(problem)


def test_loop_pairs_keep_first_occurrence_with_a_moving_cotree_edge():
    # a bouquet of three loops; co-tree edges 1, 4 and 7 are the middle
    # edges of loops 1, 2 and 3.  Edge 1 swaps the sheets (P = the swap),
    # loop 2 moves nothing (Q = the identity), and in loop 3 the tree edge 6
    # swaps while the co-tree edge 7 does not (P again).  Edges 1 and 4 join
    # samples whose transports are both the identity, so only a key of its
    # own for the moving edge 1 keeps Q
    base = make_graph(1, [(0, 0), (0, 0), (0, 0)], 3)
    R = _constant_sheets(base, 2)
    perms = np.tile([0, 1], (base.n_edges, 1))
    perms[[1, 6]] = [1, 0]
    A = dataclasses.replace(R, edge_perms=perms)
    problem = LiftProblem(A, A)
    assert problem.cotree.tolist() == [1, 4, 7]
    _check_against_reference(problem)
    assert [(a.tolist(), b.tolist()) for a, b in problem.loop_pairs] == [
        ([1, 0], [1, 0]), ([0, 1], [0, 1])]


# -- one source of tolerances: the bundles ------------------------------------------


def test_deciders_use_the_tolerances_of_the_problems_bundles():
    # a fit bound this tight refuses both lifts of the flip problem, which
    # the default tolerances accept
    base = make_interval(401)
    p = interval_square_pair(base)
    tol = Tolerances(fit_jump_factor=1e-9)
    problem = lift_problem(p, flip_map(base), tol)
    ah = decide_subalgebra(problem)
    checks = cross_checks(problem)
    direct = ah_extendable(p, flip_map(base), tol)
    assert ah.answer == checks["ah_implies_cole"]["ah"].answer == direct.answer == "no"
    for verdict in (ah, direct, checks["ah_implies_cole"]["cole"],
                    checks["root_implies_ah"]["has_root"]):
        assert verdict.diagnostics["tolerances"] == tol.as_dict()
    assert decide_subalgebra(lift_problem(p, flip_map(base))).answer == "yes"


def test_lift_problem_refuses_bundles_built_with_different_tolerances():
    base = make_interval(101)
    p = interval_square_pair(base)
    with pytest.raises(ExtendError, match="different tolerances"):
        LiftProblem(build_bundle(p), pullback(p, flip_map(base), Tolerances(branch_tol=1e-7)))


def test_no_function_takes_a_tolerance_beside_a_problem_or_bundle():
    for module in (bundle, cli, closedness, extend, figures, monodromy):
        functions = [f for _, f in inspect.getmembers(module, inspect.isfunction)]
        for _, cls in inspect.getmembers(module, inspect.isclass):
            functions += [f for f in vars(cls).values() if inspect.isfunction(f)]
        for fn in functions:
            if fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters.values()
            if any(str(q.annotation) in ("LiftProblem", "RootBundle") for q in params):
                assert not {"tol", "max_lifts"} & {q.name for q in params}, fn.__qualname__


# -- decide_subalgebra draws lifts one at a time ------------------------------------


def _eager_decide_subalgebra(problem, max_lifts):
    """The decision with every lift, up to ``max_lifts + 1``, built before
    the first one is probed."""
    lifts = problem.enumerate(max_count=max_lifts + 1)
    truncated = len(lifts) > max_lifts
    lifts = lifts[:max_lifts]
    diag = extend._base_diagnostics(problem)
    diag["lift_count"] = len(lifts)
    if not lifts:
        cole = decide_lift(problem)
        return Verdict("no", certificate={"kind": "no_lift",
                                          "lift_certificate": cole.certificate},
                       diagnostics=diag)
    branch_samples = [s for s, clusters in problem.source.merge_clusters.items() if clusters]
    refusals = []
    any_inconclusive = truncated
    for k, lift in enumerate(lifts):
        reports = []
        failed = inconclusive = False
        for s in branch_samples:
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
            refusals.append({"lift": k, "stage": "divided_quotient", "reports": reports})
            continue
        fit = ah_fit(problem.source, lift.values)
        if not fit.accepted:
            refusals.append({"lift": k, "stage": "fit", "refusal": fit.refusal})
            continue
        if inconclusive:
            any_inconclusive = True
            refusals.append({"lift": k, "stage": "divided_quotient", "reports": reports})
            continue
        diag["accepted_lift"] = k
        diag["quotient_reports"] = reports
        return Verdict("yes", witness=lift, diagnostics=diag, fit=fit)
    return Verdict("inconclusive" if any_inconclusive else "no",
                   certificate={"kind": "all_lifts_refused", "refusals": refusals},
                   diagnostics=diag)


def _cycle_poly(base, d, rng):
    """(t - c)^d - exp(i(theta + phase)): one strip of winding d."""
    c = complex(*rng.uniform(-0.3, 0.3, size=2))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    coeffs = [repr(math.comb(d, k) * (-c) ** (d - k)) for k in range(d)]
    coeffs[0] = f"{coeffs[0]}-exp(1i*(theta+{phase!r}))"
    return poly_from_exprs(base, [z.replace("j", "i") for z in coeffs])


def _trivial_poly(base, d, rng):
    """d separated unit circles of roots: trivial monodromy, d^d lifts."""
    roots = [f"({3.0 * k + rng.uniform(-0.25, 0.25)!r})+exp(1i*(theta+{rng.uniform(0, 6):.6f}))"
             for k in range(d)]
    return poly_from_roots(base, roots)


def _streaming_instances():
    rng = np.random.default_rng(7)
    circle = make_circle(120)
    for d in range(2, 6):
        yield f"cycle{d}", lift_problem(_cycle_poly(circle, d, rng), half_turn_map(circle))
    small = make_circle(24)
    for d in range(2, 5):
        p = _trivial_poly(small, d, rng)
        yield f"trivial{d}", lift_problem(p, half_turn_map(small))
        # a fit bound this tight refuses every lift
        yield f"trivial{d}-refused", lift_problem(p, half_turn_map(small),
                                                  Tolerances(fit_jump_factor=1e-9))
    interval = make_interval(101)
    for k in range(4):
        p = random_admissible_poly(interval, 2 + k % 3, rng)
        yield f"random-interval{k}", lift_problem(p, random_interval_selfmap(interval, rng))
    circle = make_circle(100)
    for k in range(4):
        p = random_admissible_poly(circle, 2 + k % 3, rng)
        yield f"random-circle{k}", lift_problem(p, random_circle_selfmap(circle, rng))
    # merge constraints: a double and a triple root at x = 1/2
    for coeffs in (["-(x-0.5)^2", "0"], ["-(x-0.5)^2", "0", "0"]):
        p = poly_from_exprs(interval, coeffs)
        yield f"merge{len(coeffs)}", lift_problem(p, flip_map(interval))
    quintic = make_circle(200)
    yield "no-lift", lift_problem(crossing_quintic(quintic), half_turn_map(quintic))


@pytest.mark.parametrize("cap", [extend.MAX_LIFTS, 3])
def test_streamed_lifts_decide_as_the_eager_list(monkeypatch, cap):
    monkeypatch.setattr(extend, "MAX_LIFTS", cap)
    seen = set()
    for name, problem in _streaming_instances():
        want = _eager_decide_subalgebra(problem, cap)
        got = decide_subalgebra(problem)
        assert got.answer == want.answer, name
        assert got.certificate == want.certificate, name
        assert got.diagnostics == want.diagnostics, name
        assert (got.witness is None) == (want.witness is None), name
        if got.witness is not None:
            assert got.witness.g0 == want.witness.g0, name
        kind = got.certificate and got.certificate["kind"]
        seen.add((got.answer, kind, bool(problem.merge_pairs)))
    # every path: accepted with and without merges, no lift, all refused
    # ("inconclusive" past the cap, which every refused instance passes at 3)
    assert {("yes", None, False), ("yes", None, True)} <= seen
    assert ("no", "no_lift") in {(answer, kind) for answer, kind, _ in seen}
    refused = {answer for answer, kind, _ in seen if kind == "all_lifts_refused"}
    assert refused == ({"no", "inconclusive"} if cap > 3 else {"inconclusive"})


def test_streamed_lifts_stop_at_the_accepted_one(monkeypatch):
    drawn = []
    solutions = LiftProblem._solutions
    monkeypatch.setattr(LiftProblem, "_solutions",
                        lambda self: (drawn.append(g0) or g0 for g0 in solutions(self)))
    base = make_circle(24)
    problem = lift_problem(_trivial_poly(base, 5, np.random.default_rng(1)),
                           half_turn_map(base))
    verdict = decide_subalgebra(problem)
    assert verdict.answer == "yes"
    assert len(drawn) == verdict.diagnostics["accepted_lift"] + 1
    assert verdict.diagnostics["lift_count"] == 5 ** 5

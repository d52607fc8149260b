"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance and time budget is asserted in-place.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from instancegen import (random_admissible_poly, random_circle_selfmap, random_tree,
                         resultant_discriminant, root_discriminant, synthetic_strip_bundle)
from rootlift import (build_bundle, identity_selfmap, make_circle, make_graph,
                      make_interval, pullback)
from rootlift._kernels import residuals
from rootlift.cli import run_scenario
from rootlift.closedness import closedness_report, has_root
from rootlift.extend import (LiftProblem, ah_fit, decide_lift,
                             decide_subalgebra, divided_quotient_test,
                             lift_problem, validate_witness)
from rootlift.monodromy import loop_monodromy, strips
from rootlift.scenarios import (builtin_scenario, crossing_quintic, flip_map,
                                half_turn_map, interval_square_pair,
                                time_warp_map)


def _interval_problem(n):
    base = make_interval(n)
    p = interval_square_pair(base)
    return lift_problem(p, flip_map(base)), base


def _circle_problem(n, map_builder):
    base = make_circle(n)
    p = crossing_quintic(base)
    A = build_bundle(p)
    B = pullback(p, map_builder(base))
    return LiftProblem(A, B), base


def test_criterion_1_interval_flip_reproduction():
    start = time.perf_counter()
    problem, base = _interval_problem(2001)
    ah = decide_subalgebra(problem)
    assert ah.answer == "yes"
    cole = decide_lift(problem)
    assert cole.answer == "yes"
    lifts = problem.enumerate()
    branch = [int(s) for s in np.flatnonzero(problem.source.branch_flags)]
    near_23 = min(branch, key=lambda s: abs(base.coords[s] - 2 / 3))
    assert abs(base.coords[near_23] - 2 / 3) < 1e-3
    quotient_verdicts = [divided_quotient_test(problem, w, near_23).verdict
                         for w in lifts]
    assert "divergent" in quotient_verdicts
    fit_accepted = [ah_fit(problem.source, w.values).accepted for w in lifts]
    assert any(fit_accepted)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    for factor in (2, 4):
        prob2, _ = _interval_problem((2001 - 1) * factor + 1)
        assert decide_subalgebra(prob2).answer == "yes"
        assert decide_lift(prob2).answer == "yes"
    print(f"\nACCEPTANCE 1: PASS (interval flip: ah=yes, cole=yes, "
          f"divergent quotient at x~2/3, accepted fit; {elapsed:.2f}s; "
          f"stable at 2n, 4n)")


def test_criterion_2_circle_warp_reproduction():
    start = time.perf_counter()
    problem, base = _circle_problem(2000, time_warp_map)
    assert strips(problem.source).windings == [2, 3]
    assert strips(problem.target).windings == [2, 3]
    cole = decide_lift(problem)
    assert cole.answer == "yes"
    assert cole.diagnostics["solution_count"] == 1
    ah = decide_subalgebra(problem)
    assert ah.answer == "no"
    refusal = ah.certificate["refusals"][0]
    assert refusal["stage"] == "divided_quotient"
    rep = refusal["reports"][0]
    assert abs(base.coords[rep["sample"]] - math.pi) <= 2 * math.pi / 2000
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    for n in (4000, 8000):
        prob2, _ = _circle_problem(n, time_warp_map)
        assert strips(prob2.source).windings == [2, 3]
        v = decide_lift(prob2)
        assert v.answer == "yes" and v.diagnostics["solution_count"] == 1
        assert decide_subalgebra(prob2).answer == "no"
    print(f"\nACCEPTANCE 2: PASS (circle warp: strips 2+3 both bundles, "
          f"cole=yes with 1 lift, ah=no at theta~pi; {elapsed:.2f}s; "
          f"stable at 2n, 4n)")


def test_criterion_3_circle_rotation_reproduction():
    start = time.perf_counter()
    problem, base = _circle_problem(2000, half_turn_map)
    verdict = decide_lift(problem)
    assert verdict.answer == "no"
    cert = verdict.certificate
    # the loops leave 3 x 2 basepoint maps, and the merge at the sample
    # nearest the point -1 (theta = pi) refutes them all
    assert cert["kind"] == "csp_exhaustion"
    assert cert["orbit_choices"] == [3, 2]
    assert [abs(base.coords[s] - math.pi) <= 2 * math.pi / 2000
            for s in cert["merge_samples"]] == [True]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3: PASS (half-turn: cole=no, 3 x 2 loop-allowed maps "
          f"refuted at theta~pi; {elapsed:.2f}s)")


def test_criterion_4_torus_scenario(tmp_path):
    start = time.perf_counter()
    run_scenario(builtin_scenario("torus", 64), str(tmp_path))
    analyses = json.loads((tmp_path / "verdict.json").read_text())["analyses"]
    assert analyses["cole"]["answer"] == "no"
    assert analyses["torus_controls"]["identity_cole"]["answer"] == "yes"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4: PASS (torus 64x64: swap=no, identity=yes; "
          f"{elapsed:.2f}s)")


def test_criterion_5_strip_divisibility_oracle():
    circle = make_circle(48)
    for a in range(1, 7):
        for b in range(1, 7):
            A = synthetic_strip_bundle(circle, [a])
            B = synthetic_strip_bundle(circle, [b])
            problem = LiftProblem(A, B)
            lifts = problem.enumerate(max_count=1)
            expected = (a % b == 0)
            assert bool(lifts) == expected, (a, b)
            if lifts:
                G = lifts[0].assignments
                for s in range(circle.n_samples):
                    assert len(set(int(v) for v in G[s])) == b
    print("\nACCEPTANCE 5: PASS (36 winding pairs: lift exists iff target "
          "winding divides source winding; witnesses surject)")


def test_criterion_6_consistency_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    base = make_circle(200)
    violations = 0
    for k in range(100):
        degree = int(rng.integers(2, 5))
        p = random_admissible_poly(base, degree, rng)
        smap = random_circle_selfmap(base, rng)
        problem = lift_problem(p, smap)
        cole = decide_lift(problem)
        ah = decide_subalgebra(problem)
        if ah.answer == "yes" and cole.answer == "no":
            violations += 1
        if cole.answer == "yes":
            assert validate_witness(problem, cole.witness)["valid"]
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6: PASS (100 random instances: no case with "
          f"subalgebra-yes and surface-no; witnesses validated; "
          f"{elapsed:.1f}s)")


def test_criterion_7_identity_endomorphism_property():
    rng = np.random.default_rng(7)
    checked = 0
    for kind in ("interval", "circle"):
        for _ in range(10):
            if kind == "interval":
                base = make_interval(201)
            else:
                base = make_circle(200)
            degree = int(rng.integers(2, 4))
            p = random_admissible_poly(base, degree, rng)
            ident = identity_selfmap(base)
            problem = lift_problem(p, ident)
            cole = decide_lift(problem)
            ah = decide_subalgebra(problem)
            assert cole.answer == "yes" and ah.answer == "yes"
            fibers = problem.source.fibers
            projection = [w for w in problem.enumerate()
                          if np.array_equal(w.values, fibers)]
            assert projection
            fit = ah_fit(problem.source, projection[0].values)
            assert fit.accepted
            mask = fit.fitted_mask
            want = np.zeros(degree, dtype=complex)
            want[1] = 1.0
            err = np.max(np.abs(fit.coeffs[mask] - want[None, :]))
            assert err < 1e-8
            checked += 1
    assert checked == 20
    print("\nACCEPTANCE 7: PASS (20 identity instances: both verdicts yes, "
          "projection witness fits coordinate polynomial to < 1e-8)")


def test_criterion_8_bundle_numerics():
    # residuals
    base = make_circle(2000)
    p = crossing_quintic(base)
    A = build_bundle(p)
    res = residuals(p.coeff_values, A.fibers)
    scale = max(1.0, float(np.max(np.abs(p.coeff_values))))
    assert np.max(res) < 1e-9 * scale
    ibase = make_interval(2001)
    ip = interval_square_pair(ibase)
    IA = build_bundle(ip)
    assert np.max(residuals(ip.coeff_values, IA.fibers)) < 1e-9
    # discriminant two ways
    prod = root_discriminant(p)
    resd = resultant_discriminant(p)
    away = ~A.branch_flags
    rel = np.abs(prod - resd) / np.maximum(np.abs(prod), 1.0)
    assert np.max(rel[away]) < 1e-8
    # contractible loops on interval bases
    for n in (101, 501, 2001):
        b = build_bundle(interval_square_pair(make_interval(n)))
        walk = [(e, +1) for e in range(n - 1)] + \
               [(e, -1) for e in reversed(range(n - 1))]
        assert np.array_equal(loop_monodromy(b, walk), np.arange(2))
    print("\nACCEPTANCE 8: PASS (residuals < 1e-9, discriminant formulas "
          "agree to 1e-8 away from branches, contractible monodromy trivial)")


def test_criterion_9_closedness_suite():
    start = time.perf_counter()
    circle_graph = make_graph(1, [(0, 0)], 24)
    rep = closedness_report(circle_graph, trials=5, seed=0)
    assert not rep.algebraically_closed_verdict
    assert rep.witness_polynomial["has_root"] == "no"
    assert rep.witness_polynomial["admissible"]
    rng = np.random.default_rng(99)
    for t in range(3):
        tree = make_graph(6, random_tree(6, rng), 6)
        tree_rep = closedness_report(tree, trials=20, seed=100 + t)
        assert tree_rep.algebraically_closed_verdict
        assert all(x["has_root"] == "yes" for x in tree_rep.trials)
    eight = make_graph(1, [(0, 0), (0, 0)], 12)
    eight_rep = closedness_report(eight, trials=3, seed=7)
    assert len(eight_rep.cycle_witnesses) == 2
    assert all(w["has_root"] == "no" for w in eight_rep.cycle_witnesses)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 9: PASS (circle graph not closed with certified "
          f"witness, 3 trees x 20 trials all rooted, figure-eight gives 2 "
          f"witnesses; {elapsed:.1f}s)")


def test_criterion_10_determinism_and_exit_codes(tmp_path):
    cfg = builtin_scenario("example2", samples=400)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_scenario(cfg, str(a), seed=3, svg=True) == 0
    assert run_scenario(cfg, str(b), seed=3, svg=True) == 0
    for name in ("verdict.json", "bundle_p.csv", "bundle_pT.csv", "lift_f.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    # exit code 2: verdict contradicts the declared expectation
    bad = builtin_scenario("example3", samples=200)
    bad["expect"] = {"cole": "yes"}
    assert run_scenario(bad, str(tmp_path / "c")) == 2
    # exit code 1: invalid config / runtime error
    from rootlift.cli import main
    assert main(["run", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "d")]) == 1
    print("\nACCEPTANCE 10: PASS (byte-identical outputs for fixed seed; "
          "exit codes 0/2/1 as contracted)")

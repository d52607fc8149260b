import math

import numpy as np
import pytest

from instancegen import random_tree
from rootlift import (closedness, make_circle, make_graph, make_interval,
                      poly_from_exprs)
from rootlift._kernels import residuals
from rootlift.bundle import Tolerances
from rootlift.closedness import (closedness_report, contains_circle,
                                 cycle_witness_quadratic, has_root,
                                 random_tree_quadratic,
                                 winding_function)
from rootlift.extend import ExtendError, InadmissibleError
from rootlift.scenarios import interval_square_pair


def _winding_number(values):
    """Independent oracle: total argument increment around the cycle."""
    args = np.angle(values)
    total = 0.0
    for k in range(len(values)):
        d = args[(k + 1) % len(values)] - args[k]
        total += (d + math.pi) % (2 * math.pi) - math.pi
    return round(total / (2 * math.pi))


def test_has_root_constant_quadratic():
    base = make_circle(30)
    p = poly_from_exprs(base, ["-4+0*theta", "0"])
    v = has_root(p)
    assert v.answer == "yes"
    r = v.witness.values[:, 0]
    assert np.allclose(np.abs(r), 2.0)


def test_has_root_winding_obstruction():
    # oracle: exp(i theta) has winding 1 around 0, so no continuous sqrt
    base = make_circle(48)
    from rootlift import funcspec
    c = funcspec.evaluate(funcspec.parse("exp(1i*theta)"), base).values
    assert _winding_number(c) == 1
    p = poly_from_exprs(base, ["-exp(1i*theta)", "0"])
    assert has_root(p).answer == "no"


def test_has_root_even_winding_has_section():
    base = make_circle(48)
    p = poly_from_exprs(base, ["-exp(2i*theta)", "0"])
    v = has_root(p)
    assert v.answer == "yes"
    res = residuals(p.coeff_values, v.witness.values[:, 0][:, None])
    assert np.max(res) < 1e-9


def test_has_root_square_pair():
    base = make_interval(301)
    p = interval_square_pair(base)
    v = has_root(p)
    assert v.answer == "yes"
    assert v.diagnostics["root_residual_max"] < 1e-9


def test_has_root_residual_bound():
    base = make_circle(40)
    p = poly_from_exprs(base, ["-exp(2i*theta)", "0.5+0.5i", "0"])
    v = has_root(p)
    if v.answer == "yes":
        assert v.diagnostics["root_residual_max"] < 1e-9


def test_has_root_rejects_inadmissible():
    base = make_interval(21)
    from rootlift import poly_from_values
    p = poly_from_values(base, [np.zeros(21), np.zeros(21)])
    with pytest.raises(InadmissibleError):
        has_root(p)


def test_contains_circle_triangle():
    base = make_graph(3, [(0, 1), (1, 2), (2, 0)], 6)
    rep = contains_circle(base)
    assert rep.has_cycle and rep.witness_cycle


def test_contains_circle_path():
    base = make_graph(2, [(0, 1)], 6)
    rep = contains_circle(base)
    assert not rep.has_cycle
    assert rep.algebraically_closed_verdict


def test_contains_circle_figure_eight():
    base = make_graph(1, [(0, 0), (0, 0)], 6)
    assert contains_circle(base).has_cycle


def test_contains_circle_wrong_kind():
    with pytest.raises(ExtendError):
        contains_circle(make_interval(5))


def test_winding_function_unit_modulus_and_winding():
    base = make_graph(3, [(0, 1), (1, 2), (2, 0)], 8)
    loop = base.loop_basis[0]
    g = winding_function(base, loop)
    assert np.allclose(np.abs(g), 1.0)
    cycle_samples = base.walk_samples(loop)[:-1]
    assert _winding_number(g[cycle_samples]) == 1


def _cycle_values_one_by_one(base, loop):
    """The cycle's samples and their winding values set one sample at a
    time, the reference for the array expression."""
    samples = base.walk_samples(loop)[:-1]
    L = len(samples)
    values = np.zeros(base.n_samples, dtype=complex)
    for k, s in enumerate(samples.tolist()):
        values[s] = np.exp(2j * math.pi * k / L)
    return samples, values


@pytest.mark.parametrize("base", [
    make_graph(1, [(0, 0)], 3), make_graph(1, [(0, 0)], 997), make_graph(1, [(0, 0)], 4096),
    make_graph(2, [(0, 1), (0, 1), (0, 1)], 50),
    make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 33),
], ids=["loop3", "loop997", "loop4096", "theta50", "square-diagonal33"])
def test_winding_function_sets_the_cycle_as_one_sample_at_a_time(base):
    for loop in base.loop_basis:
        samples, want = _cycle_values_one_by_one(base, loop)
        assert winding_function(base, loop)[samples].tobytes() == want[samples].tobytes()


def test_cycle_witness_quadratic_has_no_root():
    base = make_graph(1, [(0, 0)], 20)
    w = cycle_witness_quadratic(base, base.loop_basis[0])
    assert w["admissible"]
    assert w["has_root"] == "no"


def test_closedness_circle_graph():
    base = make_graph(1, [(0, 0)], 24)
    rep = closedness_report(base, trials=3, seed=0)
    assert not rep.algebraically_closed_verdict
    assert rep.witness_polynomial["has_root"] == "no"
    assert rep.witness_polynomial["transplanted_rotation"]["cole"] == "no"


def test_closedness_tree_all_roots():
    rng = np.random.default_rng(4)
    base = make_graph(5, random_tree(5, rng), 6)
    rep = closedness_report(base, trials=10, seed=4)
    assert rep.algebraically_closed_verdict
    assert all(t["has_root"] == "yes" for t in rep.trials)
    assert all(t["residual"] < 1e-9 for t in rep.trials)


def test_closedness_figure_eight_two_witnesses():
    base = make_graph(1, [(0, 0), (0, 0)], 10)
    rep = closedness_report(base, trials=3, seed=5)
    assert not rep.algebraically_closed_verdict
    assert len(rep.cycle_witnesses) == 2
    assert all(w["has_root"] == "no" for w in rep.cycle_witnesses)


def test_tree_quadratics_always_have_roots():
    rng = np.random.default_rng(9)
    base = make_graph(4, random_tree(4, rng), 5)
    for _ in range(5):
        p = random_tree_quadratic(base, rng)
        assert has_root(p).answer == "yes"


def test_tree_draws_use_the_given_admissibility_tolerance():
    # at this branch tolerance the default filter accepts draws that has_root
    # rejects as inadmissible
    base = make_graph(4, [(0, 1), (1, 2), (1, 3)], 8)
    tol = Tolerances(branch_tol=1.0)
    rng = np.random.default_rng(0)
    draws = [random_tree_quadratic(base, rng) for _ in range(20)]
    with pytest.raises(InadmissibleError):
        for p in draws:
            has_root(p, tol)
    rep = closedness_report(base, tol=tol)
    assert rep.algebraically_closed_verdict
    assert len(rep.trials) == 20 and all(t["has_root"] == "yes" for t in rep.trials)


@pytest.mark.parametrize("vertices, cedges, trials",
                         [(1, [(0, 0), (0, 0)], 3), (4, [(0, 1), (1, 2), (1, 3)], 6)])
def test_each_polynomial_is_checked_for_admissibility_once(monkeypatch, vertices, cedges,
                                                           trials):
    # a figure eight (one witness quadratic per loop) and a tree (one per draw)
    checked = []
    admissible = closedness.is_admissible
    monkeypatch.setattr(closedness, "is_admissible",
                        lambda p, **kw: checked.append(p) or admissible(p, **kw))
    base = make_graph(vertices, cedges, 8)
    rep = closedness_report(base, trials=trials, seed=2)
    assert len({id(p) for p in checked}) == len(checked)
    if rep.has_cycle:
        assert len(checked) == len(base.loop_basis) == 2
        assert all(w["admissible"] for w in rep.cycle_witnesses)
    else:
        assert len(checked) >= len(rep.trials) == trials


def test_report_json_roundtrip():
    import json
    base = make_graph(2, [(0, 1)], 5)
    rep = closedness_report(base, trials=2, seed=1)
    json.dumps(rep.to_json())

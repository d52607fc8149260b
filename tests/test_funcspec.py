import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootlift import funcspec
from rootlift.base import make_circle, make_interval, make_torus2
from rootlift.funcspec import EvalError, ParseError, evaluate, parse, to_text


# r(x) = (3x-1)(3x-2)^2
R_TEXT = "(3*x-1)*(3*x-2)^2"


def _eval_at_points(expr, kind, coords):
    """``expr`` at each point of ``coords``, through the array evaluator."""
    coords = np.asarray(coords, dtype=float)
    env = funcspec.coordinate_env(kind, coords)
    return funcspec.eval_points([expr], env, len(coords))[:, 0]


def _eval_at_locations(expr, base, edges, params):
    return _eval_at_points(expr, base.kind, base.location_coordinates(edges, params))


def test_parse_and_eval_cubic_contact_at_zero():
    # hand evaluation: (-1) * (-2)^2 = -4
    expr = parse(R_TEXT)
    assert funcspec.eval_scalar(expr, {"x": 0.0}) == pytest.approx(-4.0)


def test_theta_minus_theta_is_zero():
    expr = parse("theta - theta")
    base = make_circle(16)
    assert np.allclose(evaluate(expr, base).values, 0.0)


def test_syntax_error_position_on_double_operator():
    with pytest.raises(ParseError) as err:
        parse("(3*x-1)*(3*x-2)^^2")
    assert err.value.col == 17


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError):
        parse("y+1")


def test_bad_arity_rejected():
    with pytest.raises(ParseError):
        parse("sin(x, x)")


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError):
        parse("x^1.5")
    with pytest.raises(ParseError):
        parse("x^x")


@pytest.mark.parametrize("text", ["x^1e400", "x^1e20", "x^65"])
def test_exponent_above_maximum_is_a_parse_error(text):
    # 1e400 overflows to inf; 1e20 and 65 are finite but above the maximum
    with pytest.raises(ParseError, match="from 0 to 64") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, 3)


def test_maximum_exponent_parses():
    assert parse("x^64") == funcspec.Pow(funcspec.Var("x"), 64)


def test_evaluate_constant_one():
    base = make_interval(7)
    vals = evaluate(parse("1+0i"), base).values
    assert np.allclose(vals, 1.0)


def test_evaluate_cubic_contact_on_four_samples():
    # x in {0, 1/3, 2/3, 1} -> {-4, 0, 0, 2}
    base = make_interval(4)
    vals = evaluate(parse(R_TEXT), base).values
    assert np.allclose(vals, [-4.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_evaluate_roots_of_unity():
    base = make_circle(4)
    vals = evaluate(parse("exp(1i*theta)"), base).values
    assert np.allclose(vals, [1, 1j, -1, -1j], atol=1e-12)


def test_eval_at_midpoint():
    base = make_interval(5)           # edge 1 spans [0.25, 0.5]
    val = _eval_at_locations(parse("x"), base, [1], [0.5])[0]
    assert val == pytest.approx(0.375)


def test_eval_at_cubic_contact_double_zero():
    base = make_interval(4)
    val = _eval_at_locations(parse(R_TEXT), base, [1], [1.0])[0]  # x = 2/3
    assert abs(val) < 1e-12


def test_eval_at_exp_at_pi():
    base = make_circle(8)
    edges, params = base.coordinate_locations([math.pi])
    val = _eval_at_locations(parse("exp(1i*theta)"), base, edges, params)[0]
    assert val == pytest.approx(-1.0)


def test_division_by_zero_raises():
    base = make_interval(5)
    with pytest.raises(EvalError):
        evaluate(parse("1/(x-x)"), base)


def test_off_sample_pole_on_circle_is_an_eval_error():
    with pytest.raises(EvalError, match=r"expression is not finite at \{'theta': 0\.5\}"):
        _eval_at_points(parse("1/(theta-theta)"), "circle", [0.5])


def test_off_sample_pole_on_torus_is_an_eval_error():
    with pytest.raises(EvalError,
                       match=r"expression is not finite at \{'theta1': 0\.5, 'theta2': 1\.0\}"):
        _eval_at_points(parse("1/(theta1-0.5)"), "torus2", [(0.5, 1.0)])


def test_constant_pole_is_an_eval_error():
    with pytest.raises(EvalError, match="expression is not finite"):
        funcspec.eval_scalar(parse("1/0"), {"x": 0.25})


def test_variable_base_mismatch():
    base = make_circle(5)
    with pytest.raises(EvalError):
        evaluate(parse("x+1"), base)


def test_piecewise_selects_branches():
    base = make_interval(5)
    vals = evaluate(parse("piecewise(x<=0.5,x,1-x)"), base).values
    assert np.allclose(vals, [0, 0.25, 0.5, 0.25, 0])


def test_side_takes_the_branch_beside_each_threshold():
    env = {"x": np.array([0.25, 0.5, 0.75])}
    for rel, then_side in (("<=", -1), (">=", 1)):
        expr = parse(f"piecewise(x{rel}0.5, 1, 2)")
        plain = funcspec._eval(expr, env).real.tolist()
        assert plain[1] == 1.0       # the condition holds at its threshold
        for side in (-1, 1):
            at = funcspec._eval(expr, env, {"x": side}).real.tolist()
            assert at[::2] == plain[::2]      # away from the threshold nothing moves
            assert at[1] == (1.0 if side == then_side else 2.0)
    # a side for another variable leaves the condition as written
    assert funcspec._eval(parse("piecewise(x<=0.5, 1, 2)"), env, {"theta": 1})[1] == 1.0


def test_breakpoints_list_each_variables_distinct_thresholds():
    exprs = [parse("piecewise(theta1<=3, piecewise(theta2>=-1, 1, 2), theta1)"),
             parse("piecewise(theta1>=3, sqrt(theta1), piecewise(theta1<=0.5, 0, 1))"),
             parse("theta2")]
    cuts, _ = funcspec.survey(exprs)
    assert {var: ts.tolist() for var, ts in cuts.items()} == {"theta1": [0.5, 3.0],
                                                              "theta2": [-1.0]}
    assert funcspec.survey([parse("exp(1i*x)")])[0] == {}


def test_walk_visits_every_node_parent_first():
    tree = parse("piecewise(theta2<=1, -sqrt(theta1)^2, 2/theta1)")
    assert [type(node).__name__ for node in funcspec.walk(tree)] == [
        "Piecewise", "Neg", "Pow", "Call", "Var", "Bin", "Num", "Var"]


def test_torus_two_variables():
    base = make_torus2(4, 4)
    vals = evaluate(parse("exp(1i*theta1)*exp(1i*theta2)"), base).values
    assert vals[0] == pytest.approx(1.0)


def test_evaluate_agrees_with_eval_at_on_samples():
    base = make_circle(17)
    expr = parse("sin(theta)+0.5i*cos(2*theta)")
    sampled = evaluate(expr, base).values
    values = _eval_at_locations(expr, base, *base.sample_locations())
    for s in range(base.n_samples):
        assert values[s] == sampled[s]


# -- grammar round-trip property ----------------------------------------------


def _exprs(depth):
    leaf = st.one_of(
        st.sampled_from([funcspec.Var("x")]),
        st.builds(funcspec.Num,
                  st.complex_numbers(min_magnitude=0, max_magnitude=9,
                                     allow_nan=False, allow_infinity=False)
                  .map(lambda z: complex(round(z.real, 3), round(z.imag, 3)))),
    )
    if depth <= 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(funcspec.Neg, sub),
        st.builds(funcspec.Bin, st.sampled_from("+-*/"), sub, sub),
        st.builds(funcspec.Pow, sub, st.integers(0, 4)),
        st.builds(funcspec.Call, st.sampled_from(funcspec.FUNCTIONS), sub),
        st.builds(funcspec.Piecewise, st.just("x"), st.sampled_from(["<=", ">="]),
                  st.floats(-2, 2).map(lambda v: round(v, 3)), sub, sub),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_exprs(3))
def test_print_parse_print_roundtrip(expr):
    text = to_text(expr)
    reparsed = parse(text)
    assert to_text(reparsed) == text


def test_deterministic_evaluation():
    expr = parse("exp(1i*theta)+sqrt(theta)*0.25")
    a = funcspec.eval_scalar(expr, {"theta": 1.234567})
    b = funcspec.eval_scalar(expr, {"theta": 1.234567})
    assert a == b

import json
import math

import numpy as np
import pytest

from seampde.assembly import interpolate_initial
from seampde.cli import RunConfig, resolve_problem
from seampde.errors import EvaluationError, ExpressionError
from seampde import fields
from seampde.fields import (
    BinOp,
    Call,
    Const,
    Neg,
    Var,
    parse_expression,
    problem_from_config,
    scenario,
)
from seampde.mesh import build_interval_mesh

from oracles import to_string


def test_sin_quarter_period():
    f = parse_expression("sin(4*pi*x)")
    assert f(x=0.125) == pytest.approx(1.0, abs=1e-15)


def test_s2_reaction_coefficient_at_corner():
    f = parse_expression("pi^2*(1-2*x^2*y^2)")
    assert f(x=1.0, y=1.0) == pytest.approx(-math.pi**2, rel=1e-15)


def test_product():
    f = parse_expression("x*y")
    assert f(x=0.5, y=0.5) == 0.25


def test_vectorized_evaluation():
    f = parse_expression("x^2+t")
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(f(x=x, t=1.0), [2.0, 5.0, 10.0])


def test_precedence_and_associativity():
    assert parse_expression("2+3*4")() == 14
    assert parse_expression("2*3^2")() == 18
    assert parse_expression("-3^2")() == -9  # ^ binds tighter than unary minus
    assert parse_expression("2^3^2")() == 64  # left-associative
    assert parse_expression("8-3-2")() == 3
    assert parse_expression("8/4/2")() == 1
    assert parse_expression("(2+3)*4")() == 20
    assert parse_expression("2^-1")() == 0.5


def test_syntax_error_carries_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("1+*2")
    assert err.value.position == 2


def test_unknown_identifier():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_expression("x+q")
    with pytest.raises(ExpressionError):
        parse_expression("foo(x)")


def test_empty_and_trailing():
    with pytest.raises(ExpressionError):
        parse_expression("")
    with pytest.raises(ExpressionError):
        parse_expression("1 2")


def test_division_by_zero_rejected_at_evaluation():
    # / is NumPy's divide: a zero divisor gives an infinity, which the
    # assembly's finiteness check rejects where it evaluates the field, and
    # an absorbed one, 1/(1/0) = 0, is a finite value like 1/(0^(-1))
    f = parse_expression("1/x")
    assert f(x=2.0) == 0.5
    with np.errstate(divide="ignore"):
        assert f(x=0.0) == math.inf
        np.testing.assert_array_equal(f(x=np.array([1.0, 0.0])), [1.0, math.inf])
    mesh = build_interval_mesh(2)  # one interior node, at x = 0.5
    with pytest.raises(EvaluationError, match="u0 = '1/\\(x-0.5\\)' is not finite"):
        interpolate_initial(mesh, parse_expression("1/(x-0.5)"))
    for text in ("1/(1/(x-0.5))", "1/((x-0.5)^(-1))"):
        np.testing.assert_array_equal(
            interpolate_initial(mesh, parse_expression(text)), [0.0])


def _random_ast(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Const(float(rng.integers(0, 10)) + round(rng.random(), 3))
        return Var(str(rng.choice(["x", "y", "z", "t"])))
    if roll < 0.35:
        return Neg(_random_ast(rng, depth - 1))
    if roll < 0.5:
        return Call(str(rng.choice(["sin", "cos", "exp"])), _random_ast(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    left = _random_ast(rng, depth - 1)
    right = _random_ast(rng, depth - 1)
    if op == "^":
        # keep exponents small constants so values stay finite and real
        right = Const(float(rng.integers(0, 4)))
    return BinOp(op, left, right)


def _reference_eval(node, env):
    """Direct recursive evaluator kept independent of ScalarField.__call__."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_reference_eval(node.arg, env)
    if isinstance(node, Call):
        return getattr(math, node.fn)(_reference_eval(node.arg, env))
    a = _reference_eval(node.left, env)
    b = _reference_eval(node.right, env)
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: a / b, "^": lambda: a**b}[node.op]()


def test_roundtrip_and_differential_1000_random_expressions():
    rng = np.random.default_rng(20240811)
    env = {"x": 0.37, "y": -1.2, "z": 0.85, "t": 2.0}
    checked = 0
    while checked < 1000:
        ast = _random_ast(rng, depth=4)
        try:
            expected = _reference_eval(ast, env)
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        if not math.isfinite(expected) or abs(expected) > 1e12:
            continue
        text = to_string(ast)
        reparsed = parse_expression(text)
        assert reparsed.root == ast, f"round-trip changed structure for {text!r}"
        got = reparsed(**env)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), text
        checked += 1


def test_repr_shows_the_parsed_text():
    assert repr(parse_expression("2*x^2")) == "ScalarField('2*x^2')"


def test_depends_on():
    assert parse_expression("sin(t)*x").variables == {"t", "x"}
    assert parse_expression("x*y^-x").variables == {"x", "y"}
    assert parse_expression("exp(pi)").variables == frozenset()


# --- scenarios -----------------------------------------------------------


def test_heat1d_parameters():
    s = scenario("heat1d")
    assert s.tau == 1e-4
    assert s.divisions == 99
    assert s.num_steps == 1000
    assert s.T == pytest.approx(0.1)
    assert s.u0(x=0.125) == pytest.approx(1.0)


def test_s3_tau():
    assert scenario("s3").tau == 2.5e-3


def test_s1_initial_data():
    s = scenario("s1")
    assert s.u0(x=0.5, y=0.5) == pytest.approx(0.7071067811865476)
    assert s.segment_steps == 100 and s.segment_count == 101
    assert s.num_steps == 10200


def test_f_variants():
    assert scenario("s2", "10").f() == 10.0
    assert scenario("s2", "xy").f(x=0.5, y=0.5) == 0.25
    assert scenario("s1", "0").f(x=0.3, y=0.3) == 0.0
    with pytest.raises(ValueError, match="no f variant"):
        scenario("s1", "10")


def test_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario("s9")


def test_heat3d_parameters():
    s = scenario("heat3d")
    assert s.dimension == 3
    assert s.divisions == 32
    assert s.u0(x=0.25, y=0.25, z=0.25) == pytest.approx(1.0)


def test_horizon_mismatch_rejected():
    cfg = {"dimension": 1, "alpha": ["1"], "c": "0", "f": "0", "u0": "0",
           "tau": 0.1, "T": 1.0, "m": 4, "segment_steps": 4, "segment_count": 1}
    with pytest.raises(ValueError, match="horizon mismatch"):
        problem_from_config(cfg)
    assert problem_from_config({**cfg, "T": 0.4}).T == pytest.approx(0.4)


def test_config_scenario_with_overrides():
    spec = problem_from_config({"scenario": "heat1d", "m": 9, "tau": 4e-4,
                                "n": 100, "segments": 1})
    assert spec.divisions == 9
    assert spec.num_steps == 100
    assert spec.T == pytest.approx(100 * 4e-4)


def test_integral_float_counts_become_ints():
    spec = problem_from_config({"scenario": "heat1d", "m": 9.0, "n": 100.0,
                                "segments": 2.0})
    assert (spec.divisions, spec.segment_steps, spec.segment_count) == (9, 100, 2)
    assert all(type(v) is int for v in (spec.divisions, spec.segment_steps,
                                        spec.segment_count, spec.dimension))
    assert spec == problem_from_config({"scenario": "heat1d", "m": 9, "n": 100,
                                        "segments": 2})


def test_config_unknown_key():
    with pytest.raises(ValueError, match="unknown config keys"):
        problem_from_config({"scenario": "s1", "bogus": 3})


def test_config_explicit_and_file(tmp_path):
    cfg = {
        "name": "tiny", "dimension": 2, "alpha": ["1", "1"], "c": "0",
        "f": "0", "u0": "x*y", "tau": 0.01, "T": 0.09, "m": 4,
        "segment_steps": 9, "segment_count": 1,
    }
    spec = problem_from_config(cfg)
    assert spec.u0(x=1.0, y=0.5) == 0.5
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    assert resolve_problem(RunConfig(config_path=str(path))) == spec

    with pytest.raises(ValueError, match="missing keys"):
        problem_from_config({"dimension": 1})


def test_config_explicit_without_T_derives_it():
    cfg = {
        "name": "tiny", "dimension": 2, "alpha": ["1", "1"], "c": "0",
        "f": "0", "u0": "x*y", "tau": 0.01, "m": 4,
        "segment_steps": 9, "segment_count": 1,
    }
    spec = problem_from_config(cfg)
    assert spec.T == pytest.approx(0.09)
    assert problem_from_config({**cfg, "T": 0.09}) == spec


@pytest.mark.parametrize("key,value", [
    ("c", 1), ("f", 0), ("u0", None), ("alpha", "2"), ("alpha", [2]),
    ("tau", True), ("tau", "1e-3"), ("T", "0.09"), ("T", False),
    ("name", {"a": 1}), ("name", None),
])
def test_config_value_of_the_wrong_type_names_its_key(key, value):
    cfg = {
        "name": "tiny", "dimension": 1, "alpha": ["1"], "c": "0", "f": "0",
        "u0": "x", "tau": 0.01, "T": 0.09, "m": 4, "segment_steps": 9,
        "segment_count": 1,
    }
    with pytest.raises(ValueError, match=f"^{key} must be"):
        problem_from_config({**cfg, key: value})
    if key in ("tau", "T"):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            problem_from_config({"scenario": "heat1d", key: value})


def test_scenario_names_exported():
    assert set(fields.SCENARIO_NAMES) == {"heat1d", "s1", "s2", "s3", "heat3d"}

"""Scalar coefficient fields and the built-in problem scenarios.

Fields are small arithmetic expressions over {x, y, z, t} with the
constant pi, the operators + - * / ^ (all left-associative, ^ binding
tightest, then unary minus, then * /, then + -), and the functions
sin, cos, exp. Parsed expressions evaluate vectorized over numpy
arrays, so assembly can feed whole batches of element centroids.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from seampde.errors import EvaluationError, ExpressionError

VARIABLES = ("x", "y", "z", "t")
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
CONSTANTS = {"pi": math.pi}


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


def _evaluate(node, env):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.arg, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.fn](_evaluate(node.arg, env))
    left = _evaluate(node.left, env)
    right = _evaluate(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if np.any(right == 0):
            raise EvaluationError("division by zero")
        return left / right
    return np.power(left, right)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _to_string(node, parent_prec=0, right_side=False):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_to_string(node.arg)})"
    if isinstance(node, Neg):
        text = f"-{_to_string(node.arg, 3)}"
        return f"({text})" if parent_prec > 3 else text
    prec = _PRECEDENCE[node.op]
    text = (
        f"{_to_string(node.left, prec)}{node.op}"
        f"{_to_string(node.right, prec, right_side=True)}"
    )
    # left-associative ops need parens when they appear as a right operand
    # of equal precedence; '-' and '/' need them even against themselves
    if parent_prec > prec or (right_side and parent_prec == prec):
        return f"({text})"
    return text


class ScalarField:
    """Immutable parsed expression, callable on scalars or numpy arrays."""

    def __init__(self, root, source=None):
        self.root = root
        self.source = source if source is not None else _to_string(root)

    def __call__(self, x=0.0, y=0.0, z=0.0, t=0.0):
        return _evaluate(self.root, {"x": x, "y": y, "z": z, "t": t})

    def to_string(self):
        return _to_string(self.root)

    def depends_on(self, name):
        return _mentions(self.root, name)

    def __eq__(self, other):
        return isinstance(other, ScalarField) and self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __repr__(self):
        return f"ScalarField({self.to_string()!r})"


def _mentions(node, name):
    if isinstance(node, Var):
        return node.name == name
    if isinstance(node, Neg):
        return _mentions(node.arg, name)
    if isinstance(node, Call):
        return _mentions(node.arg, name)
    if isinstance(node, BinOp):
        return _mentions(node.left, name) or _mentions(node.right, name)
    return False


# --- parser ------------------------------------------------------------


class _Parser:
    """Recursive descent over a pre-tokenized stream."""

    def __init__(self, text):
        self.text = text
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text):
        tokens = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()":
                tokens.append((ch, ch, i))
                i += 1
            elif ch.isdigit() or ch == ".":
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] in "eE" and j + 1 < n and (
                    text[j + 1].isdigit() or text[j + 1] in "+-"
                ):
                    j += 2
                    while j < n and text[j].isdigit():
                        j += 1
                try:
                    value = float(text[i:j])
                except ValueError:
                    raise ExpressionError(f"bad number {text[i:j]!r}", i) from None
                tokens.append(("num", value, i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("name", text[i:j], i))
                i = j
            else:
                raise ExpressionError(f"unexpected character {ch!r}", i)
        tokens.append(("end", None, n))
        return tokens

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind}, got {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def sum(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek()[0] == "^":
            self.take()
            # exponent may carry its own unary minus: x^-2
            if self.peek()[0] == "-":
                self.take()
                rhs = Neg(self.atom())
            else:
                rhs = self.atom()
            node = BinOp("^", node, rhs)
        return node

    def atom(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.take()
            return Const(value)
        if kind == "name":
            self.take()
            if value in CONSTANTS:
                return Const(CONSTANTS[value])
            if value in FUNCTIONS:
                self.take("(")
                arg = self.sum()
                self.take(")")
                return Call(value, arg)
            if value in VARIABLES:
                return Var(value)
            raise ExpressionError(f"unknown identifier {value!r}", offset)
        if kind == "(":
            self.take()
            node = self.sum()
            self.take(")")
            return node
        raise ExpressionError(f"unexpected token {value!r}", offset)


def parse_expression(text: str) -> ScalarField:
    """Parse an arithmetic expression into an immutable ScalarField."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    return ScalarField(_Parser(text).parse(), source=text)


# --- problem definition -------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one parabolic run.

    ``segment_steps`` is the per-segment step count n (a segment holds
    n+1 snapshot columns) and ``segment_count`` the number of segments,
    so a segment-exact run takes segment_count*(segment_steps+1) - 1
    backward-Euler steps.
    """

    name: str
    dimension: int
    alpha_diag: tuple
    c: ScalarField
    f: ScalarField
    u0: ScalarField
    T: float
    tau: float
    divisions: int
    segment_steps: int
    segment_count: int

    @property
    def num_steps(self) -> int:
        return self.segment_count * (self.segment_steps + 1) - 1

    @property
    def num_dofs(self) -> int:
        """Interior nodes of the uniform mesh, one unknown each."""
        return (self.divisions - 1) ** self.dimension

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension!r}")
        if len(self.alpha_diag) != self.dimension:
            raise ValueError(f"{len(self.alpha_diag)} diffusion entries for "
                             f"{self.dimension} axes")
        if self.divisions < 2:
            raise ValueError(f"m must be at least 2, got {self.divisions}")
        if self.segment_steps < 1 or self.segment_count < 1:
            raise ValueError(f"n = {self.segment_steps} and the segment count "
                             f"{self.segment_count} must be at least 1")
        if not (0 < self.tau < math.inf and 0 < self.T < math.inf):
            raise ValueError(f"tau = {self.tau!r} and T = {self.T!r} must be "
                             "finite and positive")
        if abs(self.num_steps * self.tau - self.T) > 1e-9 * self.T:
            raise ValueError(
                f"horizon mismatch: {self.segment_count} segments of "
                f"{self.segment_steps + 1} columns need T = "
                f"{self.num_steps * self.tau!r}, spec says T = {self.T!r}"
            )
        self._warn_if_alpha_negative()

    def with_overrides(self, m, tau, n, segments, T) -> ProblemSpec:
        """Each given value replaces its field and None keeps it; without T
        the horizon is recomputed, so it stays segment-exact."""
        tau = self.tau if tau is None else float(tau)
        n = self.segment_steps if n is None else int(n)
        segments = self.segment_count if segments is None else int(segments)
        T = (segments * (n + 1) - 1) * tau if T is None else float(T)
        return replace(self, divisions=self.divisions if m is None else int(m),
                       tau=tau, segment_steps=n, segment_count=segments, T=T)

    def _warn_if_alpha_negative(self):
        sample = np.linspace(0.0, 1.0, 9)
        grids = np.meshgrid(*([sample] * self.dimension))
        env = dict(zip("xyz", grids))
        for a in self.alpha_diag:
            if np.any(a(**env) < 0):
                warnings.warn(
                    f"diffusion coefficient {a.to_string()} is negative "
                    "somewhere on the sample grid",
                    stacklevel=3,
                )


def _spec(name, dimension, alpha, c, f, u0, tau, divisions, segment_steps,
          segment_count):
    alpha_fields = tuple(parse_expression(a) for a in alpha)
    return ProblemSpec(
        name=name,
        dimension=dimension,
        alpha_diag=alpha_fields,
        c=parse_expression(c),
        f=parse_expression(f),
        u0=parse_expression(u0),
        T=(segment_count * (segment_steps + 1) - 1) * tau,
        tau=tau,
        divisions=divisions,
        segment_steps=segment_steps,
        segment_count=segment_count,
    )


_S2_C = "pi^2*(1-2*x^2*y^2)"
_S2_U0 = "sin(pi*x)*sin(pi*y)"

# scenario name -> (allowed f variants, factory)
_SCENARIOS = {
    "heat1d": (
        ("0",),
        lambda f: _spec("heat1d", 1, ("1",), "0", f, "sin(4*pi*x)",
                        1e-4, 99, 1000, 1),
    ),
    "s1": (
        ("0", "xy"),
        lambda f: _spec("s1", 2, ("1", "1"), "1", f, "sin(pi*x*y)",
                        1e-4, 32, 100, 101),
    ),
    "s2": (
        ("0", "10", "xy"),
        lambda f: _spec("s2", 2, ("x^2", "y^2"), _S2_C, f, _S2_U0,
                        1e-4, 32, 100, 101),
    ),
    "s3": (
        ("0",),
        lambda f: _spec("s3", 2, ("x^2", "y^2"), _S2_C, f, _S2_U0,
                        2.5e-3, 32, 20, 21),
    ),
    "heat3d": (
        ("0",),
        lambda f: _spec("heat3d", 3, ("1", "1", "1"), "0", f,
                        "sin(2*pi*x)*sin(2*pi*y)*sin(2*pi*z)",
                        2.5e-3, 32, 20, 21),
    ),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario(name: str, f_variant: str | None = None) -> ProblemSpec:
    """Build one of the five registered scenarios.

    ``f_variant`` selects the source term where a scenario defines
    several ("0", "10" or "xy"); the default is the first listed.
    """
    try:
        variants, factory = _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(_SCENARIOS)}"
        ) from None
    if f_variant is None:
        f_variant = variants[0]
    f_variant = str(f_variant)
    if f_variant not in variants:
        raise ValueError(
            f"scenario {name!r} has no f variant {f_variant!r}; "
            f"available: {', '.join(variants)}"
        )
    f_expr = {"0": "0", "10": "10", "xy": "x*y"}[f_variant]
    return factory(f_expr)


def problem_from_config(config: dict) -> ProblemSpec:
    """Build a ProblemSpec from a JSON-style mapping.

    Either ``{"scenario": name, ...overrides}`` with optional keys
    m/tau/T/n/f, or a fully explicit spec with expression strings.
    """
    config = dict(config)
    if "scenario" in config:
        base = scenario(config.pop("scenario"), config.pop("f", None))
        overrides = [config.pop(key, None) for key in ("m", "tau", "n", "segments", "T")]
        if config:
            raise ValueError(f"unknown config keys: {sorted(config)}")
        return base.with_overrides(*overrides)

    required = {"dimension", "alpha", "c", "f", "u0", "T", "tau", "m",
                "segment_steps", "segment_count"}
    missing = required - set(config)
    if missing:
        raise ValueError(f"explicit problem config missing keys: {sorted(missing)}")
    return ProblemSpec(
        name=config.get("name", "custom"),
        dimension=int(config["dimension"]),
        alpha_diag=tuple(parse_expression(a) for a in config["alpha"]),
        c=parse_expression(config["c"]),
        f=parse_expression(config["f"]),
        u0=parse_expression(config["u0"]),
        T=float(config["T"]),
        tau=float(config["tau"]),
        divisions=int(config["m"]),
        segment_steps=int(config["segment_steps"]),
        segment_count=int(config["segment_count"]),
    )


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        return problem_from_config(json.load(fh))

"""Scalar coefficient fields and the built-in problem scenarios.

Fields are small arithmetic expressions over {x, y, z, t} with the
constant pi, the operators + - * / ^ (all left-associative, ^ binding
tightest, then unary minus, then * /, then + -), and the functions
sin, cos, exp. Parsed expressions evaluate vectorized over numpy
arrays, so assembly can feed whole batches of element centroids. / and ^
are NumPy's divide and power, so a division by zero gives an infinity or
a NaN, not an error.

A problem's alpha, c and u0 may use only its own axes, the first d of
x, y, z, and its f also t; a stray variable is a ValueError, not read
as 0. That every value is finite and alpha not negative is checked by
the assembly, at the points where it evaluates them.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from seampde.errors import ExpressionError

VARIABLES = ("x", "y", "z", "t")
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
CONSTANTS = {"pi": math.pi}
# binary operator -> precedence, all left-associative; unary minus binds
# between * / and ^, so -3^2 is -(3^2) and 2*-3 is 2*(-3)
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3
# operation name -> what it computes: the binary operators, unary minus
# ("neg") and the functions
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": np.divide, "^": np.power, "neg": operator.neg, **FUNCTIONS}


def _evaluate(node, env):
    """The value of a tree: a constant is its float, a variable its name and
    an operation the tuple (name, *operands)."""
    if isinstance(node, float):
        return node
    if isinstance(node, str):
        return env[node]
    return _OPERATIONS[node[0]](*[_evaluate(arg, env) for arg in node[1:]])


@dataclass(frozen=True)
class ScalarField:
    """Immutable parsed expression, the text it was parsed from and the
    frozenset of variables it uses, callable on scalars or numpy arrays;
    equal and hashed by its tree alone."""

    root: object
    source: str = field(compare=False)
    variables: frozenset = field(compare=False)

    def __call__(self, x=0.0, y=0.0, z=0.0, t=0.0):
        return _evaluate(self.root, {"x": x, "y": y, "z": z, "t": t})

    def __repr__(self):
        return f"ScalarField({self.source!r})"


# --- parser ------------------------------------------------------------


# a number (an exponent only where e is followed by a digit or sign), a name,
# an operator or parenthesis, or any other non-space character
_TOKEN = re.compile(r"\s*(?:(?P<num>[\d.]+(?:[eE][-+\d]\d*)?)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text):
    """(kind, value, offset, shown) tokens, an operator's kind being itself
    and ``shown`` how an error message names the token: its source text, or
    the end of the expression."""
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        lexeme, offset = match[kind], match.start(kind)
        if kind == "bad":
            raise ExpressionError(f"unexpected character {lexeme!r}", offset)
        value = lexeme
        if kind == "num":
            try:
                value = float(lexeme)
            except ValueError:
                raise ExpressionError(f"bad number {lexeme!r}", offset) from None
        yield lexeme if kind == "op" else kind, value, offset, repr(lexeme)
    yield "end", None, len(text), "end of expression"


def _unexpected(token):
    """The error for a token that cannot stand where it does."""
    kind, _, offset, shown = token
    what = shown if kind == "end" else f"token {shown}"
    return ExpressionError(f"unexpected {what}", offset)


class _Parser:
    """Precedence climbing over the tokens of one text: ``root`` is its
    tree and ``variables`` the set of variables it uses."""

    def __init__(self, text):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.variables = set()
        self.root = self.expression(1)
        if self.peek()[0] != "end":
            raise _unexpected(self.peek())

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind}, got {tok[3]}", tok[2])
        self.pos += 1
        return tok

    def accept(self, kind):
        """Take the next token if it is of ``kind``; whether it was."""
        taken = self.peek()[0] == kind
        self.pos += taken
        return taken

    def expression(self, floor):
        """An operand, then each binary operator of precedence at least
        ``floor`` with its right operand; an exponent is an atom, or a minus
        and an atom (x^-2)."""
        node = (("neg", self.expression(_NEG_PRECEDENCE)) if self.accept("-")
                else self.atom())
        while (op := self.peek()[0]) in _BINARY and _BINARY[op] >= floor:
            self.take()
            if op != "^":
                right = self.expression(_BINARY[op] + 1)
            else:
                right = ("neg", self.atom()) if self.accept("-") else self.atom()
            node = (op, node, right)
        return node

    def atom(self):
        token = self.take()
        kind, value, offset, _ = token
        if kind == "num":
            return value
        if kind == "(":
            return self.group()
        if kind != "name":
            raise _unexpected(token)
        if value in CONSTANTS:
            return CONSTANTS[value]
        if value in VARIABLES:
            self.variables.add(value)
            return value
        if value not in FUNCTIONS:
            raise ExpressionError(f"unknown identifier {value!r}", offset)
        self.take("(")
        return value, self.group()

    def group(self):  # the expression up to the closing parenthesis
        node = self.expression(1)
        self.take(")")
        return node


def parse_expression(text: str) -> ScalarField:
    """Parse an arithmetic expression into an immutable ScalarField."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    parser = _Parser(text)
    return ScalarField(parser.root, text, frozenset(parser.variables))


# --- problem definition -------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one parabolic run.

    ``segment_steps`` is the per-segment step count n (a segment holds
    n+1 snapshot columns) and ``segment_count`` the number of segments,
    so a segment-exact run takes segment_count*(segment_steps+1) - 1
    backward-Euler steps, and its horizon T is that many steps of tau.
    The counts are whole numbers: ints, or floats with an integral value.
    """

    name: str
    dimension: int
    alpha_diag: tuple
    c: ScalarField
    f: ScalarField
    u0: ScalarField
    tau: float
    divisions: int
    segment_steps: int
    segment_count: int

    @property
    def num_steps(self) -> int:
        return self.segment_count * (self.segment_steps + 1) - 1

    @property
    def T(self) -> float:
        return self.num_steps * self.tau

    @property
    def num_dofs(self) -> int:
        """Interior nodes of the uniform mesh, one unknown each."""
        return (self.divisions - 1) ** self.dimension

    def __post_init__(self):
        for name in ("dimension", "divisions", "segment_steps", "segment_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
                    isinstance(value, float) and value.is_integer())):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
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
        axes = VARIABLES[:self.dimension]
        for key, fields, allowed in (("alpha", self.alpha_diag, axes),
                                     ("c", [self.c], axes), ("u0", [self.u0], axes),
                                     ("f", [self.f], (*axes, "t"))):
            for field in fields:
                stray = sorted(field.variables - set(allowed))
                if stray:
                    raise ValueError(f"{key} = {field.source!r} uses {', '.join(stray)}; "
                                     f"a {self.dimension}-D problem's {key} may use "
                                     f"only {', '.join(allowed)}")


_S2 = {"dimension": 2, "alpha": ["x^2", "y^2"], "c": "pi^2*(1-2*x^2*y^2)",
       "u0": "sin(pi*x)*sin(pi*y)", "tau": 1e-4, "m": 32,
       "segment_steps": 100, "segment_count": 101}

# scenario name -> (its config keys apart from f, the f variants it allows)
_PRESETS = {
    "heat1d": ({"dimension": 1, "alpha": ["1"], "c": "0", "u0": "sin(4*pi*x)",
                "tau": 1e-4, "m": 99, "segment_steps": 1000, "segment_count": 1},
               ("0",)),
    "s1": ({**_S2, "alpha": ["1", "1"], "c": "1", "u0": "sin(pi*x*y)"}, ("0", "xy")),
    "s2": (_S2, ("0", "10", "xy")),
    "s3": ({**_S2, "tau": 2.5e-3, "segment_steps": 20, "segment_count": 21}, ("0",)),
    "heat3d": ({"dimension": 3, "alpha": ["1", "1", "1"], "c": "0",
                "u0": "sin(2*pi*x)*sin(2*pi*y)*sin(2*pi*z)", "tau": 2.5e-3,
                "m": 32, "segment_steps": 20, "segment_count": 21}, ("0",)),
}

SCENARIO_NAMES = tuple(_PRESETS)

_EXPLICIT_KEYS = {"dimension", "alpha", "c", "f", "u0", "tau", "m",
                  "segment_steps", "segment_count"}

# a scenario form's optional key -> the explicit key it sets
_SCENARIO_KEYS = {"m": "m", "tau": "tau", "n": "segment_steps",
                  "segments": "segment_count", "T": "T"}


def _typed(key, value, kind: type):
    """``value`` if it is a ``kind`` (a bool is not a number), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


def scenario(name: str, f_variant: str | None = None) -> ProblemSpec:
    """Build one of the five registered scenarios: ``problem_from_config``
    of ``{"scenario": name, "f": f_variant}``.

    ``f_variant`` selects the source term where a scenario defines
    several ("0", "10" or "xy"); the default is the first listed.
    """
    return problem_from_config({"scenario": name, "f": f_variant})


def _build(config) -> ProblemSpec:
    """Type and check an explicit config once, building its ProblemSpec; a
    given "T" must be finite, positive and within 1e-9 of the horizon that
    tau and the counts imply."""
    alpha = _typed("alpha", config["alpha"], list)
    spec = ProblemSpec(
        name=_typed("name", config.get("name", "custom"), str),
        dimension=config["dimension"],
        alpha_diag=tuple(parse_expression(_typed("alpha", a, str)) for a in alpha),
        c=parse_expression(_typed("c", config["c"], str)),
        f=parse_expression(_typed("f", config["f"], str)),
        u0=parse_expression(_typed("u0", config["u0"], str)),
        tau=float(_typed("tau", config["tau"], numbers.Real)),
        divisions=config["m"],
        segment_steps=config["segment_steps"],
        segment_count=config["segment_count"],
    )
    T = config.get("T")
    if T is not None:
        T = float(_typed("T", T, numbers.Real))
        if not 0 < T < math.inf:
            raise ValueError(f"T = {T!r} must be finite and positive")
        if abs(spec.T - T) > 1e-9 * T:
            raise ValueError(f"horizon mismatch: {spec.segment_count} segments of "
                             f"{spec.segment_steps + 1} columns need T = "
                             f"{spec.T!r}, spec says T = {T!r}")
    return spec


def problem_from_config(config: dict) -> ProblemSpec:
    """The one builder from a JSON-style mapping to a ProblemSpec. The mapping
    is ``{"scenario": name, ...}`` with optional keys f/m/tau/n/segments/T, or
    a fully explicit spec with expression strings, every key of
    ``_EXPLICIT_KEYS`` and an optional "name" and "T"; any other key is
    rejected. A scenario form becomes its preset's explicit keys with the
    variant's f and every given key merged in (None keeps the preset's), and
    ``_build`` checks the explicit mapping."""
    if "scenario" in config:
        allowed = {"scenario", "f", *_SCENARIO_KEYS}
    else:
        allowed = _EXPLICIT_KEYS | {"name", "T"}
        missing = _EXPLICIT_KEYS - set(config)
        if missing:
            raise ValueError(f"explicit problem config missing keys: {sorted(missing)}")
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "scenario" not in config:
        return _build(config)
    name = config["scenario"]
    if not isinstance(name, str) or name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"choose from {', '.join(_PRESETS)}")
    keys, variants = _PRESETS[name]
    variant = variants[0] if config.get("f") is None else str(config["f"])
    if variant not in variants:
        raise ValueError(f"scenario {name!r} has no f variant {variant!r}; "
                         f"available: {', '.join(variants)}")
    given = {_SCENARIO_KEYS[key]: value for key, value in config.items()
             if key in _SCENARIO_KEYS and value is not None}
    return _build({**keys, "name": name,
                   "f": {"0": "0", "10": "10", "xy": "x*y"}[variant], **given})

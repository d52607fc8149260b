"""Tiny expression language for coefficient functions and self-maps.

Grammar (EBNF, documented in README):

    expr      = term { ("+" | "-") term } ;
    term      = factor { ("*" | "/") factor } ;
    factor    = "-" factor | power ;
    power     = atom [ "^" UINT ] ;
    atom      = NUMBER | IMAG | VAR | FUNC "(" expr { "," expr } ")"
              | "piecewise" "(" cond "," expr "," expr ")" | "(" expr ")" ;
    cond      = VAR ("<=" | ">=") [ "-" ] NUMBER ;

Numbers are decimal with optional exponent; an ``i`` suffix makes an
imaginary literal (``1i``, ``0.5i``).  Variables are ``x`` on the
interval, ``theta`` on the circle and ``theta1``/``theta2`` on the
torus.  Functions: sin, cos, exp, sqrt (principal branch), abs.
Exponents must be integer literals from 0 to ``MAX_EXPONENT`` (64), so an
evaluation takes at most that many products.  Evaluation is pure;
the same AST and coordinate always give the bit-identical value.

One evaluator, ``_eval`` on arrays of points, produces every value: the
sampled values (:func:`evaluate`), the off-sample values that polynomial
sources and self-maps compute (:func:`eval_points`), and the one-point
wrapper :func:`eval_scalar`.  It is the reference: a point at a sample
coordinate reproduces that sample's value bit for bit, and a non-finite
value off the samples is an :class:`EvalError` that names the point.  Its
``side`` takes the branch beside a ``piecewise`` threshold, and
:func:`survey` lists the thresholds where a value can jump, and tells
whether a ``sqrt`` or a variable denominator can break one between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# each base kind with a coordinate chart, and the variable names it binds
COORDINATES = {"interval": ("x",), "circle": ("theta",), "torus2": ("theta1", "theta2")}
VARIABLES = tuple(name for names in COORDINATES.values() for name in names)
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
MAX_EXPONENT = 64


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalError(ValueError):
    pass


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class Piecewise:
    var: str
    rel: str          # "<=" or ">="
    threshold: float
    then: object
    other: object


def walk(node):
    """``node`` and every node below it, each parent before its children."""
    yield node
    for child in vars(node).values():
        if isinstance(child, (Num, Var, Neg, Bin, Pow, Call, Piecewise)):
            yield from walk(child)


# -- lexer -------------------------------------------------------------------

_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")", ","}


@dataclass(frozen=True)
class _Tok:
    kind: str          # num | imag | ident | op | cmp | end
    text: str
    value: object
    line: int
    col: int


def _lex(text):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c in _TOKEN_CHARS:
            toks.append(_Tok("op", c, c, line, col))
            i += 1
            col += 1
            continue
        if c in "<>":
            if i + 1 < n and text[i + 1] == "=":
                toks.append(_Tok("cmp", c + "=", c + "=", line, col))
                i += 2
                col += 2
                continue
            raise ParseError(f"unexpected character {c!r}", line, col)
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            value = float(text[i:j])
            if j < n and text[j] == "i":
                toks.append(_Tok("imag", text[i : j + 1], value, line, col))
                j += 1
            else:
                toks.append(_Tok("num", text[i:j], value, line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("end", "", None, line, col))
    return toks


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text):
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = Bin(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            inner = self.parse_factor()
            if isinstance(inner, Num):           # fold literal negation
                return Num(-inner.value)
            return Neg(inner)
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            tok = self.next()
            # ``not <=`` also rejects an exponent literal that overflows to inf
            if tok.kind != "num" or not tok.value <= MAX_EXPONENT or tok.value % 1:
                raise ParseError("exponent must be an integer literal from 0 to "
                                 f"{MAX_EXPONENT}", tok.line, tok.col)
            node = Pow(node, int(tok.value))
            if self.peek().kind == "op" and self.peek().text == "^":
                tok = self.peek()
                raise ParseError("repeated exponent operator", tok.line, tok.col)
        return node

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            return Num(complex(tok.value, 0.0))
        if tok.kind == "imag":
            return Num(complex(0.0, tok.value))
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind == "ident":
            name = tok.text
            if name == "piecewise":
                return self.parse_piecewise(tok)
            if name in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                closing = self.next()
                if closing.kind == "op" and closing.text == ",":
                    raise ParseError(f"{name} takes exactly one argument",
                                     closing.line, closing.col)
                if closing.kind != "op" or closing.text != ")":
                    raise ParseError("expected ')'", closing.line, closing.col)
                return Call(name, arg)
            if name in VARIABLES:
                if self.peek().kind == "op" and self.peek().text == "(":
                    raise ParseError(f"{name!r} is a variable, not a function",
                                     tok.line, tok.col)
                return Var(name)
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)

    def parse_piecewise(self, tok):
        self.expect_op("(")
        var = self.next()
        if var.kind != "ident" or var.text not in VARIABLES:
            raise ParseError("piecewise condition must start with a variable",
                             var.line, var.col)
        rel = self.next()
        if rel.kind != "cmp":
            raise ParseError("piecewise condition needs '<=' or '>='",
                             rel.line, rel.col)
        sign = 1.0
        num = self.next()
        if num.kind == "op" and num.text == "-":
            sign = -1.0
            num = self.next()
        if num.kind != "num":
            raise ParseError("piecewise threshold must be a number literal",
                             num.line, num.col)
        self.expect_op(",")
        then = self.parse_expr()
        self.expect_op(",")
        other = self.parse_expr()
        self.expect_op(")")
        return Piecewise(var.text, rel.text, sign * num.value, then, other)


def parse(text: str):
    """Parse ``text`` into an AST; raises :class:`ParseError` with position."""
    parser = _Parser(_lex(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing {tail.text!r}", tail.line, tail.col)
    return node


# -- printing ----------------------------------------------------------------


def to_text(node) -> str:
    """Canonical rendering: print -> parse -> print is the identity."""
    if isinstance(node, Num):
        v = node.value
        if v.imag == 0.0:
            return _fmt(v.real)
        if v.real == 0.0:
            return f"{_fmt(v.imag)}i"
        sign = "+" if v.imag > 0 else "-"
        return f"({_fmt(v.real)}{sign}{_fmt(abs(v.imag))}i)"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner, flips = node.operand, 1
        while isinstance(inner, Neg):            # printer mirrors parser folding
            inner = inner.operand
            flips += 1
        if isinstance(inner, Num):
            return to_text(Num(inner.value if flips % 2 == 0 else -inner.value))
        return f"(-{to_text(node.operand)})"
    if isinstance(node, Bin):
        return f"({to_text(node.lhs)}{node.op}{to_text(node.rhs)})"
    if isinstance(node, Pow):
        return f"(({to_text(node.base)})^{node.exponent})"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    if isinstance(node, Piecewise):
        thr = _fmt(node.threshold)
        return (f"piecewise({node.var}{node.rel}{thr},"
                f"{to_text(node.then)},{to_text(node.other)})")
    raise TypeError(f"not an expression node: {node!r}")


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# -- evaluation ---------------------------------------------------------------


def _eval(node, env, side=None):
    """Value of ``node`` with each variable of ``env`` bound to an array of
    points; the result is an array (or a numpy scalar, for a constant)
    that broadcasts over them.  ``side`` maps a variable to -1 or +1: where
    it equals a ``piecewise`` threshold, the branch just left or right of it."""
    if isinstance(node, Num):
        return np.complex128(node.value)
    if isinstance(node, Var):
        if node.name not in env:
            raise EvalError(f"variable {node.name!r} is not defined on this base")
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env, side)
    if isinstance(node, Bin):
        a = _eval(node.lhs, env, side)
        b = _eval(node.rhs, env, side)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    if isinstance(node, Pow):
        base = _eval(node.base, env, side)
        out = np.ones_like(base)
        for _ in range(node.exponent):
            out = out * base
        return out
    if isinstance(node, Call):
        arg = np.asarray(_eval(node.arg, env, side), dtype=complex)
        if node.func == "sin":
            return np.sin(arg)
        if node.func == "cos":
            return np.cos(arg)
        if node.func == "exp":
            return np.exp(arg)
        if node.func == "sqrt":
            return np.sqrt(arg)
        if node.func == "abs":
            return np.abs(arg)
        raise EvalError(f"unknown function {node.func!r}")
    if isinstance(node, Piecewise):
        if node.var not in env:
            raise EvalError(f"variable {node.var!r} is not defined on this base")
        v = np.real(env[node.var])
        cond = v <= node.threshold if node.rel == "<=" else v >= node.threshold
        if side and node.var in side:
            # left of a "<=" threshold and right of a ">=" one the condition holds
            cond = np.where(v == node.threshold, (side[node.var] < 0) == (node.rel == "<="), cond)
        return np.where(cond, _eval(node.then, env, side), _eval(node.other, env, side))
    raise TypeError(f"not an expression node: {node!r}")


def survey(exprs) -> tuple[dict, bool]:
    """Each variable's distinct ``piecewise`` thresholds in ``exprs``, as an
    ascending array (the only coordinates where a branch can switch), and
    whether they hold a ``sqrt`` or a ``/`` whose denominator holds a
    variable, either of which can also break a value between thresholds:
    both from one walk of each expression."""
    cuts: dict = {}
    kinks = [_survey(expr, cuts)[1] for expr in exprs]
    return {var: np.array(sorted(ts)) for var, ts in cuts.items()}, any(kinks)


def _survey(node, cuts: dict) -> tuple[bool, bool]:
    """Adds the ``piecewise`` thresholds at and below ``node`` to ``cuts``
    (variable -> set); returns whether a variable lies there, and whether a
    ``sqrt`` or a ``/`` with a variable in its denominator does."""
    if isinstance(node, Bin):
        lhs_var, lhs_kink = _survey(node.lhs, cuts)
        rhs_var, rhs_kink = _survey(node.rhs, cuts)
        return lhs_var or rhs_var, lhs_kink or rhs_kink or (node.op == "/" and rhs_var)
    if isinstance(node, Piecewise):
        cuts.setdefault(node.var, set()).add(node.threshold)
    has_var, kink = isinstance(node, Var), isinstance(node, Call) and node.func == "sqrt"
    for child in vars(node).values():
        if isinstance(child, (Num, Var, Neg, Pow, Call, Piecewise, Bin)):
            var, below = _survey(child, cuts)
            has_var, kink = has_var or var, kink or below
    return has_var, kink


def not_finite(env: dict, k: int) -> EvalError:
    """The error for a non-finite value at point ``k`` of ``env``, naming
    the point by its variables."""
    at = {name: values[k].item() for name, values in env.items()}
    return EvalError(f"expression is not finite at {at}")


def eval_points(exprs, env: dict, n: int) -> np.ndarray:
    """(n, len(exprs)) values of each expression at the ``n`` points bound
    in ``env`` (one array per variable); raises :class:`EvalError` naming
    the first point where a value is not finite."""
    values = np.column_stack([np.broadcast_to(np.asarray(_eval(e, env), dtype=complex), (n,))
                              for e in exprs])
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise not_finite(env, int(np.argmax(bad)))
    return values


def eval_scalar(node, env: dict) -> complex:
    """Evaluate at the one point ``env`` binds; raises on non-finite results."""
    points = {name: np.atleast_1d(value) for name, value in env.items()}
    return complex(eval_points([node], points, 1)[0, 0])


# -- sampled functions ---------------------------------------------------------


@dataclass
class SampledFunction:
    """A complex-valued function given by its values on a base's samples."""

    base: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if len(self.values) != self.base.n_samples:
            raise EvalError("values length differs from base sample count")
        if not np.all(np.isfinite(self.values)):
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise EvalError(f"non-finite value at sample {bad}")


def coordinate_env(kind: str, coords) -> dict:
    """The variables of base kind ``kind`` bound to an array of points,
    shape (K,) or, on torus2, (K, 2).  Raises :class:`EvalError` for a
    kind without coordinates.
    """
    names = COORDINATES.get(kind)
    if names is None:
        raise EvalError(f"expressions take no variables on base kind {kind!r}; "
                        "supply sampled values directly")
    if len(names) == 1:
        return {names[0]: coords}
    return dict(zip(names, np.moveaxis(coords, -1, 0)))   # one array per coordinate


def evaluate(expr, base) -> SampledFunction:
    """Evaluate an expression at every sample of ``base``."""
    env = coordinate_env(base.kind, np.asarray(base.coords))
    values = np.broadcast_to(np.asarray(_eval(expr, env), dtype=complex),
                             (base.n_samples,)).copy()
    return SampledFunction(base, values)

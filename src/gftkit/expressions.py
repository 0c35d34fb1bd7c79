"""One-variable complex expression trees: parsing, jet and Taylor-series
evaluation, symbolic differentiation, and printable round-trip form.

Grammar (lowest to highest precedence)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | factor
    factor := base ("^" ["-"] realnum)?
    base   := "(" expr ")" | func "(" expr ")" | realnum | "i" | "pi" | var

with func in FUNCTION_NAMES = {sin, cos, tan, cot, exp, log, sqrt}.  Powers
take literal real exponents only.  The variable name defaults to ``z``;
coefficient functions on [0,1) reuse the same grammar with variable ``x``.

The trees, the parser and the map algebra need no numpy; a map's
evaluators are compiled by ``compiler``, which is imported when a map is
first evaluated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import DegenerateMobius, EvaluationFailed, ExprSyntaxError

_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5

# the functions the grammar knows; jets.OUTER holds the chain rule of each
FUNCTION_NAMES = frozenset({"sin", "cos", "tan", "cot", "exp", "log", "sqrt"})


# -- nodes ----------------------------------------------------------------


@dataclass(frozen=True)
class _Const:
    value: complex

    def diff(self):
        return _Const(0.0)

    def fmt(self, parent):
        c = complex(self.value)
        if c.imag == 0.0:
            text, prec = _fmt_real(c.real)
        elif c.real == 0.0:
            body = "i" if abs(c.imag) == 1.0 else f"{_fmt_real(abs(c.imag))[0]}*i"
            text = f"-{body}" if c.imag < 0 else body
            prec = _UNARY if c.imag < 0 else _MUL
        else:
            sign = "-" if c.imag < 0 else "+"
            im = abs(c.imag)
            imtext = "i" if im == 1.0 else f"{_fmt_real(im)[0]}*i"
            text, prec = f"({_fmt_real(c.real)[0]}{sign}{imtext})", _ATOM
        return f"({text})" if parent > prec else text


def _fmt_real(x: float):
    if x < 0:
        return f"-{_fmt_real(-x)[0]}", _UNARY
    if x == math.pi:
        return "pi", _ATOM
    return (str(int(x)) if float(x).is_integer() and abs(x) < 1e16 else repr(float(x)), _ATOM)


@dataclass(frozen=True)
class _Var:
    def diff(self):
        return _Const(1.0)

    def fmt(self, parent):
        return "z"  # placeholder; FunctionExpr rewrites the variable name


@dataclass(frozen=True)
class _Bin:
    left: object
    right: object

    OP = "?"
    PREC = _ADD

    def fmt(self, parent):
        text = f"{self.left.fmt(self.PREC)}{self.OP}{self.right.fmt(self.PREC + 1)}"
        return f"({text})" if parent > self.PREC else text


class _Add(_Bin):
    OP, PREC = "+", _ADD

    def diff(self):
        return _add(self.left.diff(), self.right.diff())


class _Sub(_Bin):
    OP, PREC = "-", _ADD

    def diff(self):
        return _sub(self.left.diff(), self.right.diff())


class _Mul(_Bin):
    OP, PREC = "*", _MUL

    def diff(self):
        return _add(_mul(self.left.diff(), self.right), _mul(self.left, self.right.diff()))


class _Div(_Bin):
    OP, PREC = "/", _MUL

    def diff(self):
        num = _sub(_mul(self.left.diff(), self.right), _mul(self.left, self.right.diff()))
        return _div(num, _mul(self.right, self.right))


@dataclass(frozen=True)
class _Neg:
    child: object

    def diff(self):
        return _neg(self.child.diff())

    def fmt(self, parent):
        text = f"-{self.child.fmt(_UNARY)}"
        return f"({text})" if parent > _UNARY else text


@dataclass(frozen=True)
class _Pow:
    child: object
    exponent: float

    def diff(self):
        c = self.exponent
        if c == 0.0:
            return _Const(0.0)
        inner = self.child.diff()
        if c == 1.0:
            return inner
        return _mul(_mul(_Const(c), _Pow(self.child, c - 1.0)), inner)

    def fmt(self, parent):
        e = self.exponent
        etext = str(int(e)) if float(e).is_integer() else repr(float(e))
        text = f"{self.child.fmt(_POW + 1)}^{etext}"
        return f"({text})" if parent > _POW else text


@dataclass(frozen=True)
class _Fun:
    name: str
    child: object

    def diff(self):
        x, dx = self.child, self.child.diff()
        if self.name == "sin":
            outer = _Fun("cos", x)
        elif self.name == "cos":
            outer = _neg(_Fun("sin", x))
        elif self.name == "exp":
            outer = self
        elif self.name == "tan":
            outer = _add(_Const(1.0), _Pow(_Fun("tan", x), 2.0))
        elif self.name == "cot":
            outer = _neg(_add(_Const(1.0), _Pow(_Fun("cot", x), 2.0)))
        elif self.name == "log":
            return _div(dx, x)
        elif self.name == "sqrt":
            return _div(dx, _mul(_Const(2.0), _Fun("sqrt", x)))
        else:  # pragma: no cover
            raise ValueError(self.name)
        return _mul(outer, dx)

    def fmt(self, parent):
        return f"{self.name}({self.child.fmt(0)})"


def _is_const(node, value=None) -> bool:
    return isinstance(node, _Const) and (value is None or node.value == value)


# Smart constructors used by diff(); they keep derivative trees readable
# without touching what the parser produced.
def _add(l, r):
    if _is_const(l, 0):
        return r
    if _is_const(r, 0):
        return l
    return _Add(l, r)


def _sub(l, r):
    if _is_const(r, 0):
        return l
    if _is_const(l, 0):
        return _neg(r)
    return _Sub(l, r)


def _mul(l, r):
    if _is_const(l, 0) or _is_const(r, 0):
        return _Const(0.0)
    if _is_const(l, 1):
        return r
    if _is_const(r, 1):
        return l
    return _Mul(l, r)


def _div(l, r):
    if _is_const(l, 0):
        return _Const(0.0)
    if _is_const(r, 1):
        return l
    return _Div(l, r)


def _neg(x):
    if isinstance(x, _Neg):
        return x.child
    if _is_const(x):
        return _Const(-x.value)
    return _Neg(x)


def _substitute(node, repl):
    """Replace the free variable by the node ``repl`` (used for z -> lam*z)."""
    if isinstance(node, _Var):
        return repl
    if isinstance(node, (_Const,)):
        return node
    if isinstance(node, _Bin):
        return type(node)(_substitute(node.left, repl), _substitute(node.right, repl))
    if isinstance(node, _Neg):
        return _Neg(_substitute(node.child, repl))
    if isinstance(node, _Pow):
        return _Pow(_substitute(node.child, repl), node.exponent)
    if isinstance(node, _Fun):
        return _Fun(node.name, _substitute(node.child, repl))
    raise TypeError(type(node))  # pragma: no cover


# -- lexer / parser --------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", at, ("number", "name", "operator")
            )
        if m.lastgroup is None:  # trailing whitespace
            break
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, variable):
        self.tokens = tokens
        self.i = 0
        self.variable = variable

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}, found {value or 'end of input'!r}", pos, (op,))
        return self.take()

    def fail(self, expected):
        kind, value, pos = self.peek()
        shown = value if value else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", pos, expected)

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {value!r}", pos, ("end of input",))
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                node = _Add(node, rhs) if value == "+" else _Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.unary()
                node = _Mul(node, rhs) if value == "*" else _Div(node, rhs)
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return _Neg(self.unary())
        return self.factor()

    def factor(self):
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            node = _Pow(node, self.exponent())
        return node

    def exponent(self):
        sign = 1.0
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            sign = -1.0
            kind, value, pos = self.peek()
        if kind != "num":
            raise ExprSyntaxError(
                f"power needs a real constant exponent, found {value or 'end of input'!r}",
                pos,
                ("number",),
            )
        self.take()
        return sign * float(value)

    def base(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return _Const(float(value))
        if kind == "op" and value == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            self.take()
            if value == self.variable:
                return _Var()
            if value in FUNCTION_NAMES:
                self.expect_op("(")
                node = self.expr()
                self.expect_op(")")
                return _Fun(value, node)
            if value == "i":
                return _Const(1j)
            if value == "pi":
                return _Const(math.pi)
            raise ExprSyntaxError(
                f"unknown name {value!r}",
                pos,
                (self.variable, "i", "pi") + tuple(sorted(FUNCTION_NAMES)),
            )
        self.fail(("number", "name", "(", "-"))


# -- public wrapper ---------------------------------------------------------


@dataclass(frozen=True)
class FunctionExpr:
    """A parsed map of one complex variable, plus sampling metadata.

    ``singular_points`` lists declared poles/branch points inside the
    closed unit disk; samplers exclude a ball of ``exclusion_radius``
    around each.  Arithmetic on FunctionExpr builds new trees, merging
    metadata, so Mobius post-composition and reciprocals stay one-liners.
    """

    root: object
    variable: str = "z"
    singular_points: tuple = ()
    exclusion_radius: float = 1e-3

    def jet(self, z, order: int = 3) -> tuple:
        """(f, f', ..., f^(order)) at one point or an array of points z, order
        0 to 3: arrays of z's shape, NaN at singular hits; one point as a
        one-element array's.  One evaluator serves every order."""
        return self._jet(z, order)

    # The evaluators are built on first use and kept for the life of the map:
    # one jet evaluator, which takes the order per call, and one series
    # evaluator.  They are not fields: equality, hash and repr ignore them.
    # The first build in a process imports the compiler, and numpy with it.
    @cached_property
    def _jet(self):
        from .compiler import _build_path

        return _build_path(self.root, "array")

    @cached_property
    def series(self):
        """The series evaluator: (x0, n) -> the complex Taylor coefficients
        of the map about the real point x0 through order n."""
        from .compiler import _build_path

        return _build_path(self.root, "series")

    def __getstate__(self):
        # the evaluators are closures; a copy rebuilds them on first use
        return {k: v for k, v in self.__dict__.items() if k not in ("_jet", "series")}

    def value(self, z):
        return self.jet(z, 0)[0]

    def derivative(self) -> "FunctionExpr":
        return replace(self, root=self.root.diff())

    def __str__(self):
        text = self.root.fmt(0)
        return text if self.variable == "z" else text.replace("z", self.variable)

    def __repr__(self):
        return f"FunctionExpr({str(self)!r})"

    # metadata-merging algebra; scalars promote to constants
    def _combine(self, other, ctor, swap=False):
        o = other if isinstance(other, FunctionExpr) else const_expr(other, self.variable)
        if o.variable != self.variable:
            raise ValueError("mixed variables in expression algebra")
        l, r = (o.root, self.root) if swap else (self.root, o.root)
        return FunctionExpr(
            ctor(l, r),
            self.variable,
            tuple(dict.fromkeys(self.singular_points + o.singular_points)),
            max(self.exclusion_radius, o.exclusion_radius),
        )

    def __add__(self, other):
        return self._combine(other, _Add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, _Sub)

    def __rsub__(self, other):
        return self._combine(other, _Sub, swap=True)

    def __mul__(self, other):
        return self._combine(other, _Mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, _Div)

    def __rtruediv__(self, other):
        return self._combine(other, _Div, swap=True)

    def __neg__(self):
        return replace(self, root=_Neg(self.root))


def parse(text: str, variable: str = "z", singular_points=(), exclusion_radius: float = 1e-3) -> FunctionExpr:
    """Parse expression text into a FunctionExpr; raises ExprSyntaxError
    with the offset and the expected-token set on malformed input."""
    root = _Parser(_tokenize(text), variable).parse()
    return FunctionExpr(
        root, variable, tuple(complex(s) for s in singular_points), float(exclusion_radius)
    )


def var_expr(variable: str = "z") -> FunctionExpr:
    return FunctionExpr(_Var(), variable)


def const_expr(c, variable: str = "z") -> FunctionExpr:
    return FunctionExpr(_Const(complex(c)), variable)


def eval_jet(f: FunctionExpr, z) -> tuple:
    """(f, f', f'', f''') at z (a point or an array), as ``f.jet(z)`` gives it."""
    return f.jet(z)


def scale_variable(f: FunctionExpr, lam: complex) -> FunctionExpr:
    """The map z -> f(lam * z), by substitution into the tree."""
    lam = complex(lam)
    new_root = _substitute(f.root, _mul(_Const(lam), _Var()))
    moved = tuple(s / lam for s in f.singular_points if lam != 0)
    return replace(f, root=new_root, singular_points=moved)


def compose_mobius(f: FunctionExpr, a, b, c, d) -> FunctionExpr:
    """(a*f + b) / (c*f + d); refuses ad - bc = 0."""
    if abs(complex(a) * complex(d) - complex(b) * complex(c)) < 1e-13:
        raise DegenerateMobius(f"ad - bc = 0 for coefficients {(a, b, c, d)}")
    return (a * f + b) / (c * f + d)


@dataclass(frozen=True)
class LaurentProbe:
    """Result of probing for the normalized simple-pole form 1/z + a0 + ..."""

    is_b_form: bool
    pole_coefficient: complex
    higher_pole_coefficient: complex
    a0_estimate: complex
    probe_radius: float


def laurent_b_check(f: FunctionExpr, probe_radius: float = 0.05, n_points: int = 64,
                    tol: float = 1e-6) -> LaurentProbe:
    """Check f = 1/z + a0 + a1 z + ... by discrete contour coefficients.

    Uniform circle averages of z^(m+1) f(z) isolate the Laurent
    coefficient a_m up to an O(r^n_points) alias, negligible at the
    default radius.
    """
    import numpy as np  # the only numpy use here; the parser and the algebra need none

    k = np.arange(n_points)
    zs = probe_radius * np.exp(2j * np.pi * k / n_points)
    w = f.value(zs)
    if not np.all(np.isfinite(w)):
        raise EvaluationFailed("probe circle hit a singularity or overflow")
    a_m1 = np.mean(zs * w)
    a_m2 = np.mean(zs * zs * w)
    a0 = np.mean(w - 1.0 / zs)
    ok = abs(a_m1 - 1.0) <= tol and abs(a_m2) <= tol * probe_radius
    return LaurentProbe(bool(ok), complex(a_m1), complex(a_m2), complex(a0), probe_radius)

"""Expression language over correspondences, classes, scalars and tuples.

Grammar (ASCII):

    expr    := add
    add     := mul { ("+" | "-") mul }
    mul     := unary { "*" unary | "@" unary }
    unary   := "-" unary | postfix
    postfix := atom { "^" INT | "^@" INT }
    atom    := "sigma" | "rho" | "pi" | "E" "(" INT "," INT ")" | "H" "^" INT
             | INT | RATIONAL | IDENT "(" args ")" | "(" expr ")"

"*" is the intersection product, "@" composition, "^" intersection power,
"^@" composition power.  Functions: t, mult, diag, deg, act, tuple, inv,
rational.  Rationals are literals q/r; division is not an operator.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_local
from .corresp import (
    Corr,
    action_on_class,
    basis,
    comp_power,
    diag_pullback,
    mult,
    rho,
    rost_projector,
    sigma,
    to_tuple,
    transpose,
)
from .endalg import EndTuple, invert, is_rational
from .splitring import ChowClass, h_power


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | INT | RATIONAL | PUNCT | EOF
    lexeme: str
    line: int
    column: int


@dataclass(frozen=True)
class Node:
    kind: str  # Add | Sub | Neg | IntersectMul | Compose | IntersectPow
    # | ComposePow | Atom | Call
    children: tuple
    value: object
    pos: tuple = field(compare=False)  # (line, column); == ignores it


class ExprSyntaxError(ValueError):
    def __init__(self, line, column, expected):
        self.line, self.column, self.expected = line, column, expected
        super().__init__(
            f"syntax error at line {line} column {column}: expected {expected}")


class EvalError(ValueError):
    def __init__(self, pos, message):
        self.line, self.column = pos
        super().__init__(
            f"eval error at line {self.line} column {self.column}: {message}")


# --- tokenizer -----------------------------------------------------------------

_SINGLE_PUNCT = "+-*@^(),"


def tokenize(src):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        start = col
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", src[i:j], line, start))
        elif ch.isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            if j + 1 < n and src[j] == "/" and src[j + 1].isdigit():
                j += 2
                while j < n and src[j].isdigit():
                    j += 1
                tokens.append(Token("RATIONAL", src[i:j], line, start))
            else:
                tokens.append(Token("INT", src[i:j], line, start))
        elif src.startswith("^@", i):
            j = i + 2
            tokens.append(Token("PUNCT", "^@", line, start))
        elif ch in _SINGLE_PUNCT:
            j = i + 1
            tokens.append(Token("PUNCT", ch, line, start))
        else:
            raise ExprSyntaxError(line, col, f"a token, not {ch!r}")
        col += j - i
        i = j
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --- parser -----------------------------------------------------------------------

_NAMES = ("sigma", "rho", "pi")
_ATOM_EXPECT = ("sigma, rho, pi, E(i,j), H^k, a number, "
                "a function call, or '('")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_punct(self, lexeme):
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.lexeme == lexeme

    def fail(self, expected):
        tok = self.peek()
        raise ExprSyntaxError(tok.line, tok.column, expected)

    def expect_punct(self, lexeme):
        if not self.at_punct(lexeme):
            self.fail(f"'{lexeme}'")
        return self.advance()

    def expect_int(self):
        if self.peek().kind != "INT":
            self.fail("INT")
        return int(self.advance().lexeme)

    def parse_expr(self):
        node = self.parse_mul()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance()
            right = self.parse_mul()
            kind = "Add" if op.lexeme == "+" else "Sub"
            node = Node(kind, (node, right), None, (op.line, op.column))
        return node

    def parse_mul(self):
        node = self.parse_unary()
        while self.at_punct("*") or self.at_punct("@"):
            op = self.advance()
            right = self.parse_unary()
            kind = "IntersectMul" if op.lexeme == "*" else "Compose"
            node = Node(kind, (node, right), None, (op.line, op.column))
        return node

    def parse_unary(self):
        if self.at_punct("-"):
            op = self.advance()
            child = self.parse_unary()
            return Node("Neg", (child,), None, (op.line, op.column))
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_atom()
        while True:
            if self.at_punct("^@"):
                op = self.advance()
                node = Node("ComposePow", (node,), self.expect_int(),
                            (op.line, op.column))
            elif self.at_punct("^"):
                op = self.advance()
                node = Node("IntersectPow", (node,), self.expect_int(),
                            (op.line, op.column))
            else:
                return node

    def parse_atom(self):
        tok = self.peek()
        pos = (tok.line, tok.column)
        if tok.kind == "INT" or tok.kind == "RATIONAL":
            self.advance()
            return Node("Atom", (), ("scalar", Fraction(tok.lexeme)), pos)
        if self.at_punct("("):
            self.advance()
            node = self.parse_expr()
            self.expect_punct(")")
            return node
        if tok.kind == "IDENT":
            if tok.lexeme in _NAMES:
                self.advance()
                return Node("Atom", (), ("name", tok.lexeme), pos)
            if tok.lexeme == "E":
                self.advance()
                self.expect_punct("(")
                i = self.expect_int()
                self.expect_punct(",")
                j = self.expect_int()
                self.expect_punct(")")
                return Node("Atom", (), ("E", i, j), pos)
            if tok.lexeme == "H":
                self.advance()
                self.expect_punct("^")
                k = self.expect_int()
                return Node("Atom", (), ("H", k), pos)
            self.advance()
            self.expect_punct("(")
            args = [self.parse_expr()]
            while self.at_punct(","):
                self.advance()
                args.append(self.parse_expr())
            self.expect_punct(")")
            return Node("Call", tuple(args), tok.lexeme, pos)
        self.fail(_ATOM_EXPECT)

    def parse_all(self):
        node = self.parse_expr()
        if self.peek().kind != "EOF":
            self.fail("an operator or end of input")
        return node


def parse(src):
    return _Parser(tokenize(src)).parse_all()


# --- printer ------------------------------------------------------------------------

_PREC = {"Add": 1, "Sub": 1, "IntersectMul": 2, "Compose": 2, "Neg": 3,
         "IntersectPow": 4, "ComposePow": 4, "Atom": 5, "Call": 5}
_OPS = {"Add": "+", "Sub": "-", "IntersectMul": "*", "Compose": "@"}


def to_source(node):
    """Render back to parseable text; parse(to_source(parse(s))) == parse(s)
    (node equality ignores source positions)."""
    def go(n, parent):
        prec = _PREC[n.kind]
        if n.kind in _OPS:
            text = (f"{go(n.children[0], prec)} {_OPS[n.kind]} "
                    f"{go(n.children[1], prec + 1)}")
        elif n.kind == "Neg":
            text = f"-{go(n.children[0], prec)}"
        elif n.kind == "IntersectPow":
            text = f"{go(n.children[0], prec)}^{n.value}"
        elif n.kind == "ComposePow":
            text = f"{go(n.children[0], prec)}^@{n.value}"
        elif n.kind == "Call":
            args = ", ".join(go(c, 0) for c in n.children)
            text = f"{n.value}({args})"
        else:  # Atom
            tag = n.value[0]
            if tag == "scalar":
                text = str(n.value[1])
            elif tag == "name":
                text = n.value[1]
            elif tag == "E":
                text = f"E({n.value[1]},{n.value[2]})"
            else:
                text = f"H^{n.value[1]}"
        return f"({text})" if prec < parent else text

    return go(node, 0)


# --- evaluator -------------------------------------------------------------------------


def value_type(v):
    if isinstance(v, Corr):
        return "correspondence"
    if isinstance(v, ChowClass):
        return "class"
    if isinstance(v, EndTuple):
        return "tuple"
    if isinstance(v, bool):
        return "boolean"
    return "scalar"


_FUNCTIONS = {"t": 1, "mult": 1, "diag": 1, "deg": 1, "act": 2, "tuple": 1,
              "inv": 1, "rational": 1}


def _scale_or_fail(value, scalar, pos, opname):
    if isinstance(value, (Corr, ChowClass, EndTuple)):
        return value.scale(scalar)
    raise EvalError(pos, f"cannot {opname} {value_type(value)} by a scalar")


def evaluate(node, params):
    p = params.p

    def rec(n):
        kind = n.kind
        if kind == "Atom":
            tag = n.value[0]
            if tag == "scalar":
                q = n.value[1]
                if not is_local(q, p):
                    raise EvalError(
                        n.pos, f"scalar {q} is not {p}-local "
                               "(denominator divisible by p)")
                return q
            if tag == "name":
                maker = {"sigma": sigma, "rho": rho, "pi": rost_projector}
                return maker[n.value[1]](params)
            if tag == "E":
                i, j = n.value[1], n.value[2]
                if not (0 <= i <= p - 1 and 0 <= j <= p - 1):
                    raise EvalError(
                        n.pos, f"E({i},{j}) outside [0, {p - 1}]^2")
                return basis(params, i, j)
            k = n.value[1]
            return h_power(params, k) if k <= p - 1 else ChowClass(params)
        if kind == "Neg":
            v = rec(n.children[0])
            if isinstance(v, Fraction):
                return -v
            if isinstance(v, (Corr, ChowClass, EndTuple)):
                return v.scale(-1)
            raise EvalError(n.pos, f"cannot negate {value_type(v)}")
        if kind in ("Add", "Sub"):
            a, b = rec(n.children[0]), rec(n.children[1])
            opname = "add" if kind == "Add" else "subtract"
            if value_type(a) != value_type(b) or isinstance(a, bool):
                raise EvalError(n.pos, f"cannot {opname} {value_type(a)} "
                                       f"and {value_type(b)}")
            return a + b if kind == "Add" else a - b
        if kind == "IntersectMul":
            a, b = rec(n.children[0]), rec(n.children[1])
            ta, tb = value_type(a), value_type(b)
            if ta == "scalar" and tb == "scalar":
                return a * b
            if ta == "scalar":
                return _scale_or_fail(b, a, n.pos, "scale")
            if tb == "scalar":
                return _scale_or_fail(a, b, n.pos, "scale")
            if ta == tb and ta in ("correspondence", "class", "tuple"):
                return a * b
            raise EvalError(n.pos, f"cannot multiply {ta} and {tb}")
        if kind == "Compose":
            a, b = rec(n.children[0]), rec(n.children[1])
            if isinstance(a, Corr) and isinstance(b, Corr):
                return a @ b  # a after b
            raise EvalError(
                n.pos, "composition requires two correspondences, got "
                       f"{value_type(a)} and {value_type(b)}")
        if kind == "IntersectPow":
            v = rec(n.children[0])
            if isinstance(v, bool):
                raise EvalError(n.pos, "cannot raise boolean to a power")
            return v ** n.value
        if kind == "ComposePow":
            v = rec(n.children[0])
            if n.value < 1:
                raise EvalError(
                    n.pos, "composition power requires an exponent >= 1")
            if isinstance(v, Corr):
                return comp_power(v, n.value)
            if isinstance(v, EndTuple):
                return v ** n.value
            raise EvalError(
                n.pos, f"composition power undefined for {value_type(v)}")
        # Call
        name = n.value
        if name not in _FUNCTIONS:
            raise EvalError(n.pos, f"unknown function {name!r}")
        if len(n.children) != _FUNCTIONS[name]:
            raise EvalError(
                n.pos, f"{name}() takes {_FUNCTIONS[name]} argument(s), "
                       f"got {len(n.children)}")
        args = [rec(c) for c in n.children]
        return _call(name, args, n)

    def _call(name, args, n):
        a = args[0]
        if name == "t":
            _need(a, Corr, n, "t", "a correspondence")
            return transpose(a)
        if name == "mult":
            _need(a, Corr, n, "mult", "a correspondence")
            return mult(a)
        if name == "diag":
            _need(a, Corr, n, "diag", "a correspondence")
            return diag_pullback(a)
        if name == "deg":
            _need(a, ChowClass, n, "deg", "a class")
            return a.degree()
        if name == "act":
            _need(a, Corr, n, "act", "a correspondence")
            k = args[1]
            if not isinstance(k, Fraction) or k.denominator != 1:
                raise EvalError(n.pos, "act() exponent must be an integer")
            try:
                return action_on_class(a, int(k))
            except ValueError as err:
                raise EvalError(n.pos, str(err)) from err
        if name == "tuple":
            _need(a, Corr, n, "tuple", "a correspondence")
            try:
                return to_tuple(a)
            except ValueError as err:
                raise EvalError(n.pos, str(err)) from err
        if name == "inv":
            _need(a, EndTuple, n, "inv", "a tuple")
            try:
                return invert(a)
            except ValueError as err:
                raise EvalError(n.pos, str(err)) from err
        # rational
        _need(a, EndTuple, n, "rational", "a tuple")
        return is_rational(a)

    def _need(value, cls, n, fname, what):
        if not isinstance(value, cls):
            raise EvalError(
                n.pos, f"{fname}() requires {what}, got {value_type(value)}")

    return rec(node)


def eval_source(src, params):
    return evaluate(parse(src), params)

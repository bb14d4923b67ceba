"""Expression language over correspondences, classes, scalars and tuples.

Grammar (ASCII):

    expr    := mul { ("+" | "-") mul }
    mul     := unary { "*" unary | "@" unary }
    unary   := "-" unary | postfix
    postfix := atom { "^" INT | "^@" INT }
    atom    := "sigma" | "rho" | "pi" | "E" "(" INT "," INT ")" | "H" "^" INT
             | INT | RATIONAL | IDENT "(" args ")" | "(" expr ")"

"*" is the intersection product, "@" composition, "^" intersection power,
"^@" composition power.  Functions: t, mult, diag, deg, act, tuple, inv,
rational.  Rationals are literals q/r; division is not an operator.
Nesting (parentheses, calls, unary minus) and the depth of the expression
tree are each at most MAX_DEPTH; deeper input is a syntax error.
"""

import operator
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_local
from .corresp import (Corr, action_on_class, basis, comp_power, diag_pullback,
                      mult, rho, rost_projector, sigma, to_tuple, transpose)
from .endalg import EndTuple, identity, invert, is_rational
from .splitring import (MAX_COEFF_BITS, ChowClass, _check_coeff_size,
                        h_power, repeated_squaring)

MAX_DEPTH = 100
_TOO_DEEP = f"at most {MAX_DEPTH} levels of nesting"
# the longest run of digits Python converts to an int; a number literal
# this long has far more than MAX_COEFF_BITS bits
MAX_LITERAL_DIGITS = 4300


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | INT | RATIONAL | PUNCT | EOF
    lexeme: str
    line: int
    column: int


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


@dataclass(frozen=True)
class Node:
    kind: str  # Atom | Call | the kind of an entry of _OPERATORS
    children: tuple
    value: object
    pos: tuple = field(compare=False)  # (line, column); == ignores it
    depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # evaluate and to_source recurse once per level
        depth = 1 + max((c.depth for c in self.children), default=0)
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(*self.pos, _TOO_DEEP)
        object.__setattr__(self, "depth", depth)


# --- value types, operators and functions --------------------------------------

# Python type -> (name, csv header, csv rows of a value, json value of a
# value).  A json value of None stands for one record per csv row.
VALUE_TYPES = {
    Corr: ("correspondence", ("i", "j", "coeff"),
           lambda v: [[i, j, str(c)] for (i, j), c in v.items()], None),
    ChowClass: ("class", ("k", "coeff"),
                lambda v: [[k, str(c)] for k, c in v.items()], None),
    EndTuple: ("tuple", ("index", "entry"),
               lambda v: list(enumerate(str(x) for x in v.entries)),
               lambda v: [str(x) for x in v.entries]),
    bool: ("boolean", ("value",), lambda v: [["true" if v else "false"]],
           bool),
    Fraction: ("scalar", ("value",), lambda v: [[str(v)]], str),
}


def value_type(v):
    return VALUE_TYPES[type(v)][0]


def _power(v, r):
    """Intersection power by repeated squaring, so no coefficient passes
    MAX_COEFF_BITS; the zeroth power is the unit."""
    if r:
        return repeated_squaring(v, r, operator.mul)
    if isinstance(v, Fraction):
        return Fraction(1)
    return identity(v.p) if isinstance(v, EndTuple) else v ** 0


def _compose_power(v, r):
    """r-fold composition; on tuples it is the entrywise power."""
    if isinstance(v, Corr):
        return comp_power(v, r)
    if isinstance(v, EndTuple):
        return _power(v, r)
    raise TypeError


# The lexeme, the node kind, the precedence (1-2 binary, 3 prefix, 4
# postfix with an INT exponent), the Python operator that evaluates it,
# and the error text for operand types it does not support.
_Op = namedtuple("_Op", "lexeme kind prec apply error")
_OPERATORS = (
    _Op("+", "Add", 1, operator.add, "cannot add {} and {}"),
    _Op("-", "Sub", 1, operator.sub, "cannot subtract {} and {}"),
    _Op("*", "IntersectMul", 2, operator.mul, "cannot multiply {} and {}"),
    _Op("@", "Compose", 2, operator.matmul,
        "composition requires two correspondences, got {} and {}"),
    _Op("-", "Neg", 3, operator.neg, "cannot negate {}"),
    _Op("^", "IntersectPow", 4, _power, "cannot raise {} to a power"),
    _Op("^@", "ComposePow", 4, _compose_power,
        "composition power undefined for {}"),
)
_KINDS = {op.kind: op for op in _OPERATORS}
_BINARY = {op.lexeme: op for op in _OPERATORS if op.prec < 3}
_POSTFIX = {op.lexeme: op for op in _OPERATORS if op.prec > 3}
_ATOM_PREC = 5


def _act(alpha, k):
    if not isinstance(k, Fraction) or k.denominator != 1:
        raise ValueError("act() exponent must be an integer")
    return action_on_class(alpha, int(k))


# name -> (number of arguments, type of the first argument, implementation).
# A ValueError of the implementation becomes an EvalError at the call.
_FUNCTIONS = {
    "t": (1, Corr, transpose),
    "mult": (1, Corr, mult),
    "diag": (1, Corr, diag_pullback),
    "deg": (1, ChowClass, ChowClass.degree),
    "act": (2, Corr, _act),
    "tuple": (1, Corr, to_tuple),
    "inv": (1, EndTuple, invert),
    "rational": (1, EndTuple, is_rational),
}

_NAMES = {"sigma": sigma, "rho": rho, "pi": rost_projector}


# --- tokenizer -----------------------------------------------------------------

# operator lexemes and grammar punctuation; none is longer than two
# characters, and a two-character one ("^@") wins over its first character
_PUNCT = {op.lexeme for op in _OPERATORS} | {"(", ")", ","}


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
        else:
            lexeme = src[i:i + 2] if src[i:i + 2] in _PUNCT else ch
            if lexeme not in _PUNCT:
                raise ExprSyntaxError(line, col, f"a token, not {ch!r}")
            j = i + len(lexeme)
            tokens.append(Token("PUNCT", lexeme, line, start))
        col += j - i
        i = j
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --- parser -----------------------------------------------------------------------

_ATOM_EXPECT = ("sigma, rho, pi, E(i,j), H^k, a number, "
                "a function call, or '('")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

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
        return self.number(self.advance(), int)

    def number(self, tok, convert):
        """convert() of the lexeme of an INT or RATIONAL token."""
        if any(len(run) > MAX_LITERAL_DIGITS for run in tok.lexeme.split("/")):
            raise EvalError((tok.line, tok.column),
                            f"value too large: a coefficient would pass "
                            f"{MAX_COEFF_BITS} bits")
        if tok.kind == "RATIONAL" and not int(tok.lexeme.split("/")[1]):
            raise EvalError((tok.line, tok.column),
                            f"division by zero in {tok.lexeme}")
        return convert(tok.lexeme)

    def parse_binary(self, level=1):
        """Binary operators of precedence >= level, left-associative."""
        node = self.parse_unary()
        while True:
            tok = self.peek()
            op = _BINARY.get(tok.lexeme)  # only PUNCT lexemes are keys
            if op is None or op.prec < level:
                return node
            self.advance()
            right = self.parse_binary(op.prec + 1)
            node = Node(op.kind, (node, right), None, (tok.line, tok.column))

    def parse_unary(self):
        if self.nesting == MAX_DEPTH:
            self.fail(_TOO_DEEP)
        self.nesting += 1
        tok = self.peek()
        if self.at_punct("-"):
            self.advance()
            node = Node("Neg", (self.parse_unary(),), None,
                        (tok.line, tok.column))
        else:
            node = self.parse_postfix()
        self.nesting -= 1
        return node

    def parse_postfix(self):
        node = self.parse_atom()
        while self.peek().lexeme in _POSTFIX:
            tok = self.advance()
            node = Node(_POSTFIX[tok.lexeme].kind, (node,),
                        self.expect_int(), (tok.line, tok.column))
        return node

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "INT" or tok.kind == "RATIONAL":
            value = ("scalar", self.number(tok, Fraction))
        elif tok.lexeme == "(":
            node = self.parse_binary()
            self.expect_punct(")")
            return node
        elif tok.kind != "IDENT":
            raise ExprSyntaxError(tok.line, tok.column, _ATOM_EXPECT)
        elif tok.lexeme in _NAMES:
            value = ("name", tok.lexeme)
        elif tok.lexeme == "E":
            self.expect_punct("(")
            i = self.expect_int()
            self.expect_punct(",")
            value = ("E", i, self.expect_int())
            self.expect_punct(")")
        elif tok.lexeme == "H":
            self.expect_punct("^")
            value = ("H", self.expect_int())
        else:
            self.expect_punct("(")
            args = [self.parse_binary()]
            while self.at_punct(","):
                self.advance()
                args.append(self.parse_binary())
            self.expect_punct(")")
            return Node("Call", tuple(args), tok.lexeme,
                        (tok.line, tok.column))
        return Node("Atom", (), value, (tok.line, tok.column))


def parse(src):
    parser = _Parser(tokenize(src))
    node = parser.parse_binary()
    if parser.peek().kind != "EOF":
        parser.fail("an operator or end of input")
    return node


# --- printer ------------------------------------------------------------------------

_ATOM_SOURCE = {"E": "E({},{})", "H": "H^{}"}  # a scalar or name prints as is


def to_source(node):
    """Render back to parseable text; parse(to_source(parse(s))) == parse(s)
    (node equality ignores source positions)."""
    def go(n, parent):
        if n.kind == "Call":
            prec = _ATOM_PREC
            text = f"{n.value}({', '.join(go(c, 0) for c in n.children)})"
        elif n.kind == "Atom":
            prec, (tag, *args) = _ATOM_PREC, n.value
            text = _ATOM_SOURCE.get(tag, "{}").format(*args)
        else:
            op = _KINDS[n.kind]
            prec = op.prec
            first = go(n.children[0], prec)
            if n.kind == "Neg":
                text = f"-{first}"
            elif n.value is None:
                text = f"{first} {op.lexeme} {go(n.children[1], prec + 1)}"
            else:
                text = f"{first}{op.lexeme}{n.value}"
        return f"({text})" if prec < parent else text

    return go(node, 0)


# --- evaluator -------------------------------------------------------------------------


def evaluate(node, params):
    p = params.p

    def rec(n):
        if n.kind == "Atom":
            value = atom(n)
        elif n.kind == "Call":
            value = call(n)
        else:
            value = operate(n)
        try:
            return _check_coeff_size(value, "value")
        except ValueError as err:
            raise EvalError(n.pos, str(err)) from err

    def operate(n):
        op = _KINDS[n.kind]
        operands = [rec(c) for c in n.children]
        if n.kind == "ComposePow" and n.value < 1:
            raise EvalError(
                n.pos, "composition power requires an exponent >= 1")
        # Python would take a boolean for the int 0 or 1
        if bool not in map(type, operands):
            exponent = () if n.value is None else (n.value,)
            try:
                return op.apply(*operands, *exponent)
            except TypeError:
                pass
            except ValueError as err:
                raise EvalError(n.pos, str(err)) from err
        types = [value_type(v) for v in operands]
        if n.kind == "IntersectMul" and "scalar" in types:  # and a boolean
            raise EvalError(n.pos, "cannot scale boolean by a scalar")
        raise EvalError(n.pos, op.error.format(*types))

    def atom(n):
        tag = n.value[0]
        if tag == "scalar":
            q = n.value[1]
            if not is_local(q, p):
                raise EvalError(
                    n.pos, f"scalar {q} is not {p}-local "
                           "(denominator divisible by p)")
            return q
        if tag == "name":
            return _NAMES[n.value[1]](params)
        if tag == "E":
            i, j = n.value[1], n.value[2]
            if not (0 <= i <= p - 1 and 0 <= j <= p - 1):
                raise EvalError(n.pos, f"E({i},{j}) outside [0, {p - 1}]^2")
            return basis(params, i, j)
        k = n.value[1]
        return h_power(params, k) if k <= p - 1 else ChowClass(params)

    def call(n):
        name = n.value
        if name not in _FUNCTIONS:
            raise EvalError(n.pos, f"unknown function {name!r}")
        arity, arg_type, impl = _FUNCTIONS[name]
        if len(n.children) != arity:
            raise EvalError(
                n.pos, f"{name}() takes {arity} argument(s), "
                       f"got {len(n.children)}")
        args = [rec(c) for c in n.children]
        if not isinstance(args[0], arg_type):
            raise EvalError(
                n.pos, f"{name}() requires a {VALUE_TYPES[arg_type][0]}, "
                       f"got {value_type(args[0])}")
        try:
            return impl(*args)
        except ValueError as err:
            raise EvalError(n.pos, str(err)) from err

    return rec(node)

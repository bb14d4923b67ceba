"""Parser, printer and evaluator for the expression language."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rostcalc.corresp import Corr, basis, rho, rost_projector, sigma
from rostcalc.endalg import EndTuple
from rostcalc.exprlang import (
    MAX_DEPTH,
    MAX_LITERAL_DIGITS,
    _PUNCT,
    EvalError,
    ExprSyntaxError,
    Token,
    evaluate,
    parse,
    to_source,
    tokenize,
)
from rostcalc.splitring import ChowClass, h_power, make_params

P32 = make_params(3, 2)
P21 = make_params(2, 1)
P52 = make_params(5, 2)


def eval_source(src, params):
    return evaluate(parse(src), params)


# --- tokenizer ---------------------------------------------------------------


def kinds(src):
    return [(t.kind, t.lexeme) for t in tokenize(src)]


def test_tokenize_basic():
    assert kinds("sigma + 2") == [
        ("IDENT", "sigma"), ("PUNCT", "+"), ("INT", "2"), ("EOF", "")]


def test_tokenize_composepow_max_munch():
    toks = tokenize("sigma^@2")
    assert [(t.kind, t.lexeme) for t in toks[:3]] == [
        ("IDENT", "sigma"), ("PUNCT", "^@"), ("INT", "2")]


def test_tokenize_caret_then_at_separated():
    # "^ @" is two tokens, not "^@"
    toks = tokenize("a ^ @ b")
    lexemes = [t.lexeme for t in toks if t.kind == "PUNCT"]
    assert lexemes == ["^", "@"]


def test_tokenize_rational():
    toks = tokenize("3/4 * 10/27")
    assert [(t.kind, t.lexeme) for t in toks if t.kind == "RATIONAL"] == [
        ("RATIONAL", "3/4"), ("RATIONAL", "10/27")]


def test_tokenize_slash_without_digits_is_error():
    with pytest.raises(ExprSyntaxError):
        tokenize("3 / 4")


def test_tokenize_columns():
    toks = tokenize("pi + E(0,1)")
    by_lex = {t.lexeme: (t.line, t.column) for t in toks if t.lexeme}
    assert by_lex["pi"] == (1, 1)
    assert by_lex["+"] == (1, 4)
    assert by_lex["E"] == (1, 6)


def test_tokenize_second_line():
    toks = tokenize("sigma +\n  rho")
    t = [t for t in toks if t.lexeme == "rho"][0]
    assert (t.line, t.column) == (2, 3)


def char_walk(src):
    """The character-by-character tokenizer the regex one replaced: the
    oracle for tokenize on ASCII input."""
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


def tokens_or_error(tokenizer, src):
    try:
        return tokenizer(src)
    except ExprSyntaxError as err:
        return (err.line, err.column, err.expected)


# grammar characters, blanks and newlines, and the stray "/", "$" and ".";
# few letters and digits, so that "_", "/" and "^@" meet them often
_GRAMMAR = "azAZ_059+-*@^(),"
_BLANKS = " \t\r\n"


@settings(max_examples=400)
@given(st.text(alphabet=_GRAMMAR + _BLANKS + "/$.", max_size=30))
def test_tokenize_matches_char_walk_on_ascii(src):
    assert tokens_or_error(tokenize, src) == tokens_or_error(char_walk, src)


@given(st.text(alphabet=_GRAMMAR + _BLANKS, max_size=20),
       st.characters(min_codepoint=128), st.text(max_size=10))
def test_first_non_ascii_character_is_a_positioned_error(prefix, ch, rest):
    line = prefix.count("\n") + 1
    column = len(prefix) - prefix.rfind("\n")
    with pytest.raises(ExprSyntaxError) as exc:
        tokenize(prefix + ch + rest)
    assert (exc.value.line, exc.value.column, exc.value.expected) == (
        line, column, f"a token, not {ch!r}")


# --- parser ------------------------------------------------------------------


def shape(src):
    """Compact structural rendering for assertions."""
    def go(n):
        if n.kind == "Atom":
            return str(n.value[1:]) if n.value[0] != "name" else n.value[1]
        if n.kind == "Call":
            return f"{n.value}[{','.join(go(c) for c in n.children)}]"
        if n.kind in ("IntersectPow", "ComposePow"):
            return f"{n.kind}({go(n.children[0])},{n.value})"
        return f"{n.kind}({','.join(go(c) for c in n.children)})"
    return go(parse(src))


def test_precedence_pow_over_mul():
    assert shape("sigma * rho^2") == "IntersectMul(sigma,IntersectPow(rho,2))"


def test_precedence_mul_over_add():
    assert shape("sigma + rho * pi") == "Add(sigma,IntersectMul(rho,pi))"


def test_precedence_neg_binds_looser_than_pow():
    assert shape("-sigma^2") == "Neg(IntersectPow(sigma,2))"


def test_parenthesized_neg_base():
    assert shape("(-sigma)^2") == "IntersectPow(Neg(sigma),2)"


def test_left_assoc_sub():
    assert shape("sigma - rho - pi") == "Sub(Sub(sigma,rho),pi)"


def test_left_assoc_compose():
    assert shape("sigma @ rho @ pi") == "Compose(Compose(sigma,rho),pi)"


def test_mixed_mul_compose_left_assoc():
    assert shape("sigma * rho @ pi") == "Compose(IntersectMul(sigma,rho),pi)"


def test_composepow_chain():
    assert (shape("sigma^2^@3")
            == "ComposePow(IntersectPow(sigma,2),3)")


def test_atoms():
    assert shape("E(1,2)") == "(1, 2)"
    assert shape("H^3") == "(3,)"
    assert shape("7") == "(Fraction(7, 1),)"
    assert shape("3/4") == "(Fraction(3, 4),)"


def test_call_two_args():
    assert shape("act(pi, 2)") == "act[pi,(Fraction(2, 1),)]"


def test_nested_calls():
    assert shape("deg(diag(pi))") == "deg[diag[pi]]"


def test_syntax_error_position_e_comma():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("E(1,")
    assert str(exc.value) == "syntax error at line 1 column 5: expected INT"
    assert (exc.value.line, exc.value.column) == (1, 5)


def test_syntax_error_missing_rparen():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("(sigma + rho")
    assert "column 13" in str(exc.value)
    assert "expected ')'" in str(exc.value)


def test_syntax_error_trailing_junk():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("sigma rho")
    assert "column 7" in str(exc.value)


def test_syntax_error_empty_input():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("")
    assert "expected sigma, rho, pi" in str(exc.value)


def test_syntax_error_h_requires_caret():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("H + 1")
    assert "expected '^'" in str(exc.value)


def test_syntax_error_pow_requires_int():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("sigma^rho")
    assert "expected INT" in str(exc.value)


def test_syntax_error_composepow_requires_int():
    with pytest.raises(ExprSyntaxError):
        parse("sigma^@")


DEEP = {
    "parens": "(" * 3000 + "sigma" + ")" * 3000,
    "negations": "-" * 3000 + "sigma",
    "sum-chain": "+".join(["sigma"] * 3000),
    "power-chain": "sigma" + "^1" * 3000,
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_syntax_error_past_max_depth(name):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(DEEP[name])
    assert exc.value.expected == f"at most {MAX_DEPTH} levels of nesting"
    # the offending token: the first '(' or '-' past the cap, or the
    # operator whose node would be one level too deep
    column = {"parens": MAX_DEPTH + 1, "negations": MAX_DEPTH + 1,
              "sum-chain": 6 * MAX_DEPTH, "power-chain": 4 + 2 * MAX_DEPTH}
    assert (exc.value.line, exc.value.column) == (1, column[name])


def test_max_depth_itself_parses():
    assert parse("(" * (MAX_DEPTH - 1) + "sigma" + ")" * (MAX_DEPTH - 1))
    assert parse("+".join(["sigma"] * MAX_DEPTH)).depth == MAX_DEPTH
    assert eval_source("-" * (MAX_DEPTH - 1) + "sigma", P32) == -sigma(P32)


# each literal slot, with the column of the literal in it
LITERAL_SLOTS = {"scalar": ("{}", 1), "numerator": ("{}/7", 1),
                 "denominator": ("7/{}", 1), "E index": ("E(0,{})", 5),
                 "H index": ("H^{}", 3), "power": ("sigma^{}", 7),
                 "composition power": ("pi^@{}", 5)}


@pytest.mark.parametrize("slot", sorted(LITERAL_SLOTS))
def test_overlong_literal_is_too_large(slot):
    template, column = LITERAL_SLOTS[slot]
    with pytest.raises(EvalError) as exc:
        parse(template.format("9" * (MAX_LITERAL_DIGITS + 1)))
    assert (exc.value.line, exc.value.column) == (1, column)
    assert str(exc.value).endswith(
        "value too large: a coefficient would pass 10000 bits")


def test_literal_at_the_digit_bound_parses():
    digits = "1" * MAX_LITERAL_DIGITS
    assert parse(f"E(0,{digits})").value == ("E", 0, int(digits))
    assert parse(f"{digits}/7").value == ("scalar", Fraction(int(digits), 7))
    # in range for the parser; the evaluator bounds the value itself
    with pytest.raises(EvalError, match="value too large"):
        eval_source(digits, P32)


def test_function_requires_parens():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("deg sigma")
    assert "expected '('" in str(exc.value)


# --- printer round trip --------------------------------------------------------------

ROUND_TRIP = [
    "sigma",
    "rho",
    "pi",
    "E(0,1)",
    "H^2",
    "5",
    "3/4",
    "-sigma",
    "--sigma",
    "sigma + rho",
    "sigma - rho - pi",
    "sigma - (rho - pi)",
    "sigma * rho + pi",
    "(sigma + rho) * pi",
    "sigma @ rho @ pi",
    "sigma @ (rho @ pi)",
    "sigma^2",
    "sigma^@3",
    "(-sigma)^2",
    "-(sigma^2)",
    "(sigma + rho)^2",
    "(sigma @ rho)^@2",
    "sigma^2^@3",
    "2 * sigma - 1/3 * rho",
    "t(sigma)",
    "mult(pi)",
    "deg(diag(pi))",
    "act(pi, 2)",
    "tuple(pi + sigma^2)",
    "inv(tuple(pi))",
    "rational(tuple(pi) - tuple(pi))",
    "E(1,0) * E(0,1) + 7 * E(1,1)",
    "H^0 + H^1 + H^2",
    "-E(1,1)^2",
    "t(sigma) + sigma",
    "sigma @ sigma^2",
]


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_round_trip(src):
    ast = parse(src)
    printed = to_source(ast)
    assert parse(printed) == ast, printed


def test_node_equality_ignores_positions():
    assert parse("sigma+rho") == parse("  sigma +\n rho")
    assert parse("sigma+rho") != parse("rho+sigma")


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_print_is_fixed_point(src):
    once = to_source(parse(src))
    assert to_source(parse(once)) == once


def test_printer_keeps_needed_parens():
    assert to_source(parse("(sigma + rho) * pi")) == "(sigma + rho) * pi"
    assert to_source(parse("sigma - (rho - pi)")) == "sigma - (rho - pi)"


def test_printer_drops_redundant_parens():
    assert to_source(parse("((sigma))")) == "sigma"
    assert to_source(parse("(sigma * rho) + pi")) == "sigma * rho + pi"


@given(st.recursive(
    st.sampled_from(["sigma", "rho", "pi", "E(1,1)", "H^1", "2", "5/7"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: f"{ab[0]} + {ab[1]}"),
        st.tuples(inner, inner).map(lambda ab: f"{ab[0]} - ({ab[1]})"),
        st.tuples(inner, inner).map(lambda ab: f"({ab[0]}) * {ab[1]}"),
        st.tuples(inner, inner).map(lambda ab: f"({ab[0]}) @ ({ab[1]})"),
        inner.map(lambda a: f"-({a})"),
        inner.map(lambda a: f"({a})^2"),
        inner.map(lambda a: f"({a})^@2"),
        inner.map(lambda a: f"t(({a}))"),
    ),
    max_leaves=12,
))
def test_round_trip_property(src):
    ast = parse(src)
    assert parse(to_source(ast)) == ast


# --- evaluator: values --------------------------------------------------------------


def test_eval_sigma_transpose_cancels():
    out = eval_source("t(sigma) + sigma", P32)
    assert isinstance(out, Corr) and out.is_zero()


def test_eval_sigma_compose_rho():
    out = eval_source("sigma @ sigma^2", P32)
    assert out == basis(P32, 0, 1) + basis(P32, 1, 0).scale(2)


def test_eval_deg_diag_pi():
    assert eval_source("deg(diag(pi))", P32) == Fraction(3)


def test_eval_scalars():
    assert eval_source("2 + 3/4", P32) == Fraction(11, 4)
    assert eval_source("-(5/7) * 14", P32) == Fraction(-10)
    assert eval_source("2^3", P32) == Fraction(8)


def test_eval_scalar_times_corr():
    out = eval_source("3 * sigma", P32)
    assert out == sigma(P32).scale(3)
    assert eval_source("sigma * 3", P32) == out


def test_eval_rho_matches_sigma_power():
    for params in (P32, P52, P21):
        assert eval_source("rho", params) == eval_source(
            f"sigma^{params.p - 1}", params)


def test_eval_pi_is_projector():
    out = eval_source("pi @ pi - pi", P52)
    assert out.is_zero()
    assert eval_source("mult(pi)", P52) == 1


def test_eval_h_atoms():
    assert eval_source("H^0", P32) == h_power(P32, 0)
    assert eval_source("H^2", P32) == h_power(P32, 2)


def test_eval_h_beyond_top_power_is_zero():
    out = eval_source("H^3", P32)
    assert isinstance(out, ChowClass) and out.is_zero()
    assert eval_source("H^100", P32).is_zero()
    # and via the ring product
    assert eval_source("H^2 * H^2", P32).is_zero()


def test_eval_class_algebra():
    out = eval_source("(H^0 + H^1)^2", P32)
    assert out == eval_source("H^0 + 2 * H^1 + H^2", P32)


def test_eval_deg_of_top_power():
    assert eval_source("deg(H^2)", P32) == P32.e
    assert eval_source("deg(H^1)", P32) == 0


def test_eval_tuple_roundtrip():
    out = eval_source("tuple(pi)", P32)
    assert isinstance(out, EndTuple)
    assert out == EndTuple(3, (Fraction(1),) * 3)


def test_eval_tuple_algebra():
    out = eval_source("tuple(pi) + tuple(pi)", P32)
    assert out == eval_source("2 * tuple(pi)", P32)
    assert eval_source("tuple(pi)^@2", P32) == eval_source(
        "tuple(pi) * tuple(pi)", P32)


def test_eval_inv():
    assert eval_source("inv(tuple(pi)) * tuple(pi)", P32) == EndTuple(
        3, (Fraction(1),) * 3)


def test_eval_rational_predicate():
    assert eval_source("rational(tuple(pi))", P32) is True
    # entries (1, 4, -5) pass the congruence test, (1, 2, 1) fail it
    good = "rational(tuple(E(0,2) + 4 * E(1,1) - 5 * E(2,0)))"
    bad = "rational(tuple(E(0,2) + 2 * E(1,1) + E(2,0)))"
    assert eval_source(good, P32) is True
    assert eval_source(bad, P32) is False


def test_eval_act():
    # sigma sends H^k |-> stuff in degree k+1 component
    out = eval_source("act(pi, 0)", P32)
    assert out == h_power(P32, 0)


def test_eval_composepow_matches_repeated_compose():
    assert eval_source("sigma^@3", P52) == eval_source(
        "sigma @ sigma @ sigma", P52)


def test_eval_e_atom():
    assert eval_source("E(1,2)", P32) == basis(P32, 1, 2)


def test_eval_intersect_pow_zero():
    assert eval_source("sigma^0", P32) == basis(P32, 0, 0)


# --- evaluator: errors --------------------------------------------------------------


def test_eval_error_e_out_of_range():
    with pytest.raises(EvalError) as exc:
        eval_source("E(0,3)", P32)
    assert "outside [0, 2]" in str(exc.value)
    assert "line 1 column 1" in str(exc.value)


def test_eval_error_position_of_subterm():
    with pytest.raises(EvalError) as exc:
        eval_source("sigma + E(5,0)", P32)
    assert "column 9" in str(exc.value)


def test_eval_error_scalar_not_local():
    with pytest.raises(EvalError) as exc:
        eval_source("1/3 * sigma", P32)
    assert "not 3-local" in str(exc.value)
    # fine at a different prime
    assert eval_source("1/3 * sigma", P52) == sigma(P52).scale(Fraction(1, 3))


def test_eval_error_add_mixed_types():
    with pytest.raises(EvalError) as exc:
        eval_source("sigma + H^1", P32)
    assert "cannot add correspondence and class" in str(exc.value)


def test_eval_error_compose_class():
    with pytest.raises(EvalError) as exc:
        eval_source("H^1 @ H^1", P32)
    assert "composition requires two correspondences" in str(exc.value)


def test_eval_error_composepow_scalar():
    with pytest.raises(EvalError):
        eval_source("2^@2", P32)


def test_eval_error_composepow_zero_exponent():
    with pytest.raises(EvalError) as exc:
        eval_source("sigma^@0", P32)
    assert ">= 1" in str(exc.value)


def test_eval_error_deg_of_corr():
    with pytest.raises(EvalError) as exc:
        eval_source("deg(sigma)", P32)
    assert "deg() requires a class" in str(exc.value)


def test_eval_error_unknown_function():
    with pytest.raises(EvalError) as exc:
        eval_source("norm(sigma)", P32)
    assert "unknown function 'norm'" in str(exc.value)


def test_eval_error_arity():
    with pytest.raises(EvalError) as exc:
        eval_source("act(pi)", P32)
    assert "takes 2 argument(s), got 1" in str(exc.value)


def test_eval_error_act_fractional_exponent():
    with pytest.raises(EvalError):
        eval_source("act(pi, 1/2)", P32)


def test_eval_error_act_out_of_range():
    with pytest.raises(EvalError):
        eval_source("act(pi, 7)", P32)


def test_eval_error_tuple_off_antidiagonal():
    with pytest.raises(EvalError):
        eval_source("tuple(E(0,0))", P32)


def test_eval_error_inv_noninvertible():
    with pytest.raises(EvalError):
        eval_source("inv(tuple(pi) - tuple(pi))", P32)


def test_eval_error_mul_class_by_corr():
    with pytest.raises(EvalError) as exc:
        eval_source("H^1 * sigma", P32)
    assert "cannot multiply class and correspondence" in str(exc.value)


def test_eval_error_negate_boolean():
    with pytest.raises(EvalError):
        eval_source("-rational(tuple(pi))", P32)


# --- whole-expression sanity at a second prime ----------------------------------------


def test_eval_rho_action_bottom_cell_p5():
    # sigma^4 has E(4,0)-coefficient +1, so it keeps the bottom cell
    out = eval_source("act(sigma^4, 0)", P52)
    assert out == h_power(P52, 0).scale(P52.e)
    # the projector acts as the identity on every cell
    assert eval_source("act(pi, 3)", P52) == h_power(P52, 3)


def test_eval_projector_identities_p5():
    assert eval_source("t(pi) - pi", P52).is_zero()
    assert eval_source("deg(diag(pi))", P52) == 5

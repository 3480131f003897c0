import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athena.errors import ParseError, SemanticError
from athena.stl import (
    And,
    AtomExpr,
    Eventually,
    Globally,
    Implies,
    Not,
    Or,
    Predicate,
    parse,
)


# Texts of the grammar with finite numbers, for the round-trip property.
# A number is written in the forms a user may write: an integer, a
# fixed-point decimal, or Python's round-trip form of any finite float.
NAMES = st.sampled_from(["x", "y", "Speed", "y5"])
NUMBERS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.floats(0.0, 1e4).map(lambda v: f"{v:.9f}"),
    st.floats(0.0, 1e300).map(repr),
)
SIGNED = st.tuples(st.sampled_from(["", "-"]), NUMBERS).map("".join)
TERMS = st.one_of(NAMES, NUMBERS, st.tuples(NUMBERS, NAMES).map(" * ".join))


@st.composite
def expr_texts(draw):
    """A channel expression: terms joined by + and -, maybe in abs()."""
    parts = draw(st.lists(TERMS, min_size=1, max_size=4))
    body = parts[0] + "".join(
        f" {draw(st.sampled_from('+-'))} {part}" for part in parts[1:]
    )
    return f"abs({body})" if draw(st.booleans()) else body


@st.composite
def intervals(draw, signed=False):
    a = draw(st.floats(-1e6 if signed else 0.0, 1e6))
    b = a + draw(st.floats(0.0, 1e6))
    return f"[{a!r},{b!r}]"


ATOMS = st.tuples(expr_texts(), st.sampled_from(["<", "<=", ">", ">="]), SIGNED).map(" ".join)
FORMULAS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        inner.map(lambda f: f"not ({f})"),
        st.tuples(inner, st.sampled_from(["and", "or", "->"]), inner).map(" ".join),
        st.tuples(inner, st.sampled_from(["and", "or", "->"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"
        ),
        st.tuples(st.sampled_from("GF"), intervals(), inner).map(
            lambda t: f"{t[0]}{t[1]} ({t[2]})"
        ),
    ),
    max_leaves=6,
)


def atom(formula):
    assert isinstance(formula, Predicate)
    return formula


class TestAtoms:
    def test_simple_predicate(self):
        f = parse("Speed < 120")
        p = atom(f)
        assert p.expr.terms == (("Speed", 1.0),)
        assert p.expr.const == 0.0
        assert p.cmp == "<"
        assert p.bound == 120.0

    def test_all_comparators(self):
        for cmp in ("<", "<=", ">", ">="):
            p = atom(parse(f"x {cmp} 1"))
            assert p.cmp == cmp

    def test_linear_combination(self):
        p = atom(parse("y5 - y4 > 40"))
        assert p.expr.terms == (("y5", 1.0), ("y4", -1.0))
        assert p.bound == 40.0

    def test_coefficient(self):
        p = atom(parse("2 * x + 3 * y < 10"))
        assert p.expr.terms == (("x", 2.0), ("y", 3.0))

    def test_constant_offset(self):
        p = atom(parse("x + 5 < 10"))
        assert p.expr.terms == (("x", 1.0),)
        assert p.expr.const == 5.0

    def test_abs_atom(self):
        p = atom(parse("abs(y1 - y2) < 9"))
        assert p.expr.absolute
        assert p.expr.terms == (("y1", 1.0), ("y2", -1.0))

    def test_negative_bound(self):
        p = atom(parse("x > -3.5"))
        assert p.bound == -3.5

    def test_scientific_notation(self):
        p = atom(parse("x < 1.5e2"))
        assert p.bound == 150.0


class TestStructure:
    def test_globally(self):
        f = parse("G[0,20] (Speed < 120)")
        assert isinstance(f, Globally)
        assert f.a == 0.0 and f.b == 20.0
        assert isinstance(f.child, Predicate)

    def test_eventually(self):
        f = parse("F[10,30] (RPM > 2000)")
        assert isinstance(f, Eventually)
        assert f.a == 10.0 and f.b == 30.0

    def test_nested_temporal(self):
        f = parse("G[0,65] (F[0,30] (G[0,20] (y5 - y4 > 8)))")
        assert isinstance(f, Globally)
        assert isinstance(f.child, Eventually)
        assert isinstance(f.child.child, Globally)

    def test_temporal_binds_tight(self):
        f = parse("G[0,10] x > 1 and y < 2")
        assert isinstance(f, And)
        assert isinstance(f.left, Globally)
        assert isinstance(f.right, Predicate)

    def test_not_binds_tighter_than_and(self):
        f = parse("not x > 1 and y < 2")
        assert isinstance(f, And)
        assert isinstance(f.left, Not)

    def test_and_binds_tighter_than_or(self):
        f = parse("a > 1 or b > 2 and c > 3")
        assert isinstance(f, Or)
        assert isinstance(f.right, And)

    def test_or_binds_tighter_than_implies(self):
        f = parse("a > 1 or b > 2 -> c > 3")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)

    def test_implies_right_assoc(self):
        f = parse("a > 1 -> b > 2 -> c > 3")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Predicate)
        assert isinstance(f.right, Implies)

    def test_and_left_assoc(self):
        f = parse("a > 1 and b > 2 and c > 3")
        assert isinstance(f, And)
        assert isinstance(f.left, And)

    def test_parens_override(self):
        f = parse("a > 1 and (b > 2 or c > 3)")
        assert isinstance(f, And)
        assert isinstance(f.right, Or)

    def test_implies_inside_temporal(self):
        f = parse("G[0,100] (Gear >= 3 -> Speed > 20)")
        assert isinstance(f, Globally)
        assert isinstance(f.child, Implies)

    def test_fractional_interval(self):
        f = parse("G[0.5,2.75] (x < 1)")
        assert f.a == 0.5 and f.b == 2.75


class TestErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse("")

    def test_offset_reported(self):
        with pytest.raises(ParseError) as exc:
            parse("x <")
        assert exc.value.offset == 3

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse("x < 1 )")
        assert exc.value.offset == 6

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse("(x < 1")

    def test_missing_comparator(self):
        with pytest.raises(ParseError):
            parse("x 5")

    def test_interval_reversed(self):
        with pytest.raises(SemanticError):
            parse("G[5,2] (x < 1)")

    def test_interval_negative(self):
        with pytest.raises(SemanticError):
            parse("G[-1,2] (x < 1)")

    def test_abs_must_stand_alone(self):
        with pytest.raises(SemanticError):
            parse("abs(x) + y < 1")

    def test_abs_not_nested(self):
        with pytest.raises(SemanticError):
            parse("abs(abs(x)) < 1")

    def test_abs_not_negated(self):
        with pytest.raises(SemanticError):
            parse("0 - abs(x) < 1")

    def test_no_leading_sign_on_terms(self):
        with pytest.raises(ParseError):
            parse("-x < 1")

    def test_bad_interval_syntax(self):
        with pytest.raises(ParseError):
            parse("G[0 20] (x < 1)")


class TestRejections:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("x < 1 $", "unexpected character '$' (at offset 6)"),
            ("G[0,1] (x + < 1)", "expected a term, found '<' (at offset 12)"),
        ],
        ids=["unexpected-character", "missing-term"],
    )
    def test_parser_names_its_fault(self, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("cmp", ["==", "=<", ""])
    def test_bad_comparator(self, cmp):
        with pytest.raises(ValueError, match="comparator must be one of"):
            Predicate(AtomExpr((("x", 1.0),)), cmp, 1.0)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "G[0,20] (Speed < 120)",
            "G[0,10] (RPM < 4750)",
            "G[0,100] (y5 - y4 <= 40)",
            "G[0,70] (F[0,30] (y5 - y4 > 15))",
            "G[0,80] (G[0,20] (y2 - y1 > 20) -> F[0,60] (G[0,20] (y5 - y4 > 40)))",
            "G[0,65] (F[0,30] (G[0,20] (y5 - y4 >= 8)))",
            "G[0,72] (F[0,8] (y2 - y1 >= 9 and F[0,20] (y2 - y1 <= 9)))",
            "not (x < 1) and abs(y) >= 0.5 or z > 2 -> w <= 3",
        ],
    )
    def test_str_reparses_to_same_tree(self, text):
        f = parse(text)
        assert parse(str(f)) == f

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("2 - x < 1", "2 - x < 1"),
            ("0 - 2 * x - 3 > 1", "0 - 2 * x - 3 > 1"),
            ("0 - 3 < 1", "0 - 3 < 1"),
            ("x < 1234567", "x < 1234567.0"),
            ("G[0,1.0000001] (x < 1)", "G[0,1.0000001] (x < 1)"),
            ("F[0.5,2] (abs(1 - y) >= 0.25)", "F[0.5,2] (abs(1 - y) >= 0.25)"),
        ],
    )
    def test_leading_negative_term_and_every_digit(self, text, printed):
        f = parse(text)
        assert str(f) == printed
        assert parse(printed) == f

    @settings(max_examples=200, deadline=None)
    @given(text=FORMULAS)
    def test_every_parsed_formula_reparses(self, text):
        f = parse(text)
        assert parse(str(f)) == f


class TestAtomExpr:
    def test_channels(self):
        expr = AtomExpr(terms=(("a", 1.0), ("b", -2.0)), const=0.0)
        assert expr.channels() == ("a", "b")

    def test_equality(self):
        assert parse("x < 1") == parse("x < 1")
        assert parse("x < 1") != parse("x < 2")

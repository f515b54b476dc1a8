import pytest
from hypothesis import given, strategies as st

from insiderctl.ctl import AG, AU, AX, EF, ER, EU, EX, Pred
from insiderctl.formula import RESERVED, FormulaParseError, parse_formula, pretty
from insiderctl.model import And, ModelError, Not, Or, PBool, StatePredicate
from insiderctl.modelfile import ModelParseError, parse_model


class TestParse:
    def test_single_operator(self):
        assert parse_formula("AG eve_ok") == AG(Pred("eve_ok"))

    def test_negated_goal(self):
        assert parse_formula("EF !eve_ok") == EF(Not(Pred("eve_ok")))

    def test_precedence_of_until_and_next(self):
        assert parse_formula("A[p U q] & EX r") == And(
            AU(Pred("p"), Pred("q")), EX(Pred("r"))
        )

    def test_not_binds_tighter_than_and_than_or(self):
        assert parse_formula("!a & b | c") == Or(And(Not(Pred("a")), Pred("b")), Pred("c"))

    def test_prefix_binds_tighter_than_binary(self):
        assert parse_formula("EX a & b") == And(EX(Pred("a")), Pred("b"))
        assert parse_formula("EX (a & b)") == EX(And(Pred("a"), Pred("b")))

    def test_release_forms(self):
        assert parse_formula("E[a R b]") == ER(Pred("a"), Pred("b"))

    def test_left_associativity(self):
        assert parse_formula("a & b & c") == And(And(Pred("a"), Pred("b")), Pred("c"))

    def test_nested_until(self):
        f = parse_formula("A[a U E[b U c]]")
        assert f == AU(Pred("a"), EU(Pred("b"), Pred("c")))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "AG",
            "a &",
            "(a",
            "a)",
            "E[a U",
            "E[a X b]",
            "a ? b",
            "EX EX",
            "U",
            "EF EF",
        ],
    )
    def test_syntax_errors_are_positioned(self, bad):
        with pytest.raises(FormulaParseError, match="position"):
            parse_formula(bad)

    @pytest.mark.parametrize(
        "bad, pos, message",
        [
            ("?a", 0, "unexpected character '?'"),
            ("  ?a", 2, "unexpected character '?'"),
            ("a ? b", 2, "unexpected character '?'"),
            ("a ? b $", 2, "unexpected character '?'"),
            ("& ?", 2, "unexpected character '?'"),
            ("a & b?", 5, "unexpected character '?'"),
            ("a b", 2, "unexpected trailing 'b'"),
            ("AG a )", 5, "unexpected trailing ')'"),
            ("E[a U b]]", 8, "unexpected trailing ']'"),
            ("a &", 3, "unexpected end of formula"),
            ("   ", 3, "unexpected end of formula"),
            ("E[a X b]", 4, "expected 'U' or 'R', found 'X'"),
            ("AG & x", 3, "unexpected '&'"),
        ],
    )
    def test_error_position_and_message(self, bad, pos, message):
        """A stray character is reported before any other fault, at its
        position; the rest at the token at fault, or at the end."""
        with pytest.raises(FormulaParseError) as err:
            parse_formula(bad)
        assert (err.value.pos, str(err.value)) == (pos, f"at position {pos}: {message}")

    def test_reserved_names_rejected_as_predicates(self):
        with pytest.raises(FormulaParseError):
            parse_formula("AG & x")


names = st.sampled_from(["p", "q", "eve_ok", "r2", "goal"])


def formulas(names=names):
    unary = st.sampled_from([Not, EX, AX, EF])
    binary = st.sampled_from([And, Or, AU, EU, ER])
    return st.recursive(
        names.map(Pred),
        lambda children: st.one_of(
            st.tuples(unary, children).map(lambda t: t[0](t[1])),
            st.tuples(binary, children, children).map(lambda t: t[0](t[1], t[2])),
            children.map(AG),
        ),
        max_leaves=12,
    )


class TestPretty:
    def test_examples(self):
        assert pretty(parse_formula("AG eve_ok")) == "AG eve_ok"
        assert pretty(parse_formula("EF !eve_ok")) == "EF !eve_ok"
        assert pretty(parse_formula("A[p U q] & EX r")) == "A[p U q] & EX r"

    def test_right_nested_connectives_keep_parens(self):
        f = And(Pred("a"), And(Pred("b"), Pred("c")))
        assert pretty(f) == "a & (b & c)"
        assert parse_formula(pretty(f)) == f

    @given(formulas())
    def test_roundtrip(self, f):
        assert parse_formula(pretty(f)) == f


# Words, digit strings and the reserved words: every name check_name admits.
predicate_names = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    st.from_regex(r"[0-9]{1,4}", fullmatch=True),
    st.sampled_from(sorted(RESERVED)),
)


@given(predicate_names, st.data())
def test_every_predicate_name_is_rejected_or_round_trips(name, data):
    """A name ``StatePredicate`` accepts is one a formula can name, so
    ``pretty`` parses back over it; a name it rejects draws exactly one
    diagnostic, at the entry that declares it."""
    try:
        StatePredicate(name, PBool())
    except ModelError as exc:
        with pytest.raises(ModelParseError) as doc:
            parse_model(f"locations\n  a 0\npredicates\n  {name} := true\n")
        assert [(d.line, d.message) for d in doc.value.diagnostics] == [(4, str(exc))]
        return
    f = data.draw(formulas(st.sampled_from([name, "p"])))
    assert parse_formula(pretty(f)) == f

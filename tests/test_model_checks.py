"""Each check of a model's names has one owner, which the API and the
document reader both run: a model built through the API and the same model
written as a document are rejected with the same message, and the document
at the line of the entry at fault, as its only diagnostic."""

import pytest
from hypothesis import given, settings, strategies as st

from insiderctl.ctl import EX
from insiderctl.model import (
    ActorPsyState,
    AllAtAuthorized,
    And,
    AtomicPolicy,
    CountAtLeast,
    HasCred,
    HasRole,
    IsIn,
    Not,
    Or,
    PolicyCondition,
    Pred,
    PredExpr,
    RequesterAt,
    check_atoms,
    check_predicate,
    FoeControl,
    InfraGraph,
    InsiderDecl,
    Location,
    Model,
    ModelError,
    PAt,
    PBool,
    PEnables,
    PInSet,
    StatePredicate,
)
from insiderctl.modelfile import Diagnostic, ModelParseError, parse_model
from oracles import o_check_atoms, o_word_rule

A, B = Location(0, "a"), Location(1, "b")
IDS = frozenset({"Ann", "Ben", "Eve"})
# Lines 1-5; each case's entries start at line 6.
BASE = "locations\n  a 0\n  b 1\nidentities\n  Ann Ben Eve\n"


def model(**fields) -> Model:
    """A model over ``BASE``'s locations and identities."""
    empty = InfraGraph((), {}, {}, {}, {})
    base = dict(locations=(A, B), edges=(), identities=IDS, initial=empty,
                policy_variants={"baseline": {}})
    return Model(**base | fields)


def policy(cond, actions=("move",)) -> Model:
    return model(policy_variants={"base": {A: {AtomicPolicy(cond, actions)}}}, variant="base")


def predicate(body, param=None) -> Model:
    return model(named_predicates={"p": StatePredicate("p", body, param)})


def insider(psy, motives=()) -> Model:
    return model(insiders=(InsiderDecl("Eve", {"Ann"}, ActorPsyState(psy, motives)),))


PREDICATE_NAME = (
    "predicate name must not be digits or reserved (A, AF, AG, AX, E, EF, EG, EX, R, U): "
)

# name -> (API build, document entries after BASE, line, message)
CASES = {
    "unknown action in a policy": (
        lambda: policy(PBool(), ("move", "fly")),
        "policies base\n  at a allow move,fly if true\n", 7, "unknown action 'fly'"),
    "unknown action in an assumption": (
        lambda: model(assumptions=(FoeControl(A, "fly", "Eve"),)),
        "assumptions\n  foe a fly Eve\n", 7, "unknown action 'fly'"),
    "bad psy state": (
        lambda: insider("grumpy"),
        "insiders\n  Eve impersonates Ann psy grumpy\n", 7, "unknown psy state 'grumpy'"),
    "bad motivation": (
        lambda: insider("stressed", {"revenge", "fun"}),
        "insiders\n  Eve impersonates Ann psy stressed motives revenge fun\n", 7,
        "unknown motivation 'fun'"),
    "unknown identity in an all_at_in list": (
        lambda: policy(AllAtAuthorized(A, {"Ann", "Zed"})),
        "policies base\n  at a allow move if all_at_in(a, [Ann Zed])\n", 7,
        "policy condition references unknown identity 'Zed'"),
    "predicate names an unknown set": (
        lambda: predicate(PInSet("Ann", "crew")),
        "predicates\n  p := inset(Ann, crew)\n", 7,
        "predicate 'p' references unknown set 'crew'"),
    "predicate names an unknown identity": (
        lambda: predicate(PAt("Zed", A)),
        "predicates\n  p := at(Zed, a)\n", 7,
        "predicate 'p' references unknown identity 'Zed'"),
    "predicate names an unknown action": (
        lambda: predicate(PEnables(A, "Ann", "fly")),
        "predicates\n  p := enables(a, Ann, fly)\n", 7,
        "predicate 'p' references unknown action 'fly'"),
    "predicate parameter shadows an identity": (
        lambda: predicate(PAt("Ann", A), "Ann"),
        "predicates\n  p(Ann) := at(Ann, a)\n", 7,
        "predicate 'p' parameter 'Ann' shadows a model identity"),
    "value outside its alphabet": (
        lambda: model(initial=InfraGraph((), {}, {}, {}, {A: "x"}), value_alphabet={A: {"y"}}),
        "alphabets\n  a: y\nvalues\n  a = x\n", 9, "value 'x' at a is outside its alphabet"),
    "value with an empty alphabet": (
        lambda: model(initial=InfraGraph((), {}, {}, {}, {A: "x"}), value_alphabet={A: set()}),
        "alphabets\n  a:\nvalues\n  a = x\n", 9, "value 'x' at a is outside its alphabet"),
    "value outside its alphabet, declared after it": (
        lambda: model(initial=InfraGraph((), {}, {}, {}, {A: "x"}), value_alphabet={A: {"y"}}),
        "values\n  a = x\nalphabets\n  a: y\n", 7, "value 'x' at a is outside its alphabet"),
    "identity that is not a word": (
        lambda: model(identities=IDS | {"A:B"}),
        "identities\n  A:B\n", 7,
        "identity must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): 'A:B'"),
    "location name that is not a word": (
        lambda: model(locations=(A, B, Location(2, "c-d"))),
        "locations\n  c-d 2\n", 7,
        "location name must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): 'c-d'"),
    "credential that is not a word": (
        lambda: model(initial=InfraGraph((), {}, {"Ann": {"PIN", "x(y"}}, {}, {})),
        "credentials\n  Ann: PIN x(y\n", 7,
        "credential must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): 'x(y'"),
    "role that is not a word": (
        lambda: model(initial=InfraGraph((), {}, {}, {"Ann": {"\u00f1"}}, {})),
        "roles\n  Ann: \u00f1\n", 7,
        "role must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): '\u00f1'"),
    "value that is not a word": (
        lambda: model(initial=InfraGraph((), {}, {}, {}, {A: "x,y"})),
        "values\n  a = x,y\n", 7,
        "value must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): 'x,y'"),
    "alphabet value that is not a word": (
        lambda: model(value_alphabet={A: {"x", "\u0661"}}),
        "alphabets\n  a: x \u0661\n", 7,
        "value must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): '\u0661'"),
    "set name that is not a word": (
        lambda: model(identity_sets={"my-crew": {"Ann"}}),
        "sets\n  my-crew = Ann\n", 7,
        "set name must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): 'my-crew'"),
    "predicate name that is not a word": (
        lambda: model(named_predicates={"caf\u00e9": StatePredicate("caf\u00e9", PBool())}),
        "predicates\n  caf\u00e9 := true\n", 7,
        "predicate name must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): 'caf\u00e9'"),
    "predicate named by digits": (
        lambda: model(named_predicates={"42": StatePredicate("42", PBool())}),
        "predicates\n  42 := true\n", 7, PREDICATE_NAME + "'42'"),
    "predicate named by a reserved word": (
        lambda: model(named_predicates={"EX": StatePredicate("EX", PBool())}),
        "predicates\n  EX := true\n", 7, PREDICATE_NAME + "'EX'"),
    "predicate parameter that is not a word": (
        lambda: predicate(PBool(), "\u00e9"),
        "predicates\n  p(\u00e9) := true\n", 7,
        "predicate parameter must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): '\u00e9'"),
    "variant name that is not a word": (
        lambda: model(policy_variants={"x-y": {}}, variant="x-y"),
        "policies x-y\n", 6,
        "variant name must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): 'x-y'"),
}


@pytest.mark.parametrize("build, entries, line, message", CASES.values(), ids=CASES)
def test_the_api_and_the_reader_give_one_message(build, entries, line, message):
    with pytest.raises(ModelError) as api:
        build()
    assert str(api.value) == message
    with pytest.raises(ModelParseError) as doc:
        parse_model(BASE + entries)
    assert doc.value.diagnostics == [Diagnostic(line, message)]


# ---------------------------------------------------------------------------
# check_atoms and the word rule against the references in tests/oracles.py:
# the same first ModelError text, or none where they raise none.

SETS = {"crew": frozenset({"Ann", "Ben"})}
# Known and unknown names: locations (same id, other name; a new one),
# identities (Zed and Yan are none; "a" is a parameter), sets and actions.
LOCS = st.sampled_from([A, B, Location(1, "a"), Location(2, "c")])
WHO = st.sampled_from(["Ann", "Ben", "Eve", "Zed", "Yan", "a"])
WORD = st.sampled_from(["PIN", "x", "locked", "7"])
LEAVES = [
    st.builds(PBool, st.booleans()),
    st.builds(RequesterAt, LOCS),
    st.builds(HasCred, WORD),
    st.builds(HasRole, WORD),
    st.builds(IsIn, LOCS, WORD),
    st.builds(CountAtLeast, LOCS, st.integers(1, 3)),
    st.builds(AllAtAuthorized, LOCS, st.frozensets(WHO, max_size=4)),
    st.builds(PEnables, LOCS, WHO, st.sampled_from(["get", "move", "put", "fly"])),
    st.builds(PAt, WHO, LOCS),
    st.builds(PInSet, WHO, st.sampled_from(["crew", "gang"])),
    st.builds(Pred, st.sampled_from(["p", "q"])),
    st.sampled_from(["true", 3, None, EX(Pred("p"))]),  # not atom records
]
TREES = st.recursive(
    st.one_of(LEAVES),
    lambda kids: st.one_of(
        st.builds(Not, kids), st.builds(And, kids, kids), st.builds(Or, kids, kids)
    ),
    max_leaves=8,
)
PARAM = st.sampled_from([None, "a", "p1", "Ann"])
# Words and non-words (with a character outside ASCII, a mark, a leading
# digit, the empty string, and a value that is not a string at all).
TOKENS = st.one_of(
    st.sampled_from(["PIN", "x", "_y", "7", "x-y", "1a", "", "\u00e9", "\u0661", "a b", 5]),
    st.text(max_size=3),
)
WORDS = st.frozensets(TOKENS, max_size=4)


def error(check, *args) -> str | None:
    try:
        check(*args)
    except ModelError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(TREES, PARAM)
def test_check_atoms_raises_what_the_reference_does(expr, param):
    names = {A, B}, IDS, SETS
    for language in (PolicyCondition, PredExpr):
        args = (expr, "this", language, *names, param)
        assert error(check_atoms, *args) == error(o_check_atoms, *args)


@settings(max_examples=200, deadline=None)
@given(TREES, PARAM)
def test_check_predicate_raises_what_the_reference_does(body, param):
    def reference(pred, *names):
        if pred.param in names[1]:
            raise ModelError(f"predicate 'p' parameter {pred.param!r} shadows a model identity")
        o_check_atoms(pred.body, "predicate 'p'", PredExpr, *names, pred.param)

    pred, names = StatePredicate("p", body, param), ({A, B}, IDS, SETS)
    assert error(check_predicate, pred, *names) == error(reference, pred, *names)


@settings(max_examples=300, deadline=None)
@given(WORDS, WORDS, WORDS, WORDS, WORDS, WORDS, TREES, TREES, PARAM)
def test_model_raises_what_the_references_do(
    idents, creds, roles, values, set_names, variants, cond, body, param
):
    identities = IDS | idents
    groups = [
        ("identity", identities),
        ("credential", creds),
        ("role", roles),
        ("value", values),
        ("set name", {"crew", *set_names}),
        ("variant name", {"base", *variants}),
    ]

    def build():
        return model(
            identities=identities,
            initial=InfraGraph((), {}, {"Ann": creds}, {"Ann": roles}, {}),
            value_alphabet={A: values},
            identity_sets={"crew": SETS["crew"]} | {n: frozenset() for n in set_names},
            policy_variants={"base": {A: {AtomicPolicy(cond, ("move",))}}}
            | {v: {} for v in variants},
            variant="base",
            named_predicates={"p": StatePredicate("p", body, param)},
        )

    def reference():
        o_word_rule(groups)
        sets = {"crew": SETS["crew"]} | {n: frozenset() for n in set_names}
        names = {A, B}, identities, sets
        o_check_atoms(cond, "policy condition", PolicyCondition, *names)
        if param in identities:
            raise ModelError(f"predicate 'p' parameter {param!r} shadows a model identity")
        o_check_atoms(body, "predicate 'p'", PredExpr, *names, param)

    assert error(build) == error(reference)

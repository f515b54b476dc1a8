import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from insiderctl import model as model_module, modelfile
from insiderctl.airplane import build_airplane_model
from insiderctl.model import (
    ACTIONS,
    MOTIVATIONS,
    PSY_STATES,
    ActorPsyState,
    AllAtAuthorized,
    And,
    AtomicPolicy,
    CountAtLeast,
    FoeControl,
    HasCred,
    HasRole,
    InfraGraph,
    InsiderDecl,
    IsIn,
    Location,
    Model,
    ModelError,
    Not,
    Or,
    PAt,
    PBool,
    PEnables,
    PInSet,
    PolicyCondition,
    PredExpr,
    RequesterAt,
    StatePredicate,
)
from insiderctl.modelfile import (
    SECTIONS,
    ModelParseError,
    condition_text,
    parse_condition,
    parse_model,
    serialize_model,
)

from genmodels import random_model

GOLDEN = Path(__file__).parent / "data" / "airplane.model"
README = Path(__file__).parent.parent / "README.md"


def _first_words(block: str) -> list[str]:
    return [line.split()[0] for line in block.splitlines() if line.strip()]


class TestSectionLists:
    """The README and the module docstring list every section, in
    canonical order."""

    def test_readme_block(self):
        text = README.read_text(encoding="utf-8").split("## Model document format", 1)[1]
        block = text.split("```\n", 2)[1]
        assert _first_words(block) == list(SECTIONS)

    def test_docstring_block(self):
        block = modelfile.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
        assert _first_words(block) == list(SECTIONS)


class TestGolden:
    def test_golden_parses_to_the_builtin_baseline(self):
        parsed = parse_model(GOLDEN.read_text())
        assert parsed == build_airplane_model("baseline")

    def test_golden_variant_switch_matches_builtin(self):
        parsed = parse_model(GOLDEN.read_text())
        assert parsed.with_variant("four_eyes") == build_airplane_model("four_eyes")

    def test_golden_is_the_canonical_serialization(self):
        assert GOLDEN.read_text() == serialize_model(build_airplane_model("baseline"))


class TestRoundTrip:
    def test_airplane_both_variants(self):
        for variant in ("baseline", "four_eyes"):
            model = build_airplane_model(variant)
            text = serialize_model(model)
            assert parse_model(text) == model
            assert serialize_model(parse_model(text)) == text

    def test_random_models(self):
        for seed in range(40):
            model = random_model(seed)
            text = serialize_model(model)
            assert parse_model(text) == model, f"seed {seed}"

    @pytest.mark.parametrize("name", ["A:B", "A=B", "Ann-Lee", "x(y", "Ann_Lee", "_7", "42"])
    def test_names_round_trip_or_are_rejected(self, name):
        """An identity or location name that is not a word would serialise
        to a document that does not parse, so ``Model`` rejects it; a word
        round-trips byte-exactly, also inside an ``all_at_in`` list."""
        def build(loc_name="b"):
            a, b = Location(0, "a"), Location(1, loc_name)
            return Model(
                locations=(a, b),
                edges=(),
                identities={name, "Ben"},
                initial=InfraGraph((), {a: (name,)}, {}, {}, {}),
                policy_variants={"baseline": {a: {AtomicPolicy(AllAtAuthorized(b, {name}), {"move"})}}},
            )

        if not re.fullmatch(r"\w+", name):
            with pytest.raises(ModelError, match="^identity must be a word"):
                build()
            with pytest.raises(ModelError, match="^location name must be a word"):
                Location(1, name)
            return
        text = serialize_model(build(name))
        assert parse_model(text) == build(name)
        assert serialize_model(parse_model(text)) == text

    def test_empty_alphabet_round_trips(self):
        """An empty alphabet is kept, and written with no trailing space."""
        a = Location(0, "a")
        model = Model(
            locations=(a,), edges=(), identities={"Ann"},
            initial=InfraGraph((), {}, {}, {}, {}), policy_variants={"baseline": {}},
            value_alphabet={a: set()},
        )
        assert model.value_alphabet == {a: frozenset()}
        text = serialize_model(model)
        assert "\nalphabets\n  a:\n" in text
        assert parse_model(text) == model
        assert serialize_model(parse_model(text)) == text


# Words, among them the document's own keywords and Python's, and strings
# that are not words: each would break the line or the expression it is in.
WORDS = ["a", "Ann", "x1", "_", "007", "None", "class", "psy", "motives", "impersonates",
         "foe", "at", "allow", "if", "true", "false", "baseline", "crew"]
NON_WORDS = ["x(y", "x y", "x,y", "", " ", "a:b", "a=b", "#c", "[z]", "\u00f1", "\u0661",
             "x\ny", '"q', "\\", "->", ":=", "!", "&", "|", ")"]


@st.composite
def models(draw):
    """A ``Model`` built from the arguments drawn, or the ``ModelError``
    that building it or a part of it raised.  Every token slot draws a
    word, or now and then a string that is not one."""
    try:
        return _model(draw)
    except ModelError as exc:
        return exc


def _model(draw) -> Model:
    token = st.sampled_from(WORDS if draw(st.booleans()) else WORDS * 10 + NON_WORDS)
    tokens, actions = st.frozensets(token, max_size=3), st.sampled_from(ACTIONS)
    names = draw(st.lists(token, min_size=1, max_size=3))
    locs = [Location(i, name) for i, name in enumerate(names)]
    ids = sorted(draw(st.sets(token, min_size=1, max_size=3)))
    loc, ident = st.sampled_from(locs), st.sampled_from(ids)
    sets = draw(st.dictionaries(token, st.frozensets(ident), max_size=2))
    param = draw(st.none() | token)
    who = st.sampled_from(ids + [param] if param else ids)
    count = st.builds(CountAtLeast, loc, st.integers(1, 3))
    constant, value = st.builds(PBool, st.booleans()), st.builds(IsIn, loc, token)
    condition = st.one_of(
        constant, value, count, st.builds(RequesterAt, loc), st.builds(HasCred, token),
        st.builds(HasRole, token), st.builds(AllAtAuthorized, loc, st.frozensets(ident)),
    )
    body = st.one_of(
        constant, value, count, st.builds(PEnables, loc, who, actions), st.builds(PAt, who, loc),
        st.builds(PInSet, who, st.sampled_from(sorted(sets)) | token if sets else token),
    )

    def tree(atom):
        return st.recursive(atom, lambda e: st.one_of(
            st.builds(Not, e), st.builds(And, e, e), st.builds(Or, e, e)), max_leaves=4)

    policy = st.builds(AtomicPolicy, tree(condition), st.frozensets(actions, min_size=1))
    pmap = st.dictionaries(loc, st.frozensets(policy, min_size=1, max_size=2), max_size=2)
    variants = draw(st.dictionaries(token, pmap, min_size=1, max_size=2))
    predicates = {
        name: StatePredicate(name, draw(tree(body)), param)
        for name in draw(st.sets(token, max_size=2))
    }
    insiders = []
    if len(ids) > 1 and draw(st.booleans()):
        insider = draw(ident)
        egos = draw(st.frozensets(st.sampled_from([i for i in ids if i != insider]), min_size=1))
        motives = draw(st.frozensets(st.sampled_from(MOTIVATIONS), max_size=2))
        state = ActorPsyState(draw(st.sampled_from(PSY_STATES)), motives)
        insiders.append(InsiderDecl(insider, egos, state))
    where: dict = {}
    for i, l in draw(st.dictionaries(ident, loc, max_size=3)).items():
        where.setdefault(l, []).append(i)
    edges = draw(st.sets(st.tuples(loc, loc), max_size=2))
    values = draw(st.dictionaries(loc, token, max_size=2))
    creds, roles = draw(st.dictionaries(ident, tokens)), draw(st.dictionaries(ident, tokens))
    alphabets = {l: draw(tokens) | ({values[l]} if l in values else set()) for l in locs}
    return Model(
        locations=locs, edges=edges, identities=ids,
        initial=InfraGraph(edges, where, creds, roles, values), policy_variants=variants,
        variant=draw(st.sampled_from(sorted(variants))), value_alphabet=alphabets,
        insiders=insiders, identity_sets=sets, named_predicates=predicates,
        assumptions=draw(st.lists(st.builds(FoeControl, loc, actions, ident), max_size=1)),
    )


@settings(max_examples=150, deadline=None)
@given(models())
def test_every_model_round_trips_or_is_rejected(m):
    """A model whose every token is a word serialises to a document that
    reads back to an equal model and serialises to the same bytes; any
    other model is rejected when it is built."""
    if isinstance(m, ModelError):
        return
    text = serialize_model(m)
    assert parse_model(text) == m
    assert serialize_model(parse_model(text)) == text


def _blocks(text: str) -> list[str]:
    """The section blocks of ``text``, a document that starts with a
    header: each header with the lines under it."""
    blocks = []
    for line in text.splitlines():
        if line[:1].strip() and not line.startswith("#"):
            blocks.append(line)
        else:
            blocks[-1] += "\n" + line
    return blocks


def _documents() -> list[str]:
    return [GOLDEN.read_text(encoding="utf-8")] + [
        serialize_model(random_model(seed)) for seed in range(20)
    ]


class TestSectionOrder:
    def test_shuffled_sections_parse_to_the_same_model(self):
        """Whatever the order of its sections, a document parses to one
        model.  Each ``all_at_in`` list equal to a declared set is written
        as the set's name, so that a policy depends on ``sets``."""
        rng = random.Random(17)
        for doc in _documents():
            for block in _blocks(doc):
                if block.startswith("sets"):
                    for entry in block.splitlines()[1:]:
                        name, _, members = entry.strip().partition(" = ")
                        doc = doc.replace(f"[{' '.join(sorted(members.split()))}]", name)
            expected, blocks = parse_model(doc), _blocks(doc)
            for _ in range(5):
                rng.shuffle(blocks)
                assert parse_model("\n".join(blocks) + "\n") == expected


class TestOneCheckPerEntry:
    """The reader runs each owner check at its entry's line, and builds its
    model without running them again."""

    def test_check_atoms_runs_once_per_policy_or_predicate(self, monkeypatch):
        calls = []
        counted = model_module.check_atoms

        def counting(*args, **kwargs):
            calls.append(args[1])
            return counted(*args, **kwargs)

        monkeypatch.setattr(model_module, "check_atoms", counting)
        monkeypatch.setattr(modelfile, "check_atoms", counting)
        for doc in _documents():
            entries = sum(
                1
                for block in _blocks(doc)
                if block.split()[0] in ("policies", "predicates")
                for line in block.splitlines()[1:]
                if line.strip()
            )
            calls.clear()
            parse_model(doc)
            assert len(calls) == entries

    def test_the_parsed_model_is_the_one_the_constructor_builds(self):
        for doc in _documents():
            parsed = parse_model(doc)
            built = Model(**{name: getattr(parsed, name) for name in Model.__dataclass_fields__})
            assert parsed == built
            assert parsed.resolver == built.resolver
            assert serialize_model(built) == doc


class TestDiagnostics:
    def err(self, text):
        with pytest.raises(ModelParseError) as info:
            parse_model(text)
        return info.value.diagnostics

    def test_empty_document_rejected(self):
        diags = self.err("")
        assert any("at least one location" in d.message for d in diags)

    def test_identity_in_two_locations(self):
        diags = self.err(
            "locations\n  a 0\n  b 1\nidentities\n  Bob\nplacements\n  a: Bob\n  b: Bob\n"
        )
        assert any("already placed" in d.message and d.line == 8 for d in diags)

    def test_duplicate_in_one_placement(self):
        diags = self.err("locations\n  a 0\nidentities\n  Bob\nplacements\n  a: Bob Bob\n")
        assert any("twice" in d.message for d in diags)

    def test_unknown_location_is_positioned(self):
        diags = self.err("locations\n  a 0\nvalues\n  b = on\n")
        assert any(d.line == 4 and "unknown location 'b'" in d.message for d in diags)

    def test_unknown_identity_in_set(self):
        diags = self.err("locations\n  a 0\nsets\n  crew = Nobody\n")
        assert any("unknown identity 'Nobody'" in d.message for d in diags)

    def test_unknown_section(self):
        diags = self.err("locations\n  a 0\nwibble\n")
        assert any("unknown section" in d.message and d.line == 3 for d in diags)

    def test_bad_policy_condition(self):
        diags = self.err(
            "locations\n  a 0\npolicies base\n  at a allow move if haunted(a)\n"
        )
        assert any("bad condition" in d.message for d in diags)

    def test_condition_atom_with_wrong_arity(self):
        diags = self.err("locations\n  a 0\npolicies b\n  at a allow move if has_cred(a, b)\n")
        assert [str(d) for d in diags] == ["line 4: bad condition: has_cred takes 1 argument, found 2"]

    def test_predicate_atom_with_wrong_arity(self):
        diags = self.err("locations\n  a 0\npredicates\n  p := at(Eve)\n")
        assert [str(d) for d in diags] == ["line 4: bad predicate: at takes 2 arguments, found 1"]

    def test_all_at_in_names_only_known_identities(self):
        diags = self.err(
            "locations\n  a 0\nidentities\n  Ann\npolicies b\n"
            "  at a allow move if all_at_in(a, [Ann Zed])\n"
        )
        assert [str(d) for d in diags] == [
            "line 6: policy condition references unknown identity 'Zed'"
        ]

    @pytest.mark.parametrize(
        "cond, found",
        [
            ("has_cred())", "an argument, found ')'"),
            ("all_at_in(a, [Ann [])", "a name or ']', found '['"),
        ],
    )
    def test_argument_lists_take_only_names(self, cond, found):
        doc = f"locations\n  a 0\nidentities\n  Ann\npolicies b\n  at a allow move if {cond}\n"
        diags = self.err(doc)
        assert [str(d) for d in diags] == [f"line 6: bad condition: expected {found}"]

    @pytest.mark.parametrize("kind", ["condition", "predicate"])
    @pytest.mark.parametrize("bound", ["x", "_2", "\u0663"])
    def test_count_bound_is_ascii_digits(self, kind, bound):
        line = {
            "condition": "policies b\n  at a allow move if",
            "predicate": "predicates\n  p :=",
        }[kind]
        diags = self.err(f"locations\n  a 0\n{line} count_at_least(a, {bound})\n")
        message = f"count_at_least needs a whole-number bound, found {bound!r}"
        assert [str(d) for d in diags] == [f"line 4: bad {kind}: {message}"]

    @pytest.mark.parametrize(
        "cls, name", sorted(modelfile._ATOM_NAMES.items(), key=lambda item: item[1]),
        ids=sorted(modelfile._ATOM_NAMES.values()),
    )
    def test_every_atom_keeps_to_its_language_and_arity(self, cls, name):
        """An atom outside its language is unknown there, and one argument
        too many names the atom's field count."""
        entries = {
            "condition": (PolicyCondition, "policies b\n  at a allow move if"),
            "predicate": (PredExpr, "predicates\n  p :="),
        }
        arity = len(cls.__match_args__)
        s = "" if arity == 1 else "s"
        args = ", ".join(["x"] * (arity + 1))
        for kind, (language, entry) in entries.items():
            diags = self.err(f"locations\n  a 0\n{entry} {name}({args})\n")
            if issubclass(cls, language):
                message = f"{name} takes {arity} argument{s}, found {arity + 1}"
            else:
                message = f"unknown {kind} atom {name!r}"
            assert [str(d) for d in diags] == [f"line 4: bad {kind}: {message}"]

    @pytest.mark.parametrize("lid", ["\u00b2", "\u0663"])
    def test_location_id_is_ascii_digits(self, lid):
        diags = self.err(f"locations\n  b 0\n  a {lid}\n")
        assert [str(d) for d in diags] == [f"line 3: expected 'NAME ID', found 'a {lid}'"]

    def test_bad_action(self):
        diags = self.err("locations\n  a 0\npolicies base\n  at a allow fly if true\n")
        assert any("unknown action 'fly'" in d.message for d in diags)

    def test_default_policies_must_exist(self):
        diags = self.err("locations\n  a 0\ndefault_policies nosuch\n")
        assert any("unknown variant" in d.message for d in diags)

    def test_multiple_diagnostics_reported_together(self):
        diags = self.err("locations\n  a zero\nvalues\n  b = on\n")
        assert len(diags) >= 2


class TestConditions:
    def test_parse_set_name_desugars_to_members(self):
        from insiderctl.model import AllAtAuthorized, Location

        locs = {"a": Location(0, "a")}
        sets = {"crew": frozenset({"Ann", "Ben"})}
        cond = parse_condition("all_at_in(a, crew)", locs, sets)
        assert cond == AllAtAuthorized(locs["a"], frozenset({"Ann", "Ben"}))
        # canonical text uses the explicit list form
        assert condition_text(cond) == "all_at_in(a, [Ann Ben])"

    def test_condition_text_roundtrip_on_random_models(self):
        for seed in range(40):
            model = random_model(seed)
            locs = {l.name: l for l in model.locations}
            for pmap in model.policy_variants.values():
                for pols in pmap.values():
                    for pol in pols:
                        text = condition_text(pol.condition)
                        assert parse_condition(text, locs, model.identity_sets) == pol.condition


class TestVariants:
    def test_first_declared_variant_is_default_without_marker(self):
        text = (
            "locations\n  a 0\nidentities\n  Bob\n"
            "policies strict\n  at a allow move if true\n"
            "policies lax\nassumptions\n"
        )
        model = parse_model(text)
        assert model.variant == "strict"
        assert set(model.policy_variants) == {"strict", "lax"}

    def test_document_without_policies_gets_an_empty_baseline(self):
        model = parse_model("locations\n  a 0\n")
        assert model.policy_variants == {"baseline": {}}

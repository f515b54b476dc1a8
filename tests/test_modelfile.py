from pathlib import Path

import pytest

from insiderctl.airplane import build_airplane_model
from insiderctl.modelfile import (
    ModelParseError,
    condition_text,
    parse_condition,
    parse_model,
    serialize_model,
)

from genmodels import random_model

GOLDEN = Path(__file__).parent / "data" / "airplane.model"


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
        assert [str(d) for d in diags] == ["line 6: bad condition: unknown identity 'Zed'"]

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

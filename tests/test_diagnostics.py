"""Byte-for-byte pins of the parse diagnostics of the three expression
languages: policy conditions and state predicates (through ``parse_model``,
so each message carries its line number) and CTL formulas (through
``parse_formula``, so each carries its position).

``data/golden/diagnostics.txt`` holds one line per malformed input.  To
rewrite it after an intended change of a message, run
``PYTHONPATH=src python tests/test_diagnostics.py`` and review the diff.
"""

from pathlib import Path

from insiderctl.formula import parse_formula
from insiderctl.modelfile import parse_model

GOLDEN = Path(__file__).parent / "data" / "golden" / "diagnostics.txt"

HEADER = "locations\n  a 0\nidentities\n  Ann Ben Eve\nsets\n  crew = Ann Ben\n"

CONDITIONS = [
    "haunted(a)",
    "haunted",
    "has_cred(a, b)",
    "is_in(a)",
    "requester_at()",
    "requester_at(nowhere)",
    "has_cred([a b])",
    "requester_at([a])",
    "is_in(a, [x])",
    "count_at_least(a, [2])",
    "all_at_in([a], crew)",
    "all_at_in(a, crew2)",
    "all_at_in(nowhere, crew2)",
    "count_at_least(nowhere, x)",
    "count_at_least(a, x)",
    "count_at_least(a, 0)",
    "has_cred(a b)",
    "(true",
    "all_at_in(a, [Ann",
    "all_at_in(a, [Ann, Ben)",
    "true true",
    "true(x)",
    "a $ b",
    "!",
    "true &",
    "true | | true",
    ")",
    "has_cred())",
    "has_cred(&)",
    "all_at_in(a, [Ann [])",
    "all_at_in(a, [Ann (Ben])",
    "all_at_in(a, [Ann) Ben])",
    "all_at_in(a, [Ann, Ben])",
    "all_at_in(a, [Ann Zed])",
]

PREDICATES = [
    "haunted(a)",
    "at(Eve)",
    "enables(a, Eve, put, x)",
    "inset(Eve, [a b])",
    "at([Eve], a)",
    "enables(a, [Eve], put)",
    "(true",
    "",
    "true false",
    "true(x)",
    "at(Eve, nowhere)",
    "false & @",
    "count_at_least(a, -1)",
    "count_at_least(a, 0)",
    "!(true | false",
    "at(Eve, ))",
    "enables(a, (, put)",
]

FORMULAS = [
    "",
    "EX",
    "U",
    "a , b",
    "1",
    "a $ b",
    "(a",
    "E[a U b",
    "A[a U b",
    "A[a X b]",
    "a b",
    "true(x)",
    "E a",
    "[a]",
    "a &",
    "!",
    "EF )",
    "a | | b",
    "E[a U b]]",
    "AG & x",
]


def _outcome(parse, text: str) -> str:
    try:
        parse(text)
    except Exception as exc:  # noqa: BLE001 - a crash is an outcome to pin too
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def render() -> str:
    lines = []
    for cond in CONDITIONS:
        doc = HEADER + f"policies base\n  at a allow move if {cond}\n"
        lines.append(f"condition {cond!r} -> {_outcome(parse_model, doc)}")
    for body in PREDICATES:
        doc = HEADER + f"predicates\n  p := {body}\n"
        lines.append(f"predicate {body!r} -> {_outcome(parse_model, doc)}")
    for text in FORMULAS:
        lines.append(f"formula {text!r} -> {_outcome(parse_formula, text)}")
    return "\n".join(lines) + "\n"


def test_diagnostics_match_the_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")

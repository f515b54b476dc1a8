"""Byte-for-byte pins of what ``parse_model`` makes of whole documents, one
section at a time: hand-written malformed documents, one for each kind of
diagnostic the section readers give, and seeded mutations of the airplane
document and of seeded random models.

``data/golden/sections.txt`` holds one line per document: its diagnostics,
or ``ok`` and the sha256 of its canonical re-serialisation, which carries
the active variant too.  To rewrite it after an intended change, run
``PYTHONPATH=src python tests/test_sections.py`` and review the diff.
"""

import hashlib
import random
from pathlib import Path

from genmodels import random_model
from insiderctl.modelfile import ModelParseError, parse_model, serialize_model

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden" / "sections.txt"

BASE = "locations\n  a 0\n  b 1\nidentities\n  Ann Ben Eve\n"

CASES = [
    # Each section's malformed entry.
    ("locations: one word", "locations\n  a\n"),
    ("locations: id not a number", "locations\n  a x\n"),
    ("locations: id not ASCII digits", "locations\n  a ١\n"),
    ("locations: three words", "locations\n  a 0 1\n"),
    ("edges: no arrow", BASE + "edges\n  a b\n"),
    ("edges: wrong arrow", BASE + "edges\n  a => b\n"),
    ("edges: trailing word", BASE + "edges\n  a -> b c\n"),
    ("sets: no equals", BASE + "sets\n  crew Ann\n"),
    ("credentials: no colon", BASE + "credentials\n  Ann PIN\n"),
    ("roles: no colon", BASE + "roles\n  Ann pilot\n"),
    ("placements: no colon", BASE + "placements\n  a Ann\n"),
    ("values: no equals", BASE + "values\n  a norm\n"),
    ("values: colon", BASE + "values\n  a: norm\n"),
    ("values: two tokens", BASE + "values\n  a = x y\n"),
    ("alphabets: no colon", BASE + "alphabets\n  a x y\n"),
    ("policies: no at", BASE + "policies base\n  allow move if true\n"),
    ("policies: no condition", BASE + "policies base\n  at a allow move\n"),
    ("policies: bad condition", BASE + "policies base\n  at a allow move if has_cred(\n"),
    ("insiders: no impersonates", BASE + "insiders\n  Eve Ann psy stressed\n"),
    ("insiders: no psy", BASE + "insiders\n  Eve impersonates Ann\n"),
    ("insiders: psy without state", BASE + "insiders\n  Eve impersonates Ann psy\n"),
    ("insiders: words after psy", BASE + "insiders\n  Eve impersonates Ann psy stressed revenge\n"),
    ("insiders: one word", BASE + "insiders\n  Eve\n"),
    ("predicates: no :=", BASE + "predicates\n  p = true\n"),
    ("predicates: bad name", BASE + "predicates\n  p-q := true\n"),
    ("predicates: bad body", BASE + "predicates\n  p := at(Ann)\n"),
    ("assumptions: no foe", BASE + "assumptions\n  enemy a put Eve\n"),
    ("assumptions: three words", BASE + "assumptions\n  foe a put\n"),
    ("default_policies: an entry", BASE + "default_policies base\n  base\n"),
    ("default_policies: an entry under a known variant",
     BASE + "policies base\ndefault_policies base\n  junk entry\n"),
    # Duplicates.
    ("duplicate location name", "locations\n  a 0\n  a 1\n"),
    ("duplicate location id", "locations\n  a 0\n  b 0\n"),
    ("duplicate identity", BASE + "identities\n  Ann\n"),
    ("duplicate identity on one line", "locations\n  a 0\nidentities\n  Ann Ann\n"),
    ("duplicate placement", BASE + "placements\n  a: Ann\n  a: Ben\n"),
    ("duplicate set", BASE + "sets\n  crew = Ann\n  crew = Ben\n"),
    ("duplicate value", BASE + "values\n  a = x\n  a = y\n"),
    ("duplicate alphabet", BASE + "alphabets\n  a: x\n  a: y\n"),
    ("duplicate predicate", BASE + "predicates\n  p := true\n  p := false\n"),
    # Unknown names.
    ("unknown location in edges", BASE + "edges\n  a -> c\n"),
    ("unknown location in values", BASE + "values\n  c = x\n"),
    ("unknown location in alphabets", BASE + "alphabets\n  c: x\n"),
    ("unknown location in policies", BASE + "policies base\n  at c allow move if true\n"),
    ("unknown location in assumptions", BASE + "assumptions\n  foe c put Eve\n"),
    ("unknown identity in sets", BASE + "sets\n  crew = Ann Zed\n"),
    ("unknown identity in credentials", BASE + "credentials\n  Zed: PIN\n"),
    ("unknown identity in roles", BASE + "roles\n  Zed: pilot\n"),
    ("unknown identity in placements", BASE + "placements\n  a: Ann Zed Yan\n"),
    ("unknown identity in insiders", BASE + "insiders\n  Zed impersonates Ann psy stressed\n"),
    ("unknown identity in assumptions", BASE + "assumptions\n  foe a put Zed\n"),
    ("unknown action in policies", BASE + "policies base\n  at a allow move,fly,eval if true\n"),
    ("unknown action in assumptions", BASE + "assumptions\n  foe a fly Eve\n"),
    # Placements.
    ("identity placed twice", BASE + "placements\n  a: Ann Ann\n"),
    ("identity placed elsewhere", BASE + "placements\n  a: Ann Ben\n  b: Eve Ben Ann\n"),
    # Insiders.
    ("bad psy state", BASE + "insiders\n  Eve impersonates Ann psy grumpy\n"),
    ("bad motivation", BASE + "insiders\n  Eve impersonates Ann psy stressed motives revenge fun\n"),
    ("insider lists itself", BASE + "insiders\n  Eve impersonates Ann Eve psy stressed\n"),
    # Headers.
    ("header with two arguments", BASE + "policies base extra\n  at a allow move if true\n"),
    ("header argument on a section that takes none", "locations extra\n  a 0\n"),
    ("entry outside any section", "  a 0\nlocations\n  a 0\n"),
    ("unknown section", BASE + "actors\n  Ann\n"),
    ("entries under an unknown section", BASE + "actors\n  Ann\nedges\n  a -> b\n"),
    ("no location", "identities\n  Ann\n"),
    ("empty document", ""),
    # Variants.
    ("default_policies without a name", BASE + "policies base\ndefault_policies\n"),
    ("default_policies naming an unknown variant", BASE + "policies base\ndefault_policies other\n"),
    ("default_policies with no policies", BASE + "default_policies other\n"),
    ("default_policies before its variant", BASE + "default_policies two\npolicies one\npolicies two\n"),
    ("no policies", BASE),
    # What the model itself rejects, reported at line 0.
    ("predicate parameter shadows an identity", BASE + "predicates\n  p(Ann) := at(Ann, a)\n"),
    ("predicate names an unknown set", BASE + "predicates\n  p := inset(Ann, crew)\n"),
    ("predicate names an unknown identity", BASE + "predicates\n  p := at(Zed, a)\n"),
    ("predicate names an unknown action", BASE + "predicates\n  p := enables(a, Ann, fly)\n"),
    ("value outside its alphabet", BASE + "values\n  a = x\nalphabets\n  a: y\n"),
    # Everything at once, in document order.
    (
        "errors in several sections",
        BASE + "values\n  c = x\nedges\n  a b\nsets\n  crew Ann\nlocations\n  b 2\n",
    ),
]

# Words a mutation may put into a line: the document's own keywords and
# punctuation, and names no document declares.
JUNK = ["->", "=", ":", ":=", "foe", "psy", "motives", "impersonates", "at", "allow",
        "if", "move", "put", "eval", "fly", "7", "-1", "Zed", "nowhere", "(", "policies"]


def _mutate(text: str, rng: random.Random) -> str:
    """``text`` after one to three seeded line or word edits."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        words = lines[i].split()
        kind = rng.randrange(9)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif kind == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 3:
            lines[i] = lines[i].strip() if lines[i][:1] == " " else "  " + lines[i]
        elif words and kind == 4:
            donor = rng.choice([w for line in lines for w in line.split()])
            words[rng.randrange(len(words))] = donor
        elif words and kind == 5:
            words[rng.randrange(len(words))] = rng.choice(JUNK)
        elif words and kind == 6:
            del words[rng.randrange(len(words))]
        elif kind == 7:
            words.insert(rng.randrange(len(words) + 1), rng.choice(JUNK))
        else:
            mark = rng.choice([":", "=", ",", "(", ")", " "])
            words = [w.replace(mark, "", 1) for w in words] if words else words
        if kind >= 4 and lines:
            indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
            lines[i] = indent + " ".join(words)
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


def documents():
    """(name, document) pairs: the hand-written cases, then 150 mutations
    of the airplane and 150 of 30 random models."""
    yield from CASES
    airplane = (DATA / "airplane.model").read_text(encoding="utf-8")
    rng = random.Random(13)
    for k in range(150):
        yield f"airplane mutation {k}", _mutate(airplane, rng)
    for seed in range(30):
        text = serialize_model(random_model(seed))
        for k in range(5):
            yield f"random_model({seed}) mutation {k}", _mutate(text, rng)


def _outcome(text: str) -> str:
    try:
        canonical = serialize_model(parse_model(text))
    except Exception as exc:  # noqa: BLE001 - a crash is an outcome to pin too
        return f"{type(exc).__name__}: {exc}"
    return f"ok {hashlib.sha256(canonical.encode()).hexdigest()[:16]}"


def render() -> str:
    return "".join(f"{name} -> {_outcome(text)}\n" for name, text in documents())


def test_sections_match_the_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


def test_every_document_that_parses_round_trips():
    for name, text in documents():
        try:
            model = parse_model(text)
        except ModelParseError:
            continue
        canonical = serialize_model(model)
        assert parse_model(canonical) == model, name
        assert serialize_model(parse_model(canonical)) == canonical, name


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")

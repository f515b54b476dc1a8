"""Line-oriented model document format.

A document is a sequence of sections.  A section starts with a non-indented
header line, the section's name and, for ``policies`` and
``default_policies``, a variant name; its entries follow on indented lines.
Blank lines and ``#`` comments are ignored.  Sections, in canonical order,
and their entry shapes::

    locations        NAME ID
    edges            SRC -> DST
    identities       NAME...
    sets             NAME = ID...
    credentials      ID: TOKEN...
    roles            ID: TOKEN...
    placements       LOC: ID...
    values           LOC = TOKEN
    alphabets        LOC: TOKEN...
    policies NAME    at LOC allow ACTION[,ACTION...] if CONDITION
    default_policies NAME
    insiders         ID impersonates ID... psy PSY [motives M...]
    predicates       NAME[(PARAM)] := EXPR
    assumptions      foe LOC ACTION ID

Policy conditions use atoms ``true``, ``false``, ``requester_at(LOC)``,
``has_cred(TOK)``, ``has_role(TOK)``, ``is_in(LOC, VAL)``,
``count_at_least(LOC, N)``, ``all_at_in(LOC, [ID...])`` (model identities
separated by spaces; a named identity set is accepted in place of the
bracketed list) combined with ``!``, ``&``,
``|`` and parentheses.  Predicate expressions use ``true``, ``false``,
``enables(LOC, ID, ACTION)``, ``at(ID, LOC)``, ``is_in(LOC, VAL)``,
``count_at_least(LOC, N)``, ``inset(ID, SET)`` with the same connectives,
which CTL formulas share as well (see :class:`insiderctl.model.Parser`).
In both, the bound N of ``count_at_least`` is a positive whole number in
ASCII digits; a location ID is a whole number in ASCII digits.  A predicate
NAME is a word that a formula can name: neither digits nor a reserved CTL
word (``EX``, ``A``, ``U``, ...; see :data:`insiderctl.model.RESERVED`).  An
``alphabets`` entry with no tokens (``LOC:``) admits no value at LOC.

Section order is free: ``locations`` and ``identities`` are read first,
then ``sets`` and ``alphabets``, then the rest in document order.  Each
entry gives at most one diagnostic, at its line; the two about the whole
document (no location, an unknown default variant) name line 1.  Each check
has one owner: the reader resolves names and checks what only a document
has (shapes, duplicates, placements, ``default_policies``); for the rest it
runs the record constructors and the ``check_`` functions of
:mod:`insiderctl.model` once, and builds its ``Model`` without running them.

Every token is a word (see :func:`~insiderctl.model.check_name`), so
``serialize_model`` emits a canonical rendering (sections in canonical
order, sorted entries), which ``parse_model`` reads back to an equal model
that serialises to the same bytes.
"""

from __future__ import annotations

import functools
import re
from .model import (
    ActorPsyState,
    AllAtAuthorized,
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
    PAt,
    PBool,
    PEnables,
    PInSet,
    Parser,
    PolicyCondition,
    PredExpr,
    RequesterAt,
    StatePredicate,
    by_id,
    check_atoms,
    check_name,
    check_predicate,
    check_value,
    expr_text,
)
from .record import record

# Each section and the entry shape its diagnostics quote, in canonical
# order.  A default_policies header takes no entries: its argument names
# the active variant.
SHAPES = {
    "locations": "NAME ID",
    "edges": "SRC -> DST",
    "identities": "NAME...",
    "sets": "NAME = ID...",
    "credentials": "ID: TOKEN...",
    "roles": "ID: TOKEN...",
    "placements": "LOC: ID...",
    "values": "LOC = TOKEN",
    "alphabets": "LOC: TOKEN...",
    "policies": "at LOC allow ACTIONS if CONDITION",
    "default_policies": "",
    "insiders": "ID impersonates ID... psy PSY [motives M...]",
    "predicates": "NAME[(PARAM)] := EXPR",
    "assumptions": "foe LOC ACTION ID",
}
SECTIONS = tuple(SHAPES)
# The sections whose header takes an argument, a variant name; no other does.
HEADER_ARGUMENT = frozenset({"policies", "default_policies"})


@record
class Diagnostic:
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class ModelParseError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# ---------------------------------------------------------------------------
# Expression sub-language


_PUNCTUATION = frozenset("!&|(),[]")


def _location(locations: dict, name: str) -> Location:
    """The location ``locations`` (name -> location) has under ``name``."""
    loc = locations.get(name)
    if loc is None:
        raise ModelError(f"unknown location {name!r}")
    return loc


class _AtomParser(Parser):
    """Conditions and predicates: the shared connectives over the atoms of
    ``_ATOMS`` whose class belongs to ``language``, ``PolicyCondition`` or
    ``PredExpr``."""

    TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|\d+)|([!&|(),\[\]])|(\S))")
    END = "expression"
    error = staticmethod(lambda pos, message: ModelError(message))

    def __init__(self, text, language, locations, identity_sets):
        super().__init__(text)
        self.language, self.locations, self.identity_sets = language, locations, identity_sets

    def atom(self, tok):
        if tok in _PUNCTUATION:
            self.fail(f"unexpected {tok!r}")
        if tok == "true" or tok == "false":
            return PBool(tok == "true")
        cls, readers = _ATOMS.get(tok, (None, ()))
        if cls is None or self.language not in cls.__mro__:
            raise ModelError(f"unknown {_KINDS[self.language]} atom {tok!r}")
        args, arity = self.args(), len(readers)
        if len(args) != arity:
            s = "" if arity == 1 else "s"
            raise ModelError(f"{tok} takes {arity} argument{s}, found {len(args)}")
        if cls is AllAtAuthorized:  # the set is resolved before the location, so reported first
            return cls(allowed=self.members(args[1]), loc=self.loc(args[0]))
        return cls(*[read(self, arg) for read, arg in zip(readers, args)])

    def args(self) -> list:
        """Parse a parenthesised argument list: each argument is a word or
        a bracketed list of words, which comes back as a Python list."""
        self.expect("(")
        out = []
        while True:
            tok = self.next()
            if tok == "[":
                names = []
                while (item := self.next()) != "]":
                    if item in _PUNCTUATION:
                        self.fail(f"expected a name or ']', found {item!r}")
                    names.append(item)
                out.append(names)
            elif tok in _PUNCTUATION:
                self.fail(f"expected an argument, found {tok!r}")
            else:
                out.append(tok)
            tok = self.next()
            if tok == ")":
                return out
            if tok != ",":
                raise ModelError(f"expected ',' or ')', found {tok!r}")

    def name(self, arg) -> str:
        if isinstance(arg, list):
            raise ModelError(f"expected a name, found [{' '.join(arg)}]")
        return arg

    def bound(self, arg) -> int:
        """The bound of ``count_at_least``: ASCII digits only."""
        text = self.name(arg)
        if not (text.isascii() and text.isdigit()):
            raise ModelError(f"count_at_least needs a whole-number bound, found {text!r}")
        return int(text)

    def loc(self, arg) -> Location:
        return _location(self.locations, self.name(arg))

    def members(self, arg) -> frozenset:
        """A bracketed identity list, or the members of a named set."""
        if isinstance(arg, list):
            return frozenset(arg)
        if arg not in self.identity_sets:
            raise ModelError(f"unknown identity set {arg!r}")
        return self.identity_sets[arg]


_KINDS = {PolicyCondition: "condition", PredExpr: "predicate"}
# How a field is read by its name; every other field is a name.
_READERS = {"loc": _AtomParser.loc, "count": _AtomParser.bound, "allowed": _AtomParser.members}
# Each atom's name in a document -> its class, whose base gives its language, and the
# reader of each of its fields in ``__match_args__`` order; ``true`` and ``false`` are ``PBool``.
_ATOMS = {
    name: (cls, tuple(_READERS.get(field, _AtomParser.name) for field in cls.__match_args__))
    for name, cls in {
        "requester_at": RequesterAt, "has_cred": HasCred, "has_role": HasRole, "is_in": IsIn,
        "count_at_least": CountAtLeast, "all_at_in": AllAtAuthorized, "enables": PEnables,
        "at": PAt, "inset": PInSet,
    }.items()
}
# Atom class -> its name in a document; its fields print in order (see _atom_text).
_ATOM_NAMES = {cls: name for name, (cls, _) in _ATOMS.items()}


def parse_condition(text: str, locations: dict, identity_sets: dict) -> PolicyCondition:
    return _AtomParser(text, PolicyCondition, locations, identity_sets).parse()


def _atom_text(atom) -> str:
    """An atom's name and its fields in order: a location by its name, an
    identity list in brackets, sorted, and anything else as ``str``."""
    cls = type(atom)
    if cls is PBool:
        return "true" if atom.value else "false"
    name = _ATOM_NAMES.get(cls)
    if name is None:
        raise ModelError(f"unknown expression node {atom!r}")
    args = []
    for field in cls.__match_args__:
        arg = getattr(atom, field)
        if type(arg) is Location:
            arg = arg.name
        elif type(arg) is frozenset:
            arg = f"[{' '.join(sorted(arg))}]"
        args.append(str(arg))
    return f"{name}({', '.join(args)})"


def condition_text(expr: PolicyCondition | PredExpr) -> str:
    """A policy condition's or a predicate body's text in a document."""
    return expr_text(expr, _atom_text)


# ---------------------------------------------------------------------------
# Parsing

_PREDICATE = re.compile(r"(\w+)\s*(?:\((\w+)\))?\s*:=\s*(.*)")


@functools.cache
def _pattern(shape: str) -> re.Pattern:
    """A shape as a pattern of whitespace-separated words: ``CONDITION``
    takes the rest of the line, another upper-case word stands for any
    word, and a lower-case word (``->``, ``=``, ``foe``) for itself."""
    return re.compile(r"\s+".join(
        "(.*)" if w == "CONDITION" else r"(\S+)" if w.isupper() else re.escape(w)
        for w in shape.split()
    ))


# The sections read first, in this order: the others name what they declare.
_DECLARATIONS = {"locations": 0, "identities": 0, "sets": 1, "alphabets": 1}


class _Reader:
    """What a document has declared so far, and one ``read_<section>``
    method per section that reads one entry's text and raises
    :class:`ModelError` for what is wrong with it.  A diagnostic that quotes
    a shape quotes the one ``SHAPES`` gives the section being read."""

    def __init__(self) -> None:
        self.errors: list[Diagnostic] = []
        # The section being read: its shape and, for policies, its variant's map.
        self.shape, self.variant, self.pmap = "", None, None
        # Name -> Location, set name -> members, identity names, edge pairs.
        self.locations, self.identity_sets, self.identities, self.edges = {}, {}, set(), set()
        # The initial snapshot: identity -> tokens, location -> identities or value.
        self.credentials, self.roles, self.placements, self.values = {}, {}, {}, {}
        # Location -> alphabet, variant -> location -> policies, name -> predicate.
        self.value_alphabet, self.policy_variants, self.named_predicates = {}, {}, {}
        self.insiders, self.assumptions = [], []
        # What check_atoms checks names against: the locations, and the live tables above.
        self.names = set(), self.identities, self.identity_sets

    def fail(self, line: int, message: str) -> None:
        self.errors.append(Diagnostic(line, message))

    def expected(self, text: str):
        raise ModelError(f"expected '{self.shape}', found {text!r}")

    def words(self, text: str) -> tuple[str, ...]:
        """The words of ``text`` that stand for the shape's upper-case
        words; see :func:`_pattern`."""
        m = _pattern(self.shape).fullmatch(text)
        return m.groups() if m else self.expected(text)

    def split(self, text: str) -> tuple[str, list[str]]:
        """The text before the shape's ``:`` or ``=`` and the words after it."""
        key, mark, rest = text.partition(":" if ":" in self.shape else "=")
        return (key.strip(), rest.split()) if mark else self.expected(text)

    def loc(self, name: str) -> Location:
        return _location(self.locations, name)

    def ident(self, name: str) -> str:
        if name not in self.identities:
            raise ModelError(f"unknown identity {name!r}")
        return name

    def expression(self, text: str, language: type):
        try:
            return _AtomParser(text, language, self.locations, self.identity_sets).parse()
        except ModelError as exc:
            raise ModelError(f"bad {_KINDS[language]}: {exc}") from None

    def read(self, text: str) -> Model:
        """Read the sections in ``_DECLARATIONS`` first, then the others in
        document order, each entry inside one ``try``."""
        sections, entries = [], None
        for line, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if raw[0] in " \t":
                if entries is None:
                    self.fail(line, "entry outside of any section")
                else:
                    entries.append((line, stripped))
                continue
            name, *args = stripped.split()
            entries = None
            if name not in SHAPES:
                self.fail(line, f"unknown section {name!r}")
                continue
            try:
                if args and name not in HEADER_ARGUMENT:
                    raise ModelError(f"section header {name!r} takes no argument")
                if len(args) > 1:
                    raise ModelError(f"section header {name!r} takes at most one argument")
                if args:
                    check_name(args[0], "variant name")
            except ModelError as exc:
                self.fail(line, str(exc))
            entries = []
            sections.append((name, args[0] if args else None, line, entries))
        sections.sort(key=lambda s: _DECLARATIONS.get(s[0], 2))
        for name, arg, header, entries in sections:
            self.shape, read = SHAPES[name], getattr(self, f"read_{name}")
            if name == "policies":
                self.pmap = self.policy_variants.setdefault(arg or "baseline", {})
            for line, text in entries:
                try:
                    read(text)
                except ModelError as exc:
                    self.fail(line, str(exc))
            if name == "default_policies":
                if arg is None:
                    self.fail(header, "default_policies needs a variant name")
                self.variant = arg or self.variant
        return self.model()

    def read_locations(self, text: str) -> None:
        name, lid = self.words(text)
        if not (lid.isascii() and lid.isdigit()):
            self.expected(text)
        if name in self.locations or any(l.id == int(lid) for l in self.locations.values()):
            raise ModelError(f"duplicate location {name!r} / id {int(lid)}")
        self.locations[name] = loc = Location(int(lid), name)
        self.names[0].add(loc)

    def read_edges(self, text: str) -> None:
        src, dst = self.words(text)
        self.edges.add((self.loc(src), self.loc(dst)))

    def read_identities(self, text: str) -> None:
        names, known = text.split(), set(self.identities)
        self.identities.update(names)  # even if at fault, so no later entry finds them unknown
        for i, name in enumerate(names):
            if name in known or name in names[:i]:
                raise ModelError(f"duplicate identity {name!r}")
            check_name(name, "identity")

    def read_sets(self, text: str) -> None:
        name, members = self.split(text)
        check_name(name, "set name")
        if name in self.identity_sets:
            raise ModelError(f"duplicate set {name!r}")
        self.identity_sets[name] = frozenset(map(self.ident, members))

    def read_credentials(self, text: str, table: str = "credentials") -> None:
        ident, tokens = self.split(text)
        ident = self.ident(ident)
        for token in tokens:
            check_name(token, table[:-1])
        getattr(self, table).setdefault(ident, set()).update(tokens)

    def read_roles(self, text: str) -> None:
        self.read_credentials(text, "roles")

    def read_placements(self, text: str) -> None:
        where, names = self.split(text)
        loc = self.loc(where)
        if loc in self.placements:
            raise ModelError(f"duplicate placement entry for {loc}")
        if len(set(map(self.ident, names))) != len(names):
            raise ModelError(f"identity placed twice at {loc}")
        placed = {i for ids in self.placements.values() for i in ids} & set(names)
        if placed:
            raise ModelError(f"identity {min(placed)!r} is already placed elsewhere")
        self.placements[loc] = tuple(names)

    def read_values(self, text: str) -> None:
        where, value = self.words(text)
        loc = self.loc(where)
        if loc in self.values:
            raise ModelError(f"duplicate value for {loc}")
        check_name(value, "value")
        check_value(loc, value, self.value_alphabet)
        self.values[loc] = value

    def read_alphabets(self, text: str) -> None:
        where, tokens = self.split(text)
        loc = self.loc(where)
        if loc in self.value_alphabet:
            raise ModelError(f"duplicate alphabet for {loc}")
        for token in tokens:
            check_name(token, "value")
        self.value_alphabet[loc] = frozenset(tokens)

    def read_policies(self, text: str) -> None:
        where, actions, text = self.words(text)
        loc, cond = self.loc(where), self.expression(text, PolicyCondition)
        policy = AtomicPolicy(cond, actions.split(","))
        check_atoms(cond, "policy condition", PolicyCondition, *self.names)
        self.pmap.setdefault(loc, set()).add(policy)

    def read_default_policies(self, text: str) -> None:
        raise ModelError(f"default_policies takes no entries, found {text!r}")

    def read_insiders(self, text: str) -> None:
        words = text.split()
        try:
            psy_at = max(i for i, w in enumerate(words) if w == "psy")  # an identity may be "psy"
            who, verb, egos = words[0], words[1], words[2:psy_at]
            psy, motives = words[psy_at + 1], words[psy_at + 2:]
        except (IndexError, ValueError):
            verb = None
        if verb != "impersonates" or motives[:1] not in ([], ["motives"]):
            self.expected(text)
        state = ActorPsyState(psy, motives[1:])
        self.insiders.append(InsiderDecl(self.ident(who), [*map(self.ident, egos)], state))

    def read_predicates(self, text: str) -> None:
        name, param, body = (_PREDICATE.fullmatch(text) or self.expected(text)).groups()
        expr = self.expression(body, PredExpr)
        if name in self.named_predicates:
            raise ModelError(f"duplicate predicate {name!r}")
        pred = StatePredicate(name, expr, param=param)
        check_predicate(pred, *self.names)
        self.named_predicates[name] = pred

    def read_assumptions(self, text: str) -> None:
        where, action, foe = self.words(text)
        assumption = FoeControl(self.loc(where), action, foe)
        self.ident(foe)
        self.assumptions.append(assumption)

    def model(self) -> Model:
        if not self.locations:
            self.fail(1, "a model needs at least one location")
        variants = self.policy_variants or {"baseline": {}}
        if self.variant is None:
            self.variant = next(iter(variants))
        elif self.variant not in variants:
            self.fail(1, f"default_policies names unknown variant {self.variant!r}")
        if self.errors:
            raise ModelParseError(self.errors)
        edges = frozenset(self.edges)  # one set, which the model and its snapshots share
        # Each entry passed Model's checks at its line: build it without them.
        model = Model.__new__(Model)
        vars(model).update(
            locations=self.locations.values(), edges=edges, identities=self.identities,
            initial=InfraGraph(edges, self.placements, self.credentials, self.roles, self.values),
            policy_variants=variants, variant=self.variant, value_alphabet=self.value_alphabet,
            insiders=self.insiders, identity_sets=self.identity_sets,
            named_predicates=self.named_predicates, assumptions=self.assumptions,
        )
        model._normalise()
        return model


def parse_model(text: str) -> Model:
    """Parse a model document; raises :class:`ModelParseError` carrying all
    positioned diagnostics when the document is invalid."""
    return _Reader().read(text)


# ---------------------------------------------------------------------------
# Serialization


def serialize_model(model: Model) -> str:
    """Canonical document rendering: sections in ``SHAPES`` order, entries
    sorted.  An empty section is left out, unless its header names a
    policy variant."""
    graph, alphabet, variants = model.initial, model.value_alphabet, model.policy_variants
    # Each condition's text, once, though variants may share a condition.
    policies = [p for pmap in variants.values() for ps in pmap.values() for p in ps]
    conditions = {id(p.condition): p.condition for p in policies}
    texts = {key: condition_text(cond) for key, cond in conditions.items()}
    edges = sorted(model.edges, key=lambda e: (e[0].id, e[1].id))
    creds, roles, placed = graph.credentials, graph.roles, graph.placements
    sections = [
        ("locations", [f"{l.name} {l.id}" for l in model.locations]),
        ("edges", [f"{a.name} -> {b.name}" for a, b in edges]),
        ("identities", sorted(model.identities)),
        ("sets", [f"{n} = {' '.join(sorted(m))}" for n, m in sorted(model.identity_sets.items())]),
        ("credentials", [f"{i}: {' '.join(sorted(creds[i]))}" for i in sorted(creds)]),
        ("roles", [f"{i}: {' '.join(sorted(roles[i]))}" for i in sorted(roles)]),
        ("placements", [f"{l.name}: {' '.join(placed[l])}" for l in by_id(placed)]),
        ("values", [f"{l.name} = {graph.loc_value[l]}" for l in by_id(graph.loc_value)]),
        ("alphabets", [" ".join([f"{l.name}:", *sorted(alphabet[l])]) for l in by_id(alphabet)]),
        *((f"policies {v}", _policy_lines(variants[v], texts)) for v in sorted(variants)),
        (f"default_policies {model.variant}", []),
        ("insiders", [
            f"{d.id} impersonates {' '.join(sorted(d.alter_egos))} psy {d.state.psy}"
            + (f" motives {' '.join(sorted(d.state.motivations))}" if d.state.motivations else "")
            for d in sorted(model.insiders, key=lambda d: d.id)
        ]),
        ("predicates", [
            f"{p.name}{f'({p.param})' if p.param else ''} := {condition_text(p.body)}"
            for _, p in sorted(model.named_predicates.items())
        ]),
        ("assumptions", [f"foe {f.location.name} {f.action} {f.foe}" for f in model.assumptions]),
    ]
    kept = [[header, *entries] for header, entries in sections if entries or " " in header]
    return "\n\n".join(map("\n  ".join, kept)) + "\n"


def _policy_lines(pmap: dict, texts: dict) -> list[str]:
    """A variant's policy entries; ``texts`` maps ``id(condition)`` to its text."""
    return [
        f"at {loc.name} allow {actions} if {cond}"
        for loc in by_id(pmap)
        for actions, cond in sorted(
            (",".join(sorted(p.actions)), texts[id(p.condition)]) for p in pmap[loc]
        )
    ]

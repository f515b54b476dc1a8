"""Line-oriented model document format.

A document is a sequence of sections.  A section starts with a non-indented
header line (``locations``, ``edges``, ``identities``, ``sets``,
``credentials``, ``roles``, ``placements``, ``values``, ``alphabets``,
``policies <name>``, ``default_policies <name>``, ``insiders``,
``predicates``, ``assumptions``); its entries follow on indented lines.
Blank lines and ``#`` comments are ignored.  Entry shapes::

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
    insiders         ID impersonates ID... psy PSY [motives M...]
    predicates       NAME[(PARAM)] := EXPR
    assumptions      foe LOC ACTION ID

Policy conditions use atoms ``true``, ``requester_at(LOC)``,
``has_cred(TOK)``, ``has_role(TOK)``, ``is_in(LOC, VAL)``,
``count_at_least(LOC, N)``, ``all_at_in(LOC, [ID...])`` (model identities
separated by spaces; a named identity set is accepted in place of the
bracketed list) combined with ``!``, ``&``,
``|`` and parentheses.  Predicate expressions use ``true``, ``false``,
``enables(LOC, ID, ACTION)``, ``at(ID, LOC)``, ``is_in(LOC, VAL)``,
``count_at_least(LOC, N)``, ``inset(ID, SET)`` with the same connectives,
which CTL formulas share as well (see :class:`insiderctl.model.Parser`).

``serialize_model`` emits a canonical rendering (fixed section order,
sorted entries) and ``parse_model(serialize_model(m))`` is structurally
equal to ``m``.  Validation failures are collected and reported together
with their line numbers.
"""

from __future__ import annotations

import re
from .model import (
    ACTIONS,
    MOTIVATIONS,
    PSY_STATES,
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
    PCountAtLeast,
    PEnables,
    PInSet,
    PIsIn,
    Parser,
    PolicyCondition,
    PredExpr,
    RequesterAt,
    StatePredicate,
    TrueCond,
    expr_text,
)
from .record import record

SECTIONS = (
    "locations",
    "edges",
    "identities",
    "sets",
    "credentials",
    "roles",
    "placements",
    "values",
    "alphabets",
    "policies",
    "default_policies",
    "insiders",
    "predicates",
    "assumptions",
)


@record(frozen=True)
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


class _AtomParser(Parser):
    """Conditions and predicates: the shared connectives over a table that
    maps each atom name to a builder.  A builder takes the parser and the
    atom's arguments, so its parameter count fixes the atom's arity."""

    TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|\d+)|([!&|(),\[\]])|(\S))")
    END = "expression"
    error = staticmethod(lambda pos, message: ModelError(message))

    def __init__(self, text, atoms, kind, locations, identity_sets=None, identities=None):
        super().__init__(text)
        self.atoms, self.kind = atoms, kind
        self.locations, self.identity_sets = locations, identity_sets
        self.identities = identities

    def atom(self, tok):
        build = self.atoms.get(tok)
        arity = build.__code__.co_argcount - 1 if build else None
        if arity == 0:
            return build(self)
        args = self.args()
        if build is None:
            raise ModelError(f"unknown {self.kind} atom {tok!r}")
        if len(args) != arity:
            s = "" if arity == 1 else "s"
            raise ModelError(f"{tok} takes {arity} argument{s}, found {len(args)}")
        return build(self, *args)

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
        loc = self.locations.get(self.name(arg))
        if loc is None:
            raise ModelError(f"unknown location {arg!r}")
        return loc

    def members(self, arg) -> frozenset:
        """A bracketed identity list, or the members of a named set."""
        if isinstance(arg, list):
            unknown = sorted(set(arg) - self.identities) if self.identities is not None else ()
            if unknown:
                raise ModelError(f"unknown identity {unknown[0]!r}")
            return frozenset(arg)
        if arg not in self.identity_sets:
            raise ModelError(f"unknown identity set {arg!r}")
        return self.identity_sets[arg]


_CONDITION_ATOMS = {
    "true": lambda p: TrueCond(),
    "requester_at": lambda p, l: RequesterAt(p.loc(l)),
    "has_cred": lambda p, c: HasCred(p.name(c)),
    "has_role": lambda p, r: HasRole(p.name(r)),
    "is_in": lambda p, l, v: IsIn(p.loc(l), p.name(v)),
    "count_at_least": lambda p, l, n: CountAtLeast(p.loc(l), p.bound(n)),
    # The set is resolved before the location, so it is reported first.
    "all_at_in": lambda p, l, who: AllAtAuthorized(allowed=p.members(who), loc=p.loc(l)),
}

_PREDICATE_ATOMS = {
    "true": lambda p: PBool(True),
    "false": lambda p: PBool(False),
    "enables": lambda p, l, i, a: PEnables(p.loc(l), p.name(i), p.name(a)),
    "at": lambda p, i, l: PAt(p.name(i), p.loc(l)),
    "is_in": lambda p, l, v: PIsIn(p.loc(l), p.name(v)),
    "count_at_least": lambda p, l, n: PCountAtLeast(p.loc(l), p.bound(n)),
    "inset": lambda p, i, s: PInSet(p.name(i), p.name(s)),
}

# Atom class -> its name in a document; its fields print in order.
_ATOM_NAMES = {
    RequesterAt: "requester_at", HasCred: "has_cred", HasRole: "has_role", IsIn: "is_in",
    CountAtLeast: "count_at_least", AllAtAuthorized: "all_at_in", PEnables: "enables",
    PAt: "at", PIsIn: "is_in", PCountAtLeast: "count_at_least", PInSet: "inset",
}


def parse_condition(
    text: str, locations: dict, identity_sets: dict, identities=None
) -> PolicyCondition:
    """Parse a policy condition; with ``identities``, a bracketed identity
    list may only name those."""
    return _AtomParser(
        text, _CONDITION_ATOMS, "condition", locations, identity_sets, identities
    ).parse()


def parse_predicate_expr(text: str, locations: dict) -> PredExpr:
    return _AtomParser(text, _PREDICATE_ATOMS, "predicate", locations).parse()


def _arg_text(arg) -> str:
    if isinstance(arg, Location):
        return arg.name
    return f"[{' '.join(sorted(arg))}]" if isinstance(arg, frozenset) else str(arg)


def _atom_text(atom) -> str:
    if isinstance(atom, (TrueCond, PBool)):
        return "false" if atom == PBool(False) else "true"
    name = _ATOM_NAMES.get(type(atom))
    if name is None:
        raise ModelError(f"unknown expression node {atom!r}")
    return f"{name}({', '.join(map(_arg_text, vars(atom).values()))})"


def condition_text(cond: PolicyCondition) -> str:
    return expr_text(cond, _atom_text)


def predicate_text(expr: PredExpr) -> str:
    return expr_text(expr, _atom_text)


# ---------------------------------------------------------------------------
# Parsing


@record
class _Entry:
    line: int
    text: str


def _split_sections(text: str, errors: list[Diagnostic]):
    sections: list[tuple[str, str | None, int, list[_Entry]]] = []
    current: list[_Entry] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indented = raw[0] in (" ", "\t")
        if not indented:
            parts = stripped.split()
            keyword, arg = parts[0], (parts[1] if len(parts) > 1 else None)
            if keyword not in SECTIONS:
                errors.append(Diagnostic(lineno, f"unknown section {keyword!r}"))
                current = None
                continue
            if len(parts) > 2:
                errors.append(Diagnostic(lineno, f"section header {keyword!r} takes at most one argument"))
            current = []
            sections.append((keyword, arg, lineno, current))
        else:
            if current is None:
                errors.append(Diagnostic(lineno, "entry outside of any section"))
                continue
            current.append(_Entry(lineno, stripped))
    return sections


def parse_model(text: str) -> Model:
    """Parse a model document; raises :class:`ModelParseError` carrying all
    positioned diagnostics when the document is invalid."""
    errors: list[Diagnostic] = []
    sections = _split_sections(text, errors)

    locations: dict[str, Location] = {}
    edges = set()
    identities: set[str] = set()
    identity_sets: dict[str, frozenset[str]] = {}
    credentials: dict[str, set[str]] = {}
    roles: dict[str, set[str]] = {}
    placements: dict[Location, tuple[str, ...]] = {}
    values: dict[Location, str] = {}
    alphabets: dict[Location, frozenset[str]] = {}
    policy_variants: dict[str, dict] = {}
    default_variant: str | None = None
    insiders: list[InsiderDecl] = []
    predicates: dict[str, StatePredicate] = {}
    assumptions: list[FoeControl] = []

    def fail(entry: _Entry, message: str) -> None:
        errors.append(Diagnostic(entry.line, message))

    def known_loc(entry: _Entry, name: str) -> Location | None:
        loc = locations.get(name)
        if loc is None:
            fail(entry, f"unknown location {name!r}")
        return loc

    def known_ident(entry: _Entry, name: str) -> str | None:
        if name not in identities:
            fail(entry, f"unknown identity {name!r}")
            return None
        return name

    # Pass 1: declarations that later sections reference.
    for keyword, arg, lineno, entries in sections:
        if keyword == "locations":
            for e in entries:
                parts = e.text.split()
                if len(parts) != 2 or not parts[1].isdigit():
                    fail(e, f"expected 'NAME ID', found {e.text!r}")
                    continue
                name, lid = parts[0], int(parts[1])
                if name in locations or any(l.id == lid for l in locations.values()):
                    fail(e, f"duplicate location {name!r} / id {lid}")
                    continue
                locations[name] = Location(lid, name)
        elif keyword == "identities":
            for e in entries:
                for name in e.text.split():
                    if name in identities:
                        fail(e, f"duplicate identity {name!r}")
                    identities.add(name)

    for keyword, arg, lineno, entries in sections:
        if keyword in ("locations", "identities"):
            continue
        if keyword == "edges":
            for e in entries:
                parts = e.text.split()
                if len(parts) != 3 or parts[1] != "->":
                    fail(e, f"expected 'SRC -> DST', found {e.text!r}")
                    continue
                a, b = known_loc(e, parts[0]), known_loc(e, parts[2])
                if a and b:
                    edges.add((a, b))
        elif keyword == "sets":
            for e in entries:
                if "=" not in e.text:
                    fail(e, f"expected 'NAME = ID...', found {e.text!r}")
                    continue
                name, _, rest = e.text.partition("=")
                members = [known_ident(e, i) for i in rest.split()]
                if None not in members:
                    identity_sets[name.strip()] = frozenset(members)
        elif keyword in ("credentials", "roles"):
            target = credentials if keyword == "credentials" else roles
            for e in entries:
                if ":" not in e.text:
                    fail(e, f"expected 'ID: TOKEN...', found {e.text!r}")
                    continue
                ident, _, rest = e.text.partition(":")
                if known_ident(e, ident.strip()):
                    target.setdefault(ident.strip(), set()).update(rest.split())
        elif keyword == "placements":
            for e in entries:
                if ":" not in e.text:
                    fail(e, f"expected 'LOC: ID...', found {e.text!r}")
                    continue
                locname, _, rest = e.text.partition(":")
                loc = known_loc(e, locname.strip())
                if loc is None:
                    continue
                if loc in placements:
                    fail(e, f"duplicate placement entry for {loc}")
                    continue
                names = rest.split()
                ok = True
                for n in names:
                    if known_ident(e, n) is None:
                        ok = False
                if len(set(names)) != len(names):
                    fail(e, f"identity placed twice at {loc}")
                    ok = False
                already = {i for ids in placements.values() for i in ids}
                dup = already & set(names)
                if dup:
                    fail(e, f"identity {sorted(dup)[0]!r} is already placed elsewhere")
                    ok = False
                if ok:
                    placements[loc] = tuple(names)
        elif keyword == "values":
            for e in entries:
                parts = e.text.split()
                if len(parts) != 3 or parts[1] != "=":
                    fail(e, f"expected 'LOC = TOKEN', found {e.text!r}")
                    continue
                loc = known_loc(e, parts[0])
                if loc:
                    values[loc] = parts[2]
        elif keyword == "alphabets":
            for e in entries:
                if ":" not in e.text:
                    fail(e, f"expected 'LOC: TOKEN...', found {e.text!r}")
                    continue
                locname, _, rest = e.text.partition(":")
                loc = known_loc(e, locname.strip())
                if loc:
                    alphabets[loc] = frozenset(rest.split())
        elif keyword == "policies":
            name = arg or "baseline"
            pmap = policy_variants.setdefault(name, {})
            for e in entries:
                m = re.fullmatch(r"at\s+(\S+)\s+allow\s+(\S+)\s+if\s+(.*)", e.text)
                if not m:
                    fail(e, f"expected 'at LOC allow ACTIONS if CONDITION', found {e.text!r}")
                    continue
                loc = known_loc(e, m.group(1))
                if loc is None:
                    continue
                actions = frozenset(m.group(2).split(","))
                bad = actions - set(ACTIONS)
                if bad:
                    fail(e, f"unknown action {sorted(bad)[0]!r}")
                    continue
                try:
                    cond = parse_condition(m.group(3), locations, identity_sets, identities)
                except ValueError as exc:
                    fail(e, f"bad condition: {exc}")
                    continue
                pmap.setdefault(loc, set()).add(AtomicPolicy(cond, actions))
        elif keyword == "default_policies":
            if arg is None:
                errors.append(Diagnostic(lineno, "default_policies needs a variant name"))
            else:
                default_variant = arg
        elif keyword == "insiders":
            for e in entries:
                tokens = e.text.split()
                try:
                    who = tokens[0]
                    if tokens[1] != "impersonates":
                        raise ValueError
                    psy_at = tokens.index("psy")
                    egos = tokens[2:psy_at]
                    psy = tokens[psy_at + 1]
                    motives = tokens[psy_at + 2:]
                    if motives:
                        if motives[0] != "motives":
                            raise ValueError
                        motives = motives[1:]
                except (IndexError, ValueError):
                    fail(e, f"expected 'ID impersonates ID... psy PSY [motives M...]', found {e.text!r}")
                    continue
                if psy not in PSY_STATES:
                    fail(e, f"unknown psy state {psy!r}")
                    continue
                bad = set(motives) - set(MOTIVATIONS)
                if bad:
                    fail(e, f"unknown motivation {sorted(bad)[0]!r}")
                    continue
                if known_ident(e, who) is None or any(known_ident(e, x) is None for x in egos):
                    continue
                try:
                    insiders.append(
                        InsiderDecl(who, frozenset(egos), ActorPsyState(psy, frozenset(motives)))
                    )
                except ModelError as exc:
                    fail(e, str(exc))
        elif keyword == "predicates":
            for e in entries:
                m = re.fullmatch(r"(\w+)\s*(?:\((\w+)\))?\s*:=\s*(.*)", e.text)
                if not m:
                    fail(e, f"expected 'NAME[(PARAM)] := EXPR', found {e.text!r}")
                    continue
                name, param, body = m.group(1), m.group(2), m.group(3)
                try:
                    expr = parse_predicate_expr(body, locations)
                except ValueError as exc:
                    fail(e, f"bad predicate: {exc}")
                    continue
                if name in predicates:
                    fail(e, f"duplicate predicate {name!r}")
                    continue
                predicates[name] = StatePredicate(name, expr, param=param)
        elif keyword == "assumptions":
            for e in entries:
                parts = e.text.split()
                if len(parts) != 4 or parts[0] != "foe":
                    fail(e, f"expected 'foe LOC ACTION ID', found {e.text!r}")
                    continue
                loc = known_loc(e, parts[1])
                if loc is None:
                    continue
                if parts[2] not in ACTIONS:
                    fail(e, f"unknown action {parts[2]!r}")
                    continue
                if known_ident(e, parts[3]) is None:
                    continue
                assumptions.append(FoeControl(loc, parts[2], parts[3]))

    if not locations:
        errors.append(Diagnostic(1, "a model needs at least one location"))
    if not policy_variants:
        policy_variants["baseline"] = {}
    if default_variant is None:
        default_variant = next(iter(policy_variants))
    elif default_variant not in policy_variants:
        errors.append(Diagnostic(1, f"default_policies names unknown variant {default_variant!r}"))

    if errors:
        raise ModelParseError(errors)

    try:
        initial = InfraGraph(frozenset(edges), placements, credentials, roles, values)
        return Model(
            locations=tuple(locations.values()),
            edges=frozenset(edges),
            identities=frozenset(identities),
            initial=initial,
            policy_variants={
                name: {loc: frozenset(pols) for loc, pols in pmap.items()}
                for name, pmap in policy_variants.items()
            },
            variant=default_variant,
            value_alphabet=alphabets,
            insiders=tuple(insiders),
            identity_sets=identity_sets,
            named_predicates=predicates,
            assumptions=tuple(assumptions),
        )
    except ModelError as exc:
        raise ModelParseError([Diagnostic(0, str(exc))]) from exc


# ---------------------------------------------------------------------------
# Serialization


def serialize_model(model: Model) -> str:
    """Canonical document rendering: fixed section order, sorted entries."""
    out: list[str] = []

    def section(header: str, entries) -> None:
        entries = list(entries)
        if not entries and header.split()[0] != "policies":
            return
        out.append(header)
        out.extend(f"  {e}" for e in entries)
        out.append("")

    locs = list(model.locations)
    section("locations", (f"{l.name} {l.id}" for l in locs))
    section(
        "edges",
        (f"{a.name} -> {b.name}" for a, b in sorted(model.edges, key=lambda e: (e[0].id, e[1].id))),
    )
    section("identities", sorted(model.identities))
    section(
        "sets",
        (
            f"{name} = {' '.join(sorted(members))}"
            for name, members in sorted(model.identity_sets.items())
        ),
    )
    graph = model.initial
    section(
        "credentials",
        (
            f"{ident}: {' '.join(sorted(graph.credentials[ident]))}"
            for ident in sorted(graph.credentials)
        ),
    )
    section(
        "roles",
        (f"{ident}: {' '.join(sorted(graph.roles[ident]))}" for ident in sorted(graph.roles)),
    )
    section(
        "placements",
        (
            f"{loc.name}: {' '.join(graph.placements[loc])}"
            for loc in sorted(graph.placements, key=lambda l: l.id)
        ),
    )
    section(
        "values",
        (
            f"{loc.name} = {graph.loc_value[loc]}"
            for loc in sorted(graph.loc_value, key=lambda l: l.id)
        ),
    )
    section(
        "alphabets",
        (
            f"{loc.name}: {' '.join(sorted(model.value_alphabet[loc]))}"
            for loc in sorted(model.value_alphabet, key=lambda l: l.id)
            if model.value_alphabet[loc]
        ),
    )
    for vname in sorted(model.policy_variants):
        pmap = model.policy_variants[vname]
        lines = []
        for loc in sorted(pmap, key=lambda l: l.id):
            for pol in sorted(
                pmap[loc], key=lambda p: (",".join(sorted(p.actions)), condition_text(p.condition))
            ):
                lines.append(
                    f"at {loc.name} allow {','.join(sorted(pol.actions))} if {condition_text(pol.condition)}"
                )
        section(f"policies {vname}", lines)
    out.append(f"default_policies {model.variant}")
    out.append("")
    section(
        "insiders",
        (
            f"{d.id} impersonates {' '.join(sorted(d.alter_egos))} psy {d.state.psy}"
            + (f" motives {' '.join(sorted(d.state.motivations))}" if d.state.motivations else "")
            for d in sorted(model.insiders, key=lambda d: d.id)
        ),
    )
    section(
        "predicates",
        (
            f"{p.name}{f'({p.param})' if p.param else ''} := {predicate_text(p.body)}"
            for _, p in sorted(model.named_predicates.items())
        ),
    )
    section(
        "assumptions",
        (
            f"foe {fc.location.name} {fc.action} {fc.foe}"
            for fc in sorted(model.assumptions, key=lambda f: (f.location.id, f.action, f.foe))
        ),
    )
    return "\n".join(out).rstrip("\n") + "\n"

"""Core domain model: locations, infrastructure graphs, policies, insiders.

An :class:`InfraGraph` is one snapshot of the world: where every actor is,
which credentials and roles they hold, and the value stored at each location.
A :class:`Model` wraps an initial snapshot with the static problem
definition: the location set, one or more named policy maps, value alphabets,
insider declarations, named state predicates, and evaluation-time
assumptions.

Identities are plain strings, and so are actor classes: a class is named by
its representative, its least member.  An insider declaration whose
psychological tipping point is reached collapses its identity with each
declared alter ego into one actor class; every other identity stays in a
singleton class named by itself.  All capability checks (``enables``, policy
conditions, state predicates) operate on actor classes, so the insider
inherits the placements, credentials, and roles of its alter egos.

Policy conditions, state predicates and CTL formulas (whose atom is
:class:`Pred`) are trees of the shared connectives over one set of atom
records.  :func:`vector_condition` compiles any such tree over a model's
state vector and says what each atom means: :func:`enables`,
:func:`eval_predicate` and the witness search run it.  Its one twin is
``nextstate._cond``, which writes the same meaning into the generated
row writer; ``tests/test_nextstate.py`` checks that the two agree.
Each check of a model's names has one owner here, which :class:`Model` and
the document reader each run once: a record's constructor or a ``check_`` function.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from operator import attrgetter
from types import MappingProxyType

from .record import record

ACTIONS = ("get", "move", "eval", "put")
# The words of CTL formulas' operators, which no predicate may take as its name.
RESERVED = frozenset({"EX", "AX", "EF", "AF", "EG", "AG", "E", "A", "U", "R"})

PSY_STATES = ("happy", "depressed", "disgruntled", "angry", "stressed")
MOTIVATIONS = (
    "financial",
    "political",
    "revenge",
    "curious",
    "competitive_advantage",
    "power",
    "peer_recognition",
)


class ModelError(ValueError):
    """A model (or one of its parts) violates a structural invariant."""


_EMPTY: frozenset = frozenset()


def check_name(value: str, what: str) -> None:
    """Reject ``value`` unless it is a word of the model document.  Every
    token a document writes is one: names of locations, identities, sets,
    predicates, parameters and variants, credentials, roles and values."""
    word = isinstance(value, str) and value.isascii()
    if not (word and (value.isidentifier() or value.isdigit())):
        raise ModelError(f"{what} must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): {value!r}")


def check_names(groups) -> None:
    """:func:`check_name` on every word of ``groups``, ``(what, words)``
    pairs.  When all words are ASCII identifiers, one pass in C shows it;
    otherwise each group is checked in order, its words sorted by ``str``,
    which names the least word at fault."""
    words = [word for _, group in groups for word in group]
    try:
        if "".join(words).isascii() and all(map(str.isidentifier, words)):
            return
    except TypeError:  # a word that is not a string
        pass
    for what, group in groups:
        for word in sorted(group, key=str):
            check_name(word, what)


@record
class Location:
    """A named node of the infrastructure map.  Ordered by numeric id."""

    id: int
    name: str

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ModelError(f"location id must be non-negative: {self.id}")
        check_name(self.name, "location name")

    def __str__(self) -> str:
        return self.name


def by_id(locations) -> list[Location]:
    return sorted(locations, key=attrgetter("id", "name"))


@record
class ActorPsyState:
    """Psychological disposition: one psychic state plus a motivation set."""

    psy: str
    motivations: frozenset[str]

    def __post_init__(self) -> None:
        if self.psy not in PSY_STATES:
            raise ModelError(f"unknown psy state {self.psy!r}")
        object.__setattr__(self, "motivations", frozenset(self.motivations))
        if bad := self.motivations - set(MOTIVATIONS):
            raise ModelError(f"unknown motivation {min(bad)!r}")


def tipping_point(state: ActorPsyState) -> bool:
    """True when motivations are non-empty and the psychic state is not happy."""
    return bool(state.motivations) and state.psy != "happy"


@record
class InsiderDecl:
    """Declares that ``id`` can impersonate each identity in ``alter_egos``
    once its tipping point is reached."""

    id: str
    alter_egos: frozenset[str]
    state: ActorPsyState

    def __post_init__(self) -> None:
        check_name(self.id, "insider identity")
        object.__setattr__(self, "alter_egos", frozenset(self.alter_egos))
        if self.id in self.alter_egos:
            raise ModelError(f"insider {self.id!r} cannot list itself as an alter ego")


@record
class ActorResolver:
    """Partition of the identity universe into actor classes, each named by
    its representative, its least member.

    Non-singleton classes come only from insider declarations whose tipping
    point is active; every other identity maps to itself.  ``_rep`` maps
    each identity of a class to its representative.
    """

    classes: tuple[frozenset[str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_rep", {})
        for cls in self.classes:
            rep = min(cls)
            for ident in cls:
                if ident in self._rep:
                    raise ModelError(f"identity {ident!r} appears in two actor classes")
                self._rep[ident] = rep

    def actor_of(self, identity: str) -> str:
        """The representative of ``identity``'s class."""
        return self._rep.get(identity, identity)


def build_resolver(insiders, identities) -> ActorResolver:
    """Merge each tipped insider with its alter egos; overlapping declarations
    merge transitively.  Identities never mentioned stay singletons."""
    identities = frozenset(identities)
    groups: list[set[str]] = []
    for decl in insiders:
        if decl.id not in identities:
            raise ModelError(f"insider identity {decl.id!r} is not a model identity")
        unknown = decl.alter_egos - identities
        if unknown:
            raise ModelError(
                f"insider {decl.id!r} lists unknown alter egos {sorted(unknown)!r}"
            )
        if not tipping_point(decl.state):
            continue
        merged = {decl.id} | set(decl.alter_egos)
        keep = []
        for g in groups:
            if g & merged:
                merged |= g
            else:
                keep.append(g)
        keep.append(merged)
        groups = keep
    return ActorResolver(tuple(frozenset(g) for g in groups if len(g) > 1))


# ---------------------------------------------------------------------------
# Infrastructure snapshots


def edge_set(edges) -> frozenset:
    """``edges`` as a frozenset of tuples; one that already is comes back
    as it is, so the snapshots of a model share their edge set."""
    if type(edges) is frozenset and set(map(type, edges)) <= {tuple}:
        return edges
    return frozenset(tuple(e) for e in edges)


@record
class InfraGraph:
    """A snapshot: edges, placements, credentials, roles, location values.

    Placements are duplicate-free sequences kept in identity order, so list
    length and set cardinality always coincide.  Each location stores at most
    one value token.  The constructor normalises its inputs (sorts placements,
    drops empty entries) so that structurally equal snapshots compare equal.
    """

    edges: frozenset
    placements: dict
    credentials: dict
    roles: dict
    loc_value: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", edge_set(self.edges))
        seen: dict[str, Location] = {}
        placements = {}
        for loc, idents in self.placements.items():
            idents = tuple(sorted(idents))
            if not idents:
                continue
            if len(set(idents)) != len(idents):
                raise ModelError(f"duplicate identity in placement at {loc}")
            for ident in idents:
                if ident in seen:
                    raise ModelError(
                        f"identity {ident!r} placed at both {seen[ident]} and {loc}"
                    )
                seen[ident] = loc
            placements[loc] = idents
        object.__setattr__(self, "placements", placements)
        object.__setattr__(
            self,
            "credentials",
            {i: frozenset(c) for i, c in self.credentials.items() if c},
        )
        object.__setattr__(
            self, "roles", {i: frozenset(r) for i, r in self.roles.items() if r}
        )
        object.__setattr__(
            self,
            "loc_value",
            {l: v for l, v in self.loc_value.items() if v is not None},
        )

    def placement(self, loc: Location) -> tuple[str, ...]:
        return self.placements.get(loc, ())

    def value_of(self, loc: Location) -> str | None:
        return self.loc_value.get(loc)

    def actors(self) -> tuple[str, ...]:
        """All placed identities, in identity order."""
        return tuple(sorted(i for ids in self.placements.values() for i in ids))


# ---------------------------------------------------------------------------
# Boolean connectives, shared by policy conditions, state predicates and CTL
# formulas: the nodes, a walk over their atoms, one printer, one parser core


@record
class Not:
    arg: object


@record
class And:
    left: object
    right: object


@record
class Or:
    left: object
    right: object


CondNot = PNot = Not
CondAnd = PAnd = And
CondOr = POr = Or


def leaves(expr):
    """The atoms of a boolean expression, left to right, without recursion."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Not):
            stack.append(e.arg)
        elif isinstance(e, (And, Or)):
            stack += (e.right, e.left)
        else:
            yield e


_OR, _AND, _UNARY = 1, 2, 3


def expr_text(e, leaf, minimum: int = _OR) -> str:
    """Minimal-paren text of a boolean expression: ``!`` binds tighter than
    ``&``, which binds tighter than ``|``; both associate to the left.
    ``leaf(e)`` gives the text of every other node, and for a prefix
    operator (a node with an ``arg``, like ``EX``) the text of the operator,
    which its argument follows.  Atoms and prefix operators bind tightest,
    so their text never needs parentheses."""
    cls = type(e)
    if cls is And or cls is Or:
        level, mark = (_AND, "&") if cls is And else (_OR, "|")
        text = f"{expr_text(e.left, leaf, level)} {mark} {expr_text(e.right, leaf, level + 1)}"
    elif cls is Not:
        return "!" + expr_text(e.arg, leaf, _UNARY)
    elif hasattr(e, "arg"):
        return leaf(e) + expr_text(e.arg, leaf, _UNARY)
    else:
        return leaf(e)
    return f"({text})" if level < minimum else text


class Parser:
    """Recursive descent over ``|``, ``&``, prefix operators and
    parentheses.  A language sets ``TOKEN`` (a regex whose three groups are
    a word, a punctuation mark and a stray character), ``END`` (its word for
    the whole input), ``error(pos, message)`` (the exception to raise),
    ``PREFIX`` (prefix operator token to node) and ``atom(tok)``.  Each
    level of prefix nesting costs one Python frame, and of parentheses two."""

    PREFIX = {"!": Not}

    def __init__(self, text: str):
        self.text, self.i = text, 0
        self.tokens = [word or mark for word, mark, _ in self.TOKEN.findall(text)]
        if "" in self.tokens:  # a stray character, which neither group matched
            pos = self.start(self.tokens.index(""))
            raise self.error(pos, f"unexpected character {text[pos]!r}")

    def start(self, k: int) -> int:
        """Where token ``k`` starts; only an error needs it."""
        m = list(self.TOKEN.finditer(self.text))[k]
        return m.start(m.lastindex)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise self.error(len(self.text), f"unexpected end of {self.END}")
        self.i += 1
        return tok

    def fail(self, message: str):
        """Raise ``message`` at the token just read."""
        raise self.error(self.start(self.i - 1), message)

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            self.fail(f"expected {text!r}, found {tok!r}")

    def parse(self):
        e = self.expr()
        if self.peek() is not None:
            raise self.error(self.start(self.i), f"unexpected trailing {self.peek()!r}")
        return e

    def expr(self):
        """``|`` over ``&``, both left-associative, in one frame."""
        e, ors = self.unary(), None
        while (tok := self.peek()) == "&" or tok == "|":
            self.i += 1
            if tok == "&":
                e = And(e, self.unary())
            else:
                ors = e if ors is None else Or(ors, e)
                e = self.unary()
        return e if ors is None else Or(ors, e)

    def unary(self):
        tok = self.next()
        op = self.PREFIX.get(tok)
        if op is not None:
            return op(self.unary())
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        return self.atom(tok)


# ---------------------------------------------------------------------------
# Atoms of policy conditions and state predicates.  Each atom has one record
# class, whichever language uses it, and one meaning: :func:`vector_condition`.


class PolicyCondition:
    """Base class of the atoms a policy condition may use."""

    __slots__ = ()
    __match_args__ = ()  # an atom's fields; a record sets its own


class PredExpr:
    """Base class of the atoms a state predicate may use."""

    __slots__ = ()
    __match_args__ = ()


@record
class PBool(PolicyCondition, PredExpr):
    """The constant ``true`` or ``false``."""

    value: bool = True


@record
class RequesterAt(PolicyCondition):
    loc: Location


@record
class HasCred(PolicyCondition):
    cred: str

    def __post_init__(self) -> None:
        check_name(self.cred, "credential")


@record
class HasRole(PolicyCondition):
    role: str

    def __post_init__(self) -> None:
        check_name(self.role, "role")


@record
class IsIn(PolicyCondition, PredExpr):
    loc: Location
    value: str

    def __post_init__(self) -> None:
        check_name(self.value, "value")


@record
class CountAtLeast(PolicyCondition, PredExpr):
    loc: Location
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ModelError(f"count_at_least needs a positive bound, got {self.count}")


@record
class AllAtAuthorized(PolicyCondition):
    loc: Location
    allowed: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed", frozenset(self.allowed))


@record
class PEnables(PredExpr):
    loc: Location
    identity: str
    action: str


@record
class PAt(PredExpr):
    identity: str
    loc: Location


@record
class PInSet(PredExpr):
    identity: str
    set_name: str

    def __post_init__(self) -> None:
        check_name(self.set_name, "set name")


@record
class Pred:
    """A named predicate: the atom of CTL formulas, and only of those."""

    name: str


# The names these atoms had when each language had its own classes.
TrueCond, PIsIn, PCountAtLeast = PBool, IsIn, CountAtLeast


@record
class AtomicPolicy:
    """A (condition, action set) pair attached to a location."""

    condition: PolicyCondition
    actions: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", frozenset(self.actions))
        if not self.actions:
            raise ModelError("atomic policy with empty action set")
        if bad := self.actions - set(ACTIONS):
            raise ModelError(f"unknown action {min(bad)!r}")


@record
class FoeControl:
    """Assumption: ``foe`` is disabled for ``action`` at ``location`` whenever
    someone outside the foe's actor class is present there."""

    location: Location
    action: str
    foe: str

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ModelError(f"unknown action {self.action!r}")


# ---------------------------------------------------------------------------
# Named state predicates


def subst_pred(expr: PredExpr, param: str, value: str) -> PredExpr:
    """Replace the bound parameter in the ``identity`` field of every atom."""
    if isinstance(expr, (Not, And, Or)):
        return type(expr)(*(subst_pred(x, param, value) for x in vars(expr).values()))
    if getattr(expr, "identity", None) == param:
        return type(expr)(**vars(expr) | {"identity": value})
    return expr


@record
class StatePredicate:
    """A named boolean expression over a snapshot, optionally parameterised
    by one identity argument.  Parameterised predicates must be applied
    before use in formulas.  A formula names a predicate by a word that is
    neither digits nor in ``RESERVED``, so no other word names one."""

    name: str
    body: PredExpr
    param: str | None = None

    def __post_init__(self) -> None:
        check_name(self.name, "predicate name")
        if self.name.isdigit() or self.name in RESERVED:
            words = f"digits or reserved ({', '.join(sorted(RESERVED))})"
            raise ModelError(f"predicate name must not be {words}: {self.name!r}")
        if self.param is not None:
            check_name(self.param, "predicate parameter")


def predicate_body(pred: StatePredicate, arg: str | None = None) -> PredExpr:
    """``pred``'s body applied to ``arg``, which it must take exactly when
    it has a parameter."""
    if (arg is None) != (pred.param is None):
        need = "takes no" if arg is not None else "is parameterised and requires an identity"
        raise ModelError(f"predicate {pred.name!r} {need} argument")
    return pred.body if arg is None else subst_pred(pred.body, pred.param, arg)


# ---------------------------------------------------------------------------
# The checks of a model's names that the document reader shares


def check_atoms(expr, what: str, language: type, locations, identities, sets, param=None) -> None:
    """Check that every atom of ``expr``, a policy condition or a predicate
    body (``what``, with its parameter ``param``), belongs to its
    ``language`` (:class:`PolicyCondition` or :class:`PredExpr`), and the
    names the atoms use against a model's ``locations``, ``identities`` and
    identity ``sets``.  Atoms are checked left to right; an atom's fields
    are the names in its class's ``__match_args__``."""
    stack = [expr]
    while stack:
        atom = stack.pop()
        cls = type(atom)
        if cls is Not or cls is And or cls is Or:
            stack += (atom.arg,) if cls is Not else (atom.right, atom.left)
            continue
        if cls is Pred:
            raise ModelError(f"{what} uses predicate {atom.name!r}, which only a formula may")
        if language not in cls.__mro__:
            raise ModelError(f"{what} uses {cls.__name__}, which is not a {language.__name__}")
        fields = cls.__match_args__
        if "loc" in fields and atom.loc is not None and atom.loc not in locations:
            raise ModelError(f"{what} references unknown location {atom.loc}")
        if "action" in fields and atom.action is not None and atom.action not in ACTIONS:
            raise ModelError(f"{what} references unknown action {atom.action!r}")
        if "set_name" in fields and atom.set_name is not None and atom.set_name not in sets:
            raise ModelError(f"{what} references unknown set {atom.set_name!r}")
        ident = atom.identity if "identity" in fields else param
        allowed = atom.allowed if "allowed" in fields else _EMPTY
        if not (allowed <= identities and (ident == param or ident in identities)):
            stray = (allowed | ({ident} - {param})) - identities
            raise ModelError(f"{what} references unknown identity {min(stray)!r}")


def check_predicate(pred: StatePredicate, locations, identities, sets) -> None:
    """A named predicate's parameter may not shadow an identity, and its
    body's atoms name only what the model has (see :func:`check_atoms`)."""
    what = f"predicate {pred.name!r}"
    if pred.param in identities:
        raise ModelError(f"{what} parameter {pred.param!r} shadows a model identity")
    check_atoms(pred.body, what, PredExpr, locations, identities, sets, pred.param)


def check_value(loc: Location, value: str, alphabets: dict) -> None:
    """An initial value lies in its location's alphabet, if it has one, even an empty one."""
    if (alphabet := alphabets.get(loc)) is not None and value not in alphabet:
        raise ModelError(f"value {value!r} at {loc} is outside its alphabet")


# ---------------------------------------------------------------------------
# The model


@record
class Model:
    """Immutable problem definition.

    ``policy_variants`` maps variant names to policy maps (location to set of
    atomic policies); ``variant`` selects the active one.  ``assumptions``
    are consulted by :func:`enables` at evaluation time and are never derived
    from the policies themselves.  ``value_alphabet``, ``identity_sets`` and
    ``named_predicates`` default to empty.  ``resolver`` (the model's
    :class:`ActorResolver`) and ``_tables`` (its state-vector layout and
    everything compiled over it; see :func:`tables`) are derived from the
    fields.  No field can be reassigned, so the tables always describe the
    model; :meth:`with_variant` and :meth:`with_assumptions` build a new one.
    """

    locations: tuple[Location, ...]
    edges: frozenset
    identities: frozenset[str]
    initial: InfraGraph
    policy_variants: dict
    variant: str = "baseline"
    value_alphabet: dict | None = None
    insiders: tuple[InsiderDecl, ...] = ()
    identity_sets: dict | None = None
    named_predicates: dict | None = None
    assumptions: tuple[FoeControl, ...] = ()

    def __post_init__(self) -> None:
        self._normalise()
        if not self.locations:
            raise ModelError("a model needs at least one location")
        ids = [l.id for l in self.locations]
        names = [l.name for l in self.locations]
        if len(set(ids)) != len(ids) or len(set(names)) != len(names):
            raise ModelError("location ids and names must be unique")
        g = self.initial
        check_names([
            ("identity", self.identities),
            ("credential", set().union(*g.credentials.values())),
            ("role", set().union(*g.roles.values())),
            ("value", set(g.loc_value.values()).union(*self.value_alphabet.values())),
            ("set name", self.identity_sets),
            ("variant name", self.policy_variants),
        ])
        known = set(self.locations)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ModelError(f"edge ({a}, {b}) references an unknown location")
        for loc in self.value_alphabet:
            if loc not in known:
                raise ModelError(f"value alphabet for unknown location {loc}")
        for name, members in self.identity_sets.items():
            stray = members - self.identities
            if stray:
                raise ModelError(f"set {name!r} contains unknown identities {sorted(stray)!r}")
        for fc in self.assumptions:
            if fc.location not in known:
                raise ModelError(f"assumption references unknown location {fc.location}")
            if fc.foe not in self.identities:
                raise ModelError(f"assumption references unknown identity {fc.foe!r}")
        if self.variant not in self.policy_variants:
            names = ", ".join(sorted(self.policy_variants))
            raise ModelError(f"model has no policy variant {self.variant!r}; available: {names}")
        names, checked = (known, self.identities, self.identity_sets), set()
        for vname, pmap in self.policy_variants.items():
            for loc, policies in pmap.items():
                if loc not in known:
                    raise ModelError(f"policy variant {vname!r} targets unknown location {loc}")
                for pol in policies:  # a condition that variants share is checked once
                    if id(pol.condition) not in checked:
                        checked.add(id(pol.condition))
                        check_atoms(pol.condition, "policy condition", PolicyCondition, *names)
        _check_snapshot(self.initial, known, self.identities)
        for loc, value in self.initial.loc_value.items():
            check_value(loc, value, self.value_alphabet)
        if self.initial.edges != self.edges:
            raise ModelError("the initial snapshot's edges differ from the model's edges")
        for key, pred in self.named_predicates.items():
            if key != pred.name:
                raise ModelError(f"predicate {pred.name!r} is filed under {key!r}")
            check_predicate(pred, *names)

    def _normalise(self) -> None:
        """The fields in their canonical types and orders, and the resolver.
        The document reader, which runs every check above, runs only this."""
        own = vars(self)  # the fields are frozen; the model is still being built
        own["locations"] = tuple(by_id(self.locations))
        own["edges"] = edge_set(self.edges)
        own["identities"] = frozenset(self.identities)
        own["value_alphabet"] = {l: frozenset(v) for l, v in (self.value_alphabet or {}).items()}
        own["identity_sets"] = {n: frozenset(s) for n, s in (self.identity_sets or {}).items()}
        own["insiders"] = tuple(sorted(self.insiders, key=lambda d: d.id))
        own["assumptions"] = tuple(
            sorted(self.assumptions, key=lambda f: (f.location.id, f.action, f.foe))
        )
        own["policy_variants"] = {
            vname: MappingProxyType({loc: frozenset(pols) for loc, pols in pmap.items() if pols})
            for vname, pmap in self.policy_variants.items()
        }
        own["named_predicates"] = dict(self.named_predicates or {})
        # Read-only views, so the tables compiled from them can never go stale.
        for name in ("value_alphabet", "identity_sets", "policy_variants", "named_predicates"):
            own[name] = MappingProxyType(own[name])
        own["resolver"] = build_resolver(self.insiders, self.identities)
        own["_tables"] = None  # built on first use by tables()

    @property
    def policy_map(self) -> dict:
        return self.policy_variants[self.variant]

    def policies_at(self, loc: Location) -> frozenset:
        return self.policy_map.get(loc, frozenset())

    def with_variant(self, variant: str) -> "Model":
        return self._clone(variant=variant)

    def with_assumptions(self, assumptions) -> "Model":
        return self._clone(assumptions=tuple(assumptions))

    def _clone(self, **overrides) -> "Model":
        """A new model from this one's constructor arguments, with
        ``overrides`` in place of some."""
        names = self.__dataclass_fields__
        return Model(**{name: getattr(self, name) for name in names} | overrides)


# ---------------------------------------------------------------------------
# State vectors and compiled access

class Tables:
    """Everything derived once per model over its state vector.

    A snapshot's vector is one flat tuple with fixed positions: the location
    index (into ``model.locations``, -1 when unplaced) of each identity in
    sorted order, then each identity's credential set, then each identity's
    role set, then each location's value (``None`` when it has none).  The
    policies and foe-control assumptions are compiled into one judgment
    ``(vector, rep) -> bool`` per granted (location index, action), the
    named predicates on request (:meth:`predicate`), and the transition
    rules intern their labels in ``labels``.  Every state shares the model's
    edges, which no rule changes; ``targets`` are the indices of the
    locations they touch, where ``move`` may go.  :func:`encode` turns a
    snapshot into a vector, and :meth:`graph` a vector into a snapshot.
    ``step`` is the model's generated row writer, once an exploration has
    built it (see :func:`~insiderctl.transition.successors`); ``None``
    before the build, and ``False`` after a build whose source does not
    compile, so that each model tries the build once.
    """

    def __init__(self, model: Model) -> None:
        self.ids = ids = tuple(sorted(model.identities))
        self.locs = locs = model.locations
        self.n, self.labels = len(ids), {}
        self.names = tuple(loc.name for loc in locs)
        self.id_pos = {ident: p for p, ident in enumerate(ids)}
        self.loc_pos = {loc: k for k, loc in enumerate(locs)}
        self.edges = model.initial.edges
        nodes = {loc for e in self.edges for loc in e}
        self.targets = [k for k, loc in enumerate(locs) if loc in nodes]
        self.sets, self.named, self.compiled = model.identity_sets, model.named_predicates, {}
        self.rep_of = rep_of = model.resolver._rep
        self.reps = reps = tuple(rep_of.get(i, i) for i in ids)
        # The positions of the identities each representative stands for.
        self.at = {r: tuple(p for p, x in enumerate(reps) if x == r) for r in reps}
        self.alphabet = tuple(tuple(sorted(model.value_alphabet.get(l, ()))) for l in locs)
        self.writable = [k for k, values in enumerate(self.alphabet) if values]
        # (location index, action) -> (condition, closure) of each granting policy
        self.policies = granted = {}
        for loc, policies in model.policy_map.items():
            for pol in policies:
                pair = (pol.condition, vector_condition(pol.condition, self))
                for action in pol.actions:
                    granted.setdefault((self.loc_pos[loc], action), []).append(pair)
        # A foe is denied while anyone outside its class is at the location.
        self.outside = outside = {}
        for fc in model.assumptions:
            foe = reps[self.id_pos[fc.foe]]
            others = tuple(p for p, x in enumerate(reps) if x != foe)
            outside.setdefault((self.loc_pos[fc.location], fc.action), {})[foe] = others
        self.grant = {action: [None] * len(locs) for action in ACTIONS}
        for (k, action), pairs in granted.items():
            self.grant[action][k] = _judge(k, [c for _, c in pairs], outside.get((k, action)))
        self.step = None
        self.texts = ({}, {})  # see describe

    def placed(self, key: tuple) -> dict:
        """Location index -> the identities ``key`` places there, in identity order."""
        at: dict = {}
        for p in range(self.n):
            if key[p] >= 0:
                at.setdefault(key[p], []).append(self.ids[p])
        return at

    def graph(self, key: tuple) -> InfraGraph:
        """The validated snapshot whose vector is ``key``."""
        n, ids = self.n, self.ids
        placements = {self.locs[k]: idents for k, idents in self.placed(key).items()}
        creds, roles = dict(zip(ids, key[n : 2 * n])), dict(zip(ids, key[2 * n : 3 * n]))
        return InfraGraph(self.edges, placements, creds, roles, dict(zip(self.locs, key[3 * n :])))

    def describe(self, key: tuple) -> str:
        """One line for the snapshot whose vector is ``key``: the occupied
        locations in id order with their identities, then ``|`` and the
        location values.  Each half's text is kept, keyed by its slots."""
        n, names, (where, what) = self.n, self.names, self.texts
        text = where.get(key[:n])
        if text is None:
            at = self.placed(key)
            text = where[key[:n]] = " ".join(f"{names[k]}:[{','.join(at[k])}]" for k in sorted(at))
        values = what.get(key[3 * n :])
        if values is None:
            pairs = enumerate(key[3 * n :])
            values = " ".join(f"{names[k]}={x}" for k, x in pairs if x is not None)
            what[key[3 * n :]] = values
        return f"{text} | {values}" if values else text

    def predicate(self, name: str, arg: str | None = None):
        """The named predicate applied to ``arg``, compiled into a closure
        ``(vector, rep) -> bool`` that ignores ``rep``, once per ``(name,
        arg)``."""
        holds = self.compiled.get((name, arg))
        if holds is None:
            pred = self.named.get(name)
            if pred is None:
                raise ModelError(f"unknown predicate name {name!r}")
            holds = self.compiled[name, arg] = vector_condition(predicate_body(pred, arg), self)
        return holds


def tables(model: Model) -> Tables:
    """``model``'s :class:`Tables`, built on first use."""
    t = model._tables
    if t is None:
        t = vars(model)["_tables"] = Tables(model)
    return t


def _judge(k: int, conds: list, outside: dict | None):
    if not outside and len(conds) == 1:
        return conds[0]

    def judge(v: tuple, rep: str) -> bool:
        others = outside.get(rep) if outside else None
        if others is not None and any(v[p] == k for p in others):
            return False
        return any(cond(v, rep) for cond in conds)

    return judge


def _always(v: tuple, rep: str) -> bool:
    return True


def _never(v: tuple, rep: str) -> bool:
    return False


def vector_condition(cond, t: Tables):
    """``cond``, a policy condition or a predicate body, as a closure
    ``(vector, rep) -> bool`` over ``t``'s layout, where ``rep`` is the
    representative of the requesting class; predicate atoms ignore it.
    This defines what each atom means: :func:`enables` and
    :func:`eval_predicate` run what it builds, and ``nextstate._cond``, its
    generated twin, writes the same meaning as source, which
    ``tests/test_nextstate.py`` checks against it.  ``PEnables`` reuses the
    judgments in ``t.grant``."""
    n, at = t.n, t.at
    match cond:
        case PBool(value=value):
            return _always if value else _never
        case RequesterAt(loc=loc):
            k = t.loc_pos[loc]
            return lambda v, rep: k in [v[p] for p in at.get(rep, ())]
        case HasCred(cred=x) | HasRole(role=x):
            base = n if isinstance(cond, HasCred) else 2 * n
            return lambda v, rep: any(x in v[base + p] for p in at.get(rep, ()))
        case IsIn(loc=loc, value=value):
            slot = 3 * n + t.loc_pos[loc]
            return lambda v, rep: v[slot] == value
        case CountAtLeast(loc=loc, count=count):
            k = t.loc_pos[loc]
            return lambda v, rep: v[:n].count(k) >= count
        case AllAtAuthorized(loc=loc, allowed=allowed):
            k = t.loc_pos[loc]
            outside = [p for p, ident in enumerate(t.ids) if ident not in allowed]
            return lambda v, rep: k not in [v[p] for p in outside]
        case PAt(identity=ident, loc=loc):
            p, k = t.id_pos.get(ident), t.loc_pos[loc]
            return _never if p is None else lambda v, rep: v[p] == k
        case PInSet(identity=ident, set_name=name):
            if name not in t.sets:
                raise ModelError(f"unknown identity set {name!r}")
            return _always if ident in t.sets[name] else _never
        case PEnables(loc=loc, identity=ident, action=action):
            judge, who = t.grant[action][t.loc_pos[loc]], t.rep_of.get(ident, ident)
            return _never if judge is None else lambda v, rep: judge(v, who)
        case Pred(name=name):
            return t.predicate(name)
        case Not(arg=arg):
            inner = vector_condition(arg, t)
            return lambda v, rep: not inner(v, rep)
        case And(left=left, right=right):
            a, b = vector_condition(left, t), vector_condition(right, t)
            return lambda v, rep: a(v, rep) and b(v, rep)
        case Or(left=left, right=right):
            a, b = vector_condition(left, t), vector_condition(right, t)
            return lambda v, rep: a(v, rep) or b(v, rep)
    raise ModelError(f"unknown expression node {cond!r}")


def _check_snapshot(graph: InfraGraph, locations, identities) -> dict:
    """Where each identity ``graph`` places is; raises :class:`ModelError`
    naming the location with the least id, else the least identity, that
    ``graph`` names and ``locations`` or ``identities`` lack."""
    where = {i: loc for loc, idents in graph.placements.items() for i in idents}
    lacking = by_id({*graph.placements, *graph.loc_value} - locations)
    lacking += sorted({*where, *graph.credentials, *graph.roles} - identities)
    if lacking:
        raise ModelError(f"snapshot names {lacking[0]!r}, which the model lacks")
    return where


def encode(model: Model, graph: InfraGraph) -> tuple:
    """``graph``'s state vector under ``model``'s layout (see
    :class:`Tables`).  Raises :class:`ModelError` when the snapshot names an
    identity or a location the model lacks."""
    t = tables(model)
    where = _check_snapshot(graph, t.loc_pos.keys(), t.id_pos.keys())
    return (
        *(t.loc_pos.get(where.get(i), -1) for i in t.ids),
        *(graph.credentials.get(i, _EMPTY) for i in t.ids),
        *(graph.roles.get(i, _EMPTY) for i in t.ids),
        *(graph.loc_value.get(loc) for loc in t.locs),
    )


def enables(model: Model, graph: InfraGraph, loc: Location, rep: str, action: str) -> bool:
    """The access judgment: does some policy at ``loc`` grant ``action`` to
    the class whose representative is ``rep``?  An active foe-control
    assumption overrides the policies: the foe's class is denied whenever
    someone outside that class is present at the location.  Runs the
    judgment compiled over ``graph``'s state vector (see :class:`Tables`)."""
    v, t = encode(model, graph), tables(model)
    judges, k = t.grant.get(action), t.loc_pos.get(loc)
    judge = None if judges is None or k is None else judges[k]
    return judge is not None and judge(v, rep)


def eval_predicate(
    pred: StatePredicate, model: Model, graph: InfraGraph, arg: str | None = None
) -> bool:
    """``pred`` applied to ``arg`` on ``graph``: its body compiled over
    ``model``'s layout, run on the snapshot's state vector."""
    holds = vector_condition(predicate_body(pred, arg), tables(model))
    return holds(encode(model, graph), None)

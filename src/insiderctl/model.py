"""Core domain model: locations, infrastructure graphs, policies, insiders.

An :class:`InfraGraph` is one snapshot of the world: where every actor is,
which credentials and roles they hold, and the value stored at each location.
A :class:`Model` wraps an initial snapshot with the static problem
definition: the location set, one or more named policy maps, value alphabets,
insider declarations, named state predicates, and evaluation-time
assumptions.

Identities are plain strings.  An insider declaration whose psychological
tipping point is reached collapses its identity with each declared alter ego
into one actor class; every other identity stays in a singleton class.  All
capability checks (``enables``, policy conditions, state predicates) operate
on actor classes, so the insider inherits the placements, credentials, and
roles of its alter egos.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from .record import field, record

ACTIONS = ("get", "move", "eval", "put")

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


def _check_token(value: str, what: str) -> str:
    if not isinstance(value, str) or not value or any(c.isspace() for c in value):
        raise ModelError(f"{what} must be a non-empty token without whitespace: {value!r}")
    return value


@record(frozen=True)
class Location:
    """A named node of the infrastructure map.  Ordered by numeric id."""

    id: int
    name: str

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ModelError(f"location id must be non-negative: {self.id}")
        _check_token(self.name, "location name")

    def __str__(self) -> str:
        return self.name


def by_id(locations) -> list[Location]:
    return sorted(locations, key=lambda l: l.id)


@record(frozen=True)
class ActorPsyState:
    """Psychological disposition: one psychic state plus a motivation set."""

    psy: str
    motivations: frozenset[str]

    def __post_init__(self) -> None:
        if self.psy not in PSY_STATES:
            raise ModelError(f"unknown psy state {self.psy!r}; expected one of {PSY_STATES}")
        object.__setattr__(self, "motivations", frozenset(self.motivations))
        bad = self.motivations - set(MOTIVATIONS)
        if bad:
            raise ModelError(f"unknown motivations {sorted(bad)!r}; expected among {MOTIVATIONS}")


def tipping_point(state: ActorPsyState) -> bool:
    """True when motivations are non-empty and the psychic state is not happy."""
    return bool(state.motivations) and state.psy != "happy"


@record(frozen=True)
class InsiderDecl:
    """Declares that ``id`` can impersonate each identity in ``alter_egos``
    once its tipping point is reached."""

    id: str
    alter_egos: frozenset[str]
    state: ActorPsyState

    def __post_init__(self) -> None:
        _check_token(self.id, "insider identity")
        object.__setattr__(self, "alter_egos", frozenset(self.alter_egos))
        if self.id in self.alter_egos:
            raise ModelError(f"insider {self.id!r} cannot list itself as an alter ego")


@record(frozen=True)
class ActorClassId:
    """An actor equivalence class, named by its least member."""

    representative: str

    def __str__(self) -> str:
        return self.representative


@record(frozen=True)
class ActorResolver:
    """Partition of the identity universe into actor classes.

    Non-singleton classes come only from insider declarations whose tipping
    point is active; every other identity maps to itself.
    """

    classes: tuple[frozenset[str], ...] = ()

    _rep: dict = field(default_factory=dict, compare=False, repr=False)
    _members: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        for cls in self.classes:
            rep = min(cls)
            for ident in cls:
                if ident in self._rep:
                    raise ModelError(f"identity {ident!r} appears in two actor classes")
                self._rep[ident] = rep
            self._members[rep] = frozenset(cls)

    def actor_of(self, identity: str) -> ActorClassId:
        return ActorClassId(self._rep.get(identity, identity))

    def members(self, actor: ActorClassId) -> frozenset[str]:
        return self._members.get(actor.representative, frozenset((actor.representative,)))


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
    if type(edges) is frozenset and all(type(e) is tuple for e in edges):
        return edges
    return frozenset(tuple(e) for e in edges)


@record(frozen=True)
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

    def credentials_of(self, identity: str) -> frozenset[str]:
        return self.credentials.get(identity, frozenset())

    def roles_of(self, identity: str) -> frozenset[str]:
        return self.roles.get(identity, frozenset())

    def actors(self) -> tuple[str, ...]:
        """All placed identities, in identity order."""
        return tuple(sorted(i for ids in self.placements.values() for i in ids))

    def nodes(self) -> frozenset:
        """Locations touching at least one edge."""
        return frozenset(l for e in self.edges for l in e)


# ---------------------------------------------------------------------------
# Boolean connectives, shared by policy conditions, state predicates and CTL
# formulas: the nodes, a walk over their atoms, one printer, one parser core


@record(frozen=True)
class Not:
    arg: object


@record(frozen=True)
class And:
    left: object
    right: object


@record(frozen=True)
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
    match e:
        case And(left=a, right=b):
            text, level = f"{expr_text(a, leaf, _AND)} & {expr_text(b, leaf, _AND + 1)}", _AND
        case Or(left=a, right=b):
            text, level = f"{expr_text(a, leaf, _OR)} | {expr_text(b, leaf, _OR + 1)}", _OR
        case Not(arg=a):
            return "!" + expr_text(a, leaf, _UNARY)
        case _ if hasattr(e, "arg"):
            return leaf(e) + expr_text(e.arg, leaf, _UNARY)
        case _:
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
        self.text, self.tokens, self.starts, self.i = text, [], [], 0
        for m in self.TOKEN.finditer(text):
            if m.group(3):
                raise self.error(m.start(3), f"unexpected character {m.group(3)!r}")
            self.tokens.append(m.group(1) or m.group(2))
            self.starts.append(m.start(m.lastindex))

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
        raise self.error(self.starts[self.i - 1], message)

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            self.fail(f"expected {text!r}, found {tok!r}")

    def parse(self):
        e = self.expr()
        if self.peek() is not None:
            raise self.error(self.starts[self.i], f"unexpected trailing {self.peek()!r}")
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
# Policy conditions


class PolicyCondition:
    """Base class for policy condition trees."""

    __slots__ = ()


@record(frozen=True)
class TrueCond(PolicyCondition):
    pass


@record(frozen=True)
class RequesterAt(PolicyCondition):
    loc: Location


@record(frozen=True)
class HasCred(PolicyCondition):
    cred: str


@record(frozen=True)
class HasRole(PolicyCondition):
    role: str


@record(frozen=True)
class IsIn(PolicyCondition):
    loc: Location
    value: str


@record(frozen=True)
class CountAtLeast(PolicyCondition):
    loc: Location
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ModelError(f"count_at_least needs a positive bound, got {self.count}")


@record(frozen=True)
class AllAtAuthorized(PolicyCondition):
    loc: Location
    allowed: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed", frozenset(self.allowed))


def eval_condition(
    cond: PolicyCondition,
    graph: InfraGraph,
    requester: ActorClassId,
    resolver: ActorResolver,
) -> bool:
    """Evaluate a policy condition for a requesting actor class.  Total."""
    match cond:
        case TrueCond():
            return True
        case RequesterAt(loc=loc):
            return any(resolver.actor_of(n) == requester for n in graph.placement(loc))
        case HasCred(cred=cred):
            return any(cred in graph.credentials_of(m) for m in resolver.members(requester))
        case HasRole(role=role):
            return any(role in graph.roles_of(m) for m in resolver.members(requester))
        case IsIn(loc=loc, value=value):
            return graph.value_of(loc) == value
        case CountAtLeast(loc=loc, count=count):
            return len(graph.placement(loc)) >= count
        case AllAtAuthorized(loc=loc, allowed=allowed):
            return all(n in allowed for n in graph.placement(loc))
        case Not(arg=arg):
            return not eval_condition(arg, graph, requester, resolver)
        case And(left=left, right=right):
            return eval_condition(left, graph, requester, resolver) and eval_condition(
                right, graph, requester, resolver
            )
        case Or(left=left, right=right):
            return eval_condition(left, graph, requester, resolver) or eval_condition(
                right, graph, requester, resolver
            )
    raise ModelError(f"unknown policy condition node {cond!r}")


@record(frozen=True)
class AtomicPolicy:
    """A (condition, action set) pair attached to a location."""

    condition: PolicyCondition
    actions: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", frozenset(self.actions))
        if not self.actions:
            raise ModelError("atomic policy with empty action set")
        bad = self.actions - set(ACTIONS)
        if bad:
            raise ModelError(f"unknown actions {sorted(bad)!r}; expected among {ACTIONS}")


@record(frozen=True)
class FoeControl:
    """Assumption: ``foe`` is disabled for ``action`` at ``location`` whenever
    someone outside the foe's actor class is present there."""

    location: Location
    action: str
    foe: str

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ModelError(f"unknown action {self.action!r} in assumption")


# ---------------------------------------------------------------------------
# Named state predicates


class PredExpr:
    """Base class for state-predicate expression trees."""

    __slots__ = ()


@record(frozen=True)
class PBool(PredExpr):
    value: bool


@record(frozen=True)
class PEnables(PredExpr):
    loc: Location
    identity: str
    action: str


@record(frozen=True)
class PAt(PredExpr):
    identity: str
    loc: Location


@record(frozen=True)
class PIsIn(PredExpr):
    loc: Location
    value: str


@record(frozen=True)
class PCountAtLeast(PredExpr):
    loc: Location
    count: int


@record(frozen=True)
class PInSet(PredExpr):
    identity: str
    set_name: str


def subst_pred(expr: PredExpr, param: str, value: str) -> PredExpr:
    """Replace occurrences of the bound parameter in identity slots."""
    match expr:
        case PEnables(loc=l, identity=i, action=a):
            return PEnables(l, value if i == param else i, a)
        case PAt(identity=i, loc=l):
            return PAt(value if i == param else i, l)
        case PInSet(identity=i, set_name=s):
            return PInSet(value if i == param else i, s)
        case Not(arg=arg):
            return Not(subst_pred(arg, param, value))
        case And(left=left, right=right):
            return And(subst_pred(left, param, value), subst_pred(right, param, value))
        case Or(left=left, right=right):
            return Or(subst_pred(left, param, value), subst_pred(right, param, value))
        case _:
            return expr


@record(frozen=True)
class StatePredicate:
    """A named boolean expression over a snapshot, optionally parameterised
    by one identity argument.  Parameterised predicates must be applied
    before use in formulas."""

    name: str
    body: PredExpr
    param: str | None = None


def predicate_body(pred: StatePredicate, arg: str | None = None) -> PredExpr:
    """``pred``'s body applied to ``arg``, which it must take exactly when
    it has a parameter."""
    if pred.param is not None:
        if arg is None:
            raise ModelError(f"predicate {pred.name!r} requires an identity argument")
        return subst_pred(pred.body, pred.param, arg)
    if arg is not None:
        raise ModelError(f"predicate {pred.name!r} takes no argument")
    return pred.body


def eval_predicate(
    pred: StatePredicate, model: "Model", graph: InfraGraph, arg: str | None = None
) -> bool:
    """The reference evaluation of a named predicate on a snapshot; the
    engine runs the form :meth:`Tables.predicate` compiles."""
    return _eval_pred_expr(predicate_body(pred, arg), model, graph)


def _eval_pred_expr(expr: PredExpr, model: "Model", graph: InfraGraph) -> bool:
    match expr:
        case PBool(value=v):
            return v
        case PEnables(loc=loc, identity=ident, action=action):
            return enables(model, graph, loc, model.resolver.actor_of(ident), action)
        case PAt(identity=ident, loc=loc):
            return ident in graph.placement(loc)
        case PIsIn(loc=loc, value=value):
            return graph.value_of(loc) == value
        case PCountAtLeast(loc=loc, count=count):
            return len(graph.placement(loc)) >= count
        case PInSet(identity=ident, set_name=name):
            if name not in model.identity_sets:
                raise ModelError(f"unknown identity set {name!r}")
            return ident in model.identity_sets[name]
        case Not(arg=arg):
            return not _eval_pred_expr(arg, model, graph)
        case And(left=left, right=right):
            return _eval_pred_expr(left, model, graph) and _eval_pred_expr(
                right, model, graph
            )
        case Or(left=left, right=right):
            return _eval_pred_expr(left, model, graph) or _eval_pred_expr(
                right, model, graph
            )
    raise ModelError(f"unknown predicate node {expr!r}")


# ---------------------------------------------------------------------------
# The model


@record
class Model:
    """Immutable problem definition.

    ``policy_variants`` maps variant names to policy maps (location to set of
    atomic policies); ``variant`` selects the active one.  ``assumptions``
    are consulted by :func:`enables` at evaluation time and are never derived
    from the policies themselves.
    """

    locations: tuple[Location, ...]
    edges: frozenset
    identities: frozenset[str]
    initial: InfraGraph
    policy_variants: dict
    variant: str = "baseline"
    value_alphabet: dict = field(default_factory=dict)
    insiders: tuple[InsiderDecl, ...] = ()
    identity_sets: dict = field(default_factory=dict)
    named_predicates: dict = field(default_factory=dict)
    assumptions: tuple[FoeControl, ...] = ()
    resolver: ActorResolver = field(init=False, compare=False, repr=False)
    # The state-vector layout and everything compiled over it; see tables().
    _tables: "Tables | None" = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.locations = tuple(by_id(self.locations))
        if not self.locations:
            raise ModelError("a model needs at least one location")
        ids = [l.id for l in self.locations]
        names = [l.name for l in self.locations]
        if len(set(ids)) != len(ids) or len(set(names)) != len(names):
            raise ModelError("location ids and names must be unique")
        self.edges = edge_set(self.edges)
        self.identities = frozenset(self.identities)
        for ident in self.identities:
            _check_token(ident, "identity")
        known = set(self.locations)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ModelError(f"edge ({a}, {b}) references an unknown location")
        self.value_alphabet = {l: frozenset(v) for l, v in self.value_alphabet.items() if v}
        for loc in self.value_alphabet:
            if loc not in known:
                raise ModelError(f"value alphabet for unknown location {loc}")
        self.identity_sets = {n: frozenset(s) for n, s in self.identity_sets.items()}
        for name, members in self.identity_sets.items():
            stray = members - self.identities
            if stray:
                raise ModelError(f"set {name!r} contains unknown identities {sorted(stray)!r}")
        self.insiders = tuple(sorted(self.insiders, key=lambda d: d.id))
        self.assumptions = tuple(
            sorted(self.assumptions, key=lambda f: (f.location.id, f.action, f.foe))
        )
        for fc in self.assumptions:
            if fc.location not in known:
                raise ModelError(f"assumption references unknown location {fc.location}")
            if fc.foe not in self.identities:
                raise ModelError(f"assumption references unknown identity {fc.foe!r}")
        if self.variant not in self.policy_variants:
            raise ModelError(f"unknown policy variant {self.variant!r}")
        self.policy_variants = {
            vname: {loc: frozenset(pols) for loc, pols in pmap.items() if pols}
            for vname, pmap in self.policy_variants.items()
        }
        for vname, pmap in self.policy_variants.items():
            for loc, policies in pmap.items():
                if loc not in known:
                    raise ModelError(f"policy variant {vname!r} targets unknown location {loc}")
                for pol in policies:
                    self._check_atoms(pol.condition, known, "policy condition")
        self._check_graph(self.initial, known)
        for pred in self.named_predicates.values():
            if pred.param is not None and pred.param in self.identities:
                raise ModelError(
                    f"predicate {pred.name!r} parameter {pred.param!r} shadows a model identity"
                )
            self._check_atoms(pred.body, known, f"predicate {pred.name!r}", pred.param)
        self.resolver = build_resolver(self.insiders, self.identities)

    def _check_graph(self, graph: InfraGraph, known: set) -> None:
        for loc in list(graph.placements) + list(graph.loc_value):
            if loc not in known:
                raise ModelError(f"graph references unknown location {loc}")
        for ident in graph.actors():
            if ident not in self.identities:
                raise ModelError(f"graph places unknown identity {ident!r}")

    def _check_atoms(self, expr, known: set, what: str, param: str | None = None) -> None:
        """Check the names that the atoms of a condition or predicate use."""
        for atom in leaves(expr):
            loc, action = getattr(atom, "loc", None), getattr(atom, "action", None)
            if loc is not None and loc not in known:
                raise ModelError(f"{what} references unknown location {loc}")
            if action is not None and action not in ACTIONS:
                raise ModelError(f"{what} references unknown action {action!r}")
            s = getattr(atom, "set_name", None)
            if s is not None and s not in self.identity_sets:
                raise ModelError(f"{what} references unknown set {s!r}")
            ident = getattr(atom, "identity", param)
            if ident != param and ident not in self.identities:
                raise ModelError(f"{what} references unknown identity {ident!r}")
            if isinstance(atom, AllAtAuthorized) and not atom.allowed <= self.identities:
                ident = min(atom.allowed - self.identities)
                raise ModelError(f"{what} references unknown identity {ident!r}")

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
        kwargs = dict(
            locations=self.locations,
            edges=self.edges,
            identities=self.identities,
            initial=self.initial,
            policy_variants=self.policy_variants,
            variant=self.variant,
            value_alphabet=self.value_alphabet,
            insiders=self.insiders,
            identity_sets=self.identity_sets,
            named_predicates=self.named_predicates,
            assumptions=self.assumptions,
        )
        kwargs.update(overrides)
        return Model(**kwargs)


# ---------------------------------------------------------------------------
# State vectors and compiled access

_EMPTY: frozenset = frozenset()


class Tables:
    """Everything derived once per model over its state vector.

    A snapshot's vector is one flat tuple with fixed positions: the location
    index (into ``model.locations``, -1 when unplaced) of each identity in
    sorted order, then each identity's credential set, then each identity's
    role set, then each location's value (``None`` when it has none).  The
    policies and foe-control assumptions are compiled into one judgment
    ``(vector, rep) -> bool`` per granted (location index, action), the
    named predicates on request (:meth:`predicate`), and the transition
    rules intern their labels in ``labels``.  Every state shares the initial
    snapshot's edges, which no rule changes; ``targets`` are the indices of
    the locations they touch, where ``move`` may go.
    """

    def __init__(self, model: Model) -> None:
        self.ids = ids = tuple(sorted(model.identities))
        self.locs = locs = model.locations
        self.layout, self.n, self.labels = (ids, locs), len(ids), {}
        self.names = tuple(loc.name for loc in locs)
        self.id_pos = {ident: p for p, ident in enumerate(ids)}
        self.loc_pos = {loc: k for k, loc in enumerate(locs)}
        self.edges = model.initial.edges
        self.targets = node_indices(locs, self.edges)
        self.sets, self.named, self.compiled = model.identity_sets, model.named_predicates, {}
        self.rep_of = rep_of = model.resolver._rep
        classes = model.resolver._members
        self.reps = reps = tuple(rep_of.get(i, i) for i in ids)
        # Member positions as ActorResolver.members gives them: a
        # representative's whole class, any other identity itself ...
        self.members = {i: tuple(sorted(map(self.id_pos.get, classes.get(i, (i,))))) for i in ids}
        # ... and the positions of the identities each representative stands for.
        self.at = {r: tuple(p for p, x in enumerate(reps) if x == r) for r in reps}
        self.alphabet = tuple(tuple(sorted(model.value_alphabet.get(l, ()))) for l in locs)
        self.writable = [k for k, values in enumerate(self.alphabet) if values]
        granted: dict = {}
        for loc, policies in model.policy_map.items():
            for pol in policies:
                cond = vector_condition(pol.condition, self)
                for action in pol.actions:
                    granted.setdefault((self.loc_pos[loc], action), []).append(cond)
        # A foe is denied while anyone outside its class is at the location.
        outside: dict = {}
        for fc in model.assumptions:
            foe = reps[self.id_pos[fc.foe]]
            others = tuple(p for p, x in enumerate(reps) if x != foe)
            outside.setdefault((self.loc_pos[fc.location], fc.action), {})[foe] = others
        self.grant = {action: [None] * len(locs) for action in ACTIONS}
        for (k, action), conds in granted.items():
            self.grant[action][k] = _judge(k, conds, outside.get((k, action)))

    def graph(self, key: tuple, edges=None) -> InfraGraph:
        """The validated snapshot whose vector is ``key``, with ``edges``
        (by default the initial snapshot's)."""
        n, ids = self.n, self.ids
        edges = self.edges if edges is None else edges
        placements: dict = {}
        for p in range(n):
            if key[p] >= 0:
                placements.setdefault(self.locs[key[p]], []).append(ids[p])
        creds, roles = dict(zip(ids, key[n : 2 * n])), dict(zip(ids, key[2 * n : 3 * n]))
        graph = InfraGraph(edges, placements, creds, roles, dict(zip(self.locs, key[3 * n :])))
        object.__setattr__(graph, "_state", (self.layout, key))
        return graph

    def describe(self, key: tuple) -> str:
        """One line for the snapshot whose vector is ``key``: the occupied
        locations in id order with their identities, then ``|`` and the
        location values."""
        n, ids, names = self.n, self.ids, self.names
        at: dict = {}
        for p in range(n):
            if key[p] >= 0:
                at.setdefault(key[p], []).append(ids[p])
        text = " ".join(f"{names[k]}:[{','.join(at[k])}]" for k in sorted(at))
        values = " ".join(f"{names[k]}={x}" for k, x in enumerate(key[3 * n :]) if x is not None)
        return f"{text} | {values}" if values else text

    def predicate(self, name: str, arg: str | None = None):
        """The named predicate applied to ``arg``, compiled into a closure
        ``(vector, rep) -> bool`` that ignores ``rep``, once per ``(name,
        arg)``.  Agrees with :func:`eval_predicate` on every snapshot."""
        holds = self.compiled.get((name, arg))
        if holds is None:
            pred = self.named.get(name)
            if pred is None:
                raise ModelError(f"unknown predicate name {name!r}")
            holds = self.compiled[name, arg] = vector_condition(predicate_body(pred, arg), self)
        return holds


def node_indices(locs, edges) -> list[int]:
    """The indices in ``locs`` of the locations that ``edges`` touch."""
    nodes = {loc for e in edges for loc in e}
    return [k for k, loc in enumerate(locs) if loc in nodes]


def tables(model: Model) -> Tables:
    """``model``'s :class:`Tables`, built on first use."""
    if model._tables is None:
        model._tables = Tables(model)
    return model._tables


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
    Agrees with :func:`eval_condition` and :func:`eval_predicate` on every
    snapshot and class.  ``enables`` reuses the judgments in ``t.grant``."""
    n = t.n
    match cond:
        case TrueCond():
            return _always
        case PBool(value=value):
            return _always if value else _never
        case RequesterAt(loc=loc):
            k, at = t.loc_pos[loc], t.at
            return lambda v, rep: k in [v[p] for p in at.get(rep, ())]
        case HasCred(cred=cred):
            members = t.members
            return lambda v, rep: any(cred in v[n + p] for p in members.get(rep, ()))
        case HasRole(role=role):
            members, base = t.members, 2 * n
            return lambda v, rep: any(role in v[base + p] for p in members.get(rep, ()))
        case IsIn(loc=loc, value=value) | PIsIn(loc=loc, value=value):
            slot = 3 * n + t.loc_pos[loc]
            return lambda v, rep: v[slot] == value
        case CountAtLeast(loc=loc, count=count) | PCountAtLeast(loc=loc, count=count):
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


def encode(model: Model, graph: InfraGraph) -> tuple:
    """``graph``'s state vector under ``model``'s layout (see
    :class:`Tables`), computed once and cached on the graph.  Raises
    :class:`ModelError` when the snapshot names an identity or a location
    the model lacks."""
    t = tables(model)
    cached = graph.__dict__.get("_state")
    if cached is not None and cached[0] == t.layout:
        return cached[1]
    where = {i: loc for loc, idents in graph.placements.items() for i in idents}
    lacking = [
        *({*graph.placements, *graph.loc_value} - t.loc_pos.keys()),
        *({*where, *graph.credentials, *graph.roles} - t.id_pos.keys()),
    ]
    if lacking:
        raise ModelError(f"snapshot names {lacking[0]!r}, which the model lacks")
    key = (
        *(t.loc_pos.get(where.get(i), -1) for i in t.ids),
        *(graph.credentials.get(i, _EMPTY) for i in t.ids),
        *(graph.roles.get(i, _EMPTY) for i in t.ids),
        *(graph.loc_value.get(loc) for loc in t.locs),
    )
    object.__setattr__(graph, "_state", (t.layout, key))
    return key


def enables(
    model: Model, graph: InfraGraph, loc: Location, requester: ActorClassId, action: str
) -> bool:
    """The access judgment: does some policy at ``loc`` grant ``action`` to
    the requesting class?  An active foe-control assumption overrides the
    policies: the foe's class is denied whenever someone outside that class
    is present at the location.  Runs the judgment compiled over ``graph``'s
    state vector (see :class:`Tables`)."""
    v = encode(model, graph)
    judges, k = model._tables.grant.get(action), model._tables.loc_pos.get(loc)
    judge = None if judges is None or k is None else judges[k]
    return judge is not None and judge(v, requester.representative)

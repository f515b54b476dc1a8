"""Deliberately naive reference implementations used as independent oracles.

Nothing here calls the engine's evaluators: actor classes, condition
evaluation, the transition rules, breadth-first reachability, and backward
closure are all re-derived from first principles in the plainest possible
style, with their own state representation (location *names*, plain
tuples).  Tests compare engine output against these.
"""

from insiderctl.model import (
    ACTIONS,
    AllAtAuthorized,
    CondAnd,
    CondNot,
    CondOr,
    CountAtLeast,
    HasCred,
    HasRole,
    IsIn,
    ModelError,
    PAt,
    PBool,
    PEnables,
    PInSet,
    Pred,
    RequesterAt,
)


def o_reps(model):
    """identity -> class representative, from the insider declarations."""
    groups = []
    for decl in model.insiders:
        if decl.state.motivations and decl.state.psy != "happy":
            merged = {decl.id} | set(decl.alter_egos)
            rest = []
            for g in groups:
                if g & merged:
                    merged |= g
                else:
                    rest.append(g)
            rest.append(merged)
            groups = rest
    reps = {}
    for g in groups:
        r = min(g)
        for x in g:
            reps[x] = r
    return reps


def o_world(graph):
    """Oracle state: plain nested tuples keyed by location/identity name."""
    placements = tuple(
        sorted((loc.name, tuple(sorted(ids))) for loc, ids in graph.placements.items())
    )
    creds = tuple(sorted((i, tuple(sorted(c))) for i, c in graph.credentials.items()))
    roles = tuple(sorted((i, tuple(sorted(r))) for i, r in graph.roles.items()))
    values = tuple(sorted((loc.name, v) for loc, v in graph.loc_value.items()))
    return (placements, creds, roles, values)


def _placement(world, locname):
    for name, ids in world[0]:
        if name == locname:
            return ids
    return ()


def _creds(world, ident):
    for name, c in world[1]:
        if name == ident:
            return set(c)
    return set()


def _roles(world, ident):
    for name, r in world[2]:
        if name == ident:
            return set(r)
    return set()


def _value(world, locname):
    for name, v in world[3]:
        if name == locname:
            return v
    return None


def _members(reps, model, rep):
    return [i for i in model.identities if reps.get(i, i) == rep] or [rep]


def o_condition(cond, world, rep, reps, model):
    if isinstance(cond, PBool):
        return cond.value
    if isinstance(cond, RequesterAt):
        return any(reps.get(n, n) == rep for n in _placement(world, cond.loc.name))
    if isinstance(cond, HasCred):
        return any(cond.cred in _creds(world, m) for m in _members(reps, model, rep))
    if isinstance(cond, HasRole):
        return any(cond.role in _roles(world, m) for m in _members(reps, model, rep))
    if isinstance(cond, IsIn):
        return _value(world, cond.loc.name) == cond.value
    if isinstance(cond, CountAtLeast):
        return len(_placement(world, cond.loc.name)) >= cond.count
    if isinstance(cond, AllAtAuthorized):
        return all(n in cond.allowed for n in _placement(world, cond.loc.name))
    if isinstance(cond, CondNot):
        return not o_condition(cond.arg, world, rep, reps, model)
    if isinstance(cond, CondAnd):
        return o_condition(cond.left, world, rep, reps, model) and o_condition(
            cond.right, world, rep, reps, model
        )
    if isinstance(cond, CondOr):
        return o_condition(cond.left, world, rep, reps, model) or o_condition(
            cond.right, world, rep, reps, model
        )
    raise AssertionError(f"oracle got unknown condition {cond!r}")


def o_predicate(pred, world, reps, model, arg=None):
    """The named predicate ``pred`` applied to ``arg`` on an oracle world:
    an identity slot that names the parameter reads ``arg``, and the atoms
    policy conditions share go through ``o_condition``."""

    def ident(name):
        return arg if name == pred.param else name

    def holds(e):
        if isinstance(e, PEnables):
            who = ident(e.identity)
            return o_enables(model, world, e.loc.name, reps.get(who, who), e.action, reps)
        if isinstance(e, PAt):
            return ident(e.identity) in _placement(world, e.loc.name)
        if isinstance(e, PInSet):
            return ident(e.identity) in model.identity_sets[e.set_name]
        if isinstance(e, CondNot):
            return not holds(e.arg)
        if isinstance(e, CondAnd):
            return holds(e.left) and holds(e.right)
        if isinstance(e, CondOr):
            return holds(e.left) or holds(e.right)
        return o_condition(e, world, None, reps, model)

    return holds(pred.body)


def o_enables(model, world, locname, rep, action, reps):
    for fc in model.assumptions:
        if fc.location.name == locname and fc.action == action:
            if reps.get(fc.foe, fc.foe) == rep and any(
                reps.get(x, x) != rep for x in _placement(world, locname)
            ):
                return False
    for loc, pols in model.policy_map.items():
        if loc.name != locname:
            continue
        for pol in pols:
            if action in pol.actions and o_condition(pol.condition, world, rep, reps, model):
                return True
    return False


def _replace_placements(world, placements):
    return (tuple(sorted(placements)),) + world[1:]


def o_successors(model, world, reps):
    """Set of successor worlds under the four rules, recomputed naively."""
    out = set()
    nodes = {l.name for edge in model.edges for l in edge}
    locnames = [l.name for l in sorted(model.locations, key=lambda l: l.id)]
    alphabet = {l.name: sorted(v) for l, v in model.value_alphabet.items()}
    placed = [(i, name) for name, ids in world[0] for i in ids]

    for ident, src in placed:
        if src not in nodes:
            continue
        rep = reps.get(ident, ident)
        for dst in locnames:
            if dst not in nodes or not o_enables(model, world, dst, rep, "move", reps):
                continue
            if ident in _placement(world, dst):
                out.add(world)
                continue
            placements = {name: list(ids) for name, ids in world[0]}
            placements[src].remove(ident)
            placements.setdefault(dst, []).append(ident)
            out.add(
                _replace_placements(
                    world,
                    [(n, tuple(sorted(ids))) for n, ids in placements.items() if ids],
                )
            )

    for ident, loc in placed:
        rep = reps.get(ident, ident)
        if not o_enables(model, world, loc, rep, "get", reps):
            continue
        shareable = set()
        for member in _members(reps, model, rep):
            shareable |= _creds(world, member)
        for receiver in _placement(world, loc):
            for token in shareable:
                creds = {i: set(c) for i, c in world[1]}
                creds.setdefault(receiver, set()).add(token)
                out.add(
                    (
                        world[0],
                        tuple(sorted((i, tuple(sorted(c))) for i, c in creds.items() if c)),
                        world[2],
                        world[3],
                    )
                )

    def put(locname, token):
        values = {n: v for n, v in world[3]}
        values[locname] = token
        out.add(world[:3] + (tuple(sorted(values.items())),))

    for ident, loc in placed:
        rep = reps.get(ident, ident)
        if o_enables(model, world, loc, rep, "put", reps):
            for token in alphabet.get(loc, ()):
                put(loc, token)

    for ident in model.identities:
        rep = reps.get(ident, ident)
        for locname in locnames:
            if o_enables(model, world, locname, rep, "put", reps):
                for token in alphabet.get(locname, ()):
                    put(locname, token)

    return out


def o_reach(model, start_graph=None):
    """Naive breadth-first closure; returns (worlds, adjacency)."""
    reps = o_reps(model)
    start = o_world(model.initial if start_graph is None else start_graph)
    seen = {start}
    adjacency = {}
    queue = [start]
    while queue:
        world = queue.pop(0)
        nxt = o_successors(model, world, reps)
        adjacency[world] = nxt
        for w in nxt:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen, adjacency


def backward_closure(edge_lists, targets):
    """Transitive closure over reversed edges, by plain iteration."""
    result = set(targets)
    changed = True
    while changed:
        changed = False
        for i, out in enumerate(edge_lists):
            if i not in result and any(j in result for _, j in out):
                result.add(i)
                changed = True
    return frozenset(result)


# ---------------------------------------------------------------------------
# The checks of a model's names, as Model first stated them: a generator
# walk, five getattr calls and three sets per atom, and every group of words
# sorted before it is checked.


def _o_leaves(expr):
    if isinstance(expr, CondNot):
        yield from _o_leaves(expr.arg)
    elif isinstance(expr, (CondAnd, CondOr)):
        yield from _o_leaves(expr.left)
        yield from _o_leaves(expr.right)
    else:
        yield expr


def o_check_atoms(expr, what, language, locations, identities, sets, param=None):
    """Raise the first ModelError ``check_atoms`` must raise, or none."""
    for atom in _o_leaves(expr):
        if isinstance(atom, Pred):
            raise ModelError(f"{what} uses predicate {atom.name!r}, which only a formula may")
        if not isinstance(atom, language):
            name = type(atom).__name__
            raise ModelError(f"{what} uses {name}, which is not a {language.__name__}")
        loc, action = getattr(atom, "loc", None), getattr(atom, "action", None)
        if loc is not None and loc not in locations:
            raise ModelError(f"{what} references unknown location {loc}")
        if action is not None and action not in ACTIONS:
            raise ModelError(f"{what} references unknown action {action!r}")
        s = getattr(atom, "set_name", None)
        if s is not None and s not in sets:
            raise ModelError(f"{what} references unknown set {s!r}")
        named = getattr(atom, "allowed", set()) | ({getattr(atom, "identity", param)} - {param})
        if stray := named - identities:
            raise ModelError(f"{what} references unknown identity {min(stray)!r}")


def o_check_name(value, what):
    word = isinstance(value, str) and value.isascii()
    if not (word and (value.isidentifier() or value.isdigit())):
        raise ModelError(f"{what} must be a word ([A-Za-z_][A-Za-z0-9_]* or digits): {value!r}")


def o_word_rule(groups):
    """Raise the first ModelError the word rule must raise over ``groups``,
    ``(what, words)`` pairs in the order Model checks them, or none."""
    for what, words in groups:
        for word in sorted(words, key=str):
            o_check_name(word, what)

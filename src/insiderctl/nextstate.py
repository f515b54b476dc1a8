"""One straight-line row writer per model, compiled once (as SPIN writes a
verifier per model, its search loop and state store one piece of code).

The judgment atoms, the foe-control exclusion, each class's positions, the
move targets, the writable slots and the alphabets are unrolled into the
source, constant guards folded, and equal guards held in one local.
``row(v, x)`` writes the whole edge row of the next state ``v`` that the
exploration ``x`` expands, as the closures of
:func:`~insiderctl.transition.successors` do: the same labels, the same
targets in the same order, new states numbered as they are first reached.
The source holds only integers, slot indices and text written here; every
name and value reaches it through a constants tuple.  Nothing the writer
holds refers to the model's tables, so it forms no reference cycle.
Models with equal sources share one code object.
"""

from .model import AllAtAuthorized, And, CountAtLeast, HasCred, HasRole, IsIn, Not, Or
from .model import PBool, RequesterAt, Tables
from .transition import _label

_CODE: dict = {}  # source text -> code object, the most recently built last
_KEEP = 32


def _join(op: str, parts: list):
    """``parts``, expressions and bools, joined by ``op`` (" and " or
    " or ") with the bools folded: an expression, or a bool."""
    absorbing = op == " or "  # True absorbs "or", False absorbs "and"
    if any(part is absorbing for part in parts):
        return absorbing
    keep = [part for part in parts if type(part) is str]
    return (f"({op.join(keep)})" if len(keep) > 1 else keep[0]) if keep else not absorbing


def _cond(e, rep: str, t: Tables, const):
    """``e``, a policy condition, for the class ``rep`` as
    :func:`vector_condition` means it: an expression over ``v``, ``w =
    v[:n]`` and ``x0``..., or a bool; ``const`` names a constant.  Chains of
    ``&``, ``|`` and ``!`` are flattened."""
    n, negate, mine = t.n, False, t.at[rep]
    while isinstance(e, Not):
        e, negate = e.arg, not negate
    match e:
        case And() | Or():
            parts, stack, kind = [], [e], type(e)
            while stack:
                x = stack.pop()
                if isinstance(x, kind):
                    stack += (x.right, x.left)
                else:
                    parts.append(_cond(x, rep, t, const))
            out = _join(" and " if kind is And else " or ", parts)
        case PBool(value=value):
            out = value
        case RequesterAt(loc=loc):
            out = _join(" or ", [f"x{p} == {t.loc_pos[loc]}" for p in mine])
        case HasCred(cred=x) | HasRole(role=x):
            base = n if isinstance(e, HasCred) else 2 * n
            out = _join(" or ", [f"{const(x)} in v[{base + p}]" for p in mine])
        case IsIn(loc=loc, value=value):
            out = f"v[{3 * n + t.loc_pos[loc]}] == {const(value)}"
        case CountAtLeast(loc=loc, count=count):
            out = count <= n and f"w.count({t.loc_pos[loc]}) >= {count}"
        case AllAtAuthorized(loc=loc, allowed=ok):
            k = t.loc_pos[loc]
            out = _join(" and ", [f"x{p} != {k}" for p, i in enumerate(t.ids) if i not in ok])
    return (not out if type(out) is bool else f"(not {out})") if negate else out


def source(t: Tables) -> tuple:
    """The text of ``make(G, K, C)``, which returns ``t``'s row writer; the
    constants ``C``; and ``K``, which interns the label of a key that
    ``t.labels`` (whose ``get`` is ``G``) lacks."""
    n, reps, labels, ids, locs = t.n, t.reps, t.labels, t.ids, t.locs
    classes, constants, names = dict.fromkeys(reps), [], {}

    def const(obj) -> str:
        """The name ``obj`` has in the source; equal strings share one."""
        key = obj if type(obj) is str else len(constants)
        if key not in names:
            names[key] = f"c{len(constants)}"
            constants.append(obj)
        return names[key]

    def new(key: tuple):
        return labels.get(key) or labels.setdefault(key, _label(ids, locs, *key))

    def guard(action: str, k: int, rep: str):
        """The judgment of ``action`` at location ``k`` for the class ``rep``."""
        holds = _join(" or ", [_cond(c, rep, t, const) for c, _ in t.policies.get((k, action), ())])
        if holds is not False and t.outside.get((k, action), {}).get(rep):
            own = " + ".join(f"(x{p} == {k})" for p in t.at[rep])  # nobody else at k
            holds = _join(" and ", [f"w.count({k}) == {own}", holds])
        return holds

    target = "(j if (j := get(s := {}, -1)) >= 0 else N(s))".format  # its number, interned if new

    xs = "".join(f"x{p}, " for p in range(n))
    body = ["i, T, L = len(x.offsets) - 1, x.targets, x.labels", f"w = v[:{n}]", f"({xs}) = w"]
    body.append("get, N, at, al = x.index.get, x.add, T.append, L.append")
    guards: dict = {}  # (action, k, rep) -> True or a local; absent when False
    local: dict = {}  # expression -> the one local that holds it
    for action, ks in (("move", t.targets), ("put", t.writable)):
        for rep in classes:
            for k in ks:
                g = guard(action, k, rep)
                if type(g) is str:
                    g = local.setdefault(g, f"g{len(local)}")
                if g is not False:
                    guards[action, k, rep] = g
    body += [f"{g} = {e}" for e, g in local.items()]

    for p, rep in enumerate(reps):
        moves = [(k, guards["move", k, rep]) for k in t.targets if ("move", k, rep) in guards]
        if moves:
            body += [f"if x{p} in {set(t.targets)}:", f" b = v[:{p}]", f" e = v[{p + 1}:]"]
        for k, g in moves:  # labelled by the source location; a move in place leaves v
            src = [new(("move", p, a, k)) if a in t.targets else None for a in range(len(locs))]
            succ = target(f"b + ({k},) + e")
            line = f"al({const(tuple(src))}[x{p}]); at(i if x{p} == {k} else {succ})"
            body.append(f" {line}" if g is True else f" if {g}: {line}")

    for p, rep in enumerate(reps):
        where = [_join(" and ", [f"x{p} == {k}", guard("get", k, rep)]) for k in range(len(locs))]
        holds = _join(" or ", where)
        if holds is False:
            continue
        held = [f"v[{n + m}]" for m in t.at[rep]]
        body += [
            f"if {holds}:",
            f" k = x{p}",
            f" cs = sorted({held[0]}.union({', '.join(held[1:])}))",
            f" for r in range({n}):",
            "  if w[r] == k:",
            f"   h = v[{n} + r]",
            "   for c in cs:",
            f'    al(G(q := ("get", r, {p}, k, c)) or K(q))',
            f"    at(i if c in h else {target(f'v[:{n} + r] + (h | {{c}},) + v[{n + 1} + r:]')})",
        ]

    puts, used = [], set()
    for rule in ("put", "put_remote"):
        for p, rep in enumerate(reps):
            ks = [(k, guards["put", k, rep]) for k in t.writable if ("put", k, rep) in guards]
            for m, (k, g) in enumerate(ks):
                used.add(k)
                row = const(tuple(new((rule, p, k, x)) for x in t.alphabet[k]))
                line = f"T += P{k} or (P{k} := s{k}(v, i, get, N)); L += {row}"
                test = g if rule == "put_remote" else _join(" and ", [f"x{p} == {k}", g])
                el = "el" if m and rule == "put" else ""
                puts.append(line if test is True else f"{el}if {test}: {line}")
    body += [f"P{k} = ()" for k in sorted(used)] + puts

    # s{k}: the targets of writing each value at k, found on the first row
    # that writes k, so that states are numbered in edge order.
    writes = []
    for k in sorted(used):  # putting the current value u leaves v
        j, cs = 3 * n + k, map(const, t.alphabet[k])
        values = ", ".join(f"i if u == {c} else {target(f'b + ({c},) + e')}" for c in cs)
        writes += [f" def s{k}(v, i, get, N):", f"  u, b, e = v[{j}], v[:{j}], v[{j + 1}:]"]
        writes.append(f"  return [{values}]")

    names = "".join(f"c{i}, " for i in range(len(constants)))
    body = [f" ({names}) = C", *writes, " def row(v, x):", *(f"  {x}" for x in body)]
    body += ["  x.offsets.append(len(T))", " return row"]
    return "\n".join(["def make(G, K, C):", *body]), constants, new


def build(t: Tables):
    """``t``'s row writer, or ``None`` when its source does not
    compile (a condition nested deeper than Python's parser takes)."""
    try:
        text, constants, new = source(t)
        code = _CODE.pop(text, None) or compile(text, "<nextstate>", "exec")
    except (SyntaxError, RecursionError, MemoryError):
        return None
    _CODE[text] = code
    if len(_CODE) > _KEEP:
        del _CODE[next(iter(_CODE))]
    namespace: dict = {}
    exec(code, namespace)
    # Popped, so that make and the globals it runs in form no cycle.
    return namespace.pop("make")(t.labels.get, new, constants)

"""Record classes: the part of :mod:`dataclasses` this package uses, built
at a fraction of its import and class-creation cost.

``@record`` turns a class's annotated attributes into fields in order, as
``@dataclass(frozen=True)`` does, and adds ``__init__`` (which calls
``__post_init__`` when the class has one), ``__repr__``, ``__eq__``,
``__hash__`` and ``__match_args__``.  Every record is frozen: assignment
and deletion raise :class:`FrozenInstanceError`, and
``object.__setattr__`` still works.  A record is exactly its fields: each
is an ``__init__`` argument, with at most a plain class-level default, and
each is printed, compared and hashed.  State derived from the fields, such
as a cache or an index, is a plain attribute set through
``object.__setattr__`` or ``vars(self)``; it takes no part in the record's
text, equality or hash.  Each method does what the one ``dataclasses`` writes
does, and runs at least as fast, because it is generated source too; but a
class takes one compile, not several ``exec`` calls and an
``inspect.signature``, and classes with the same field layout share it.
``__dataclass_fields__`` lets ``dataclasses.is_dataclass``, ``replace``
and ``fields`` take records.

Not supported, because no record needs them: ``dataclasses.field`` and
its options, fields inherited from a record base, ``ClassVar`` and
``InitVar``, keyword-only fields, ordering, ``__slots__``, and a docstring
derived from the signature.
"""

import sys

MISSING = object()


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, a field of a record."""


class Field:
    """One field: its name, its annotation and its default (``MISSING`` if none); what
    ``dataclasses.fields`` and ``replace`` read of a field."""

    __slots__ = ("name", "type", "default")
    init = True  # every field is an __init__ argument

    def __init__(self, name: str, type, default):
        self.name, self.type, self.default = name, type, default

    @property
    def _field_type(self):
        # The marker that dataclasses.fields() and replace() look for on a
        # plain field; only they read it, so dataclasses is imported.
        return sys.modules["dataclasses"]._FIELD


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_CODE: dict = {}  # generated source -> its code object, shared by equal layouts


def _methods(fields: list, post_init: bool) -> tuple[str, list]:
    """The source of ``make(_set, ...)``, which returns the record's
    ``__init__``, ``__repr__``, ``__eq__`` and ``__hash__``, and the
    defaults that ``make`` takes after ``_set``."""
    params, body, names, defaults = ["self"], [], [], []
    for f in fields:
        n = f.name
        if f.default is MISSING:
            params.append(n)
        else:
            names.append(f"_d_{n}")
            defaults.append(f.default)
            params.append(f"{n}=_d_{n}")
        body.append(f"_set(self, {n!r}, {n})")
    if post_init:
        body.append("self.__post_init__()")
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields)
    mine = "".join(f"self.{f.name}," for f in fields)
    theirs = mine.replace("self.", "other.")
    source = "\n".join([
        f"def make(_set, {', '.join(names)}):",
        f" def __init__({', '.join(params)}):",
        *(f"  {line}" for line in body or ["pass"]),
        " def __repr__(self):",
        f'  return self.__class__.__qualname__ + f"({shown})"',
        " def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"   return ({mine}) == ({theirs})",
        "  return NotImplemented",
        " def __hash__(self):",
        f"  return hash(({mine}))",
        " return __init__, __repr__, __eq__, __hash__",
    ])
    return source, defaults


def record(cls):
    """Class decorator; see the module docstring."""
    # A plain default stays a class attribute, as dataclasses leaves it.
    fields = {
        name: Field(name, annotation, cls.__dict__.get(name, MISSING))
        for name, annotation in cls.__dict__.get("__annotations__", {}).items()
    }
    listed = list(fields.values())
    source, defaults = _methods(listed, hasattr(cls, "__post_init__"))
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<record>", "exec")
    namespace: dict = {}
    exec(code, {"__name__": cls.__module__}, namespace)
    made = namespace["make"](object.__setattr__, *defaults)
    for fn in made:
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    made[0].__annotations__ = {f.name: f.type for f in listed} | {"return": None}
    methods = dict(
        zip(("__init__", "__repr__", "__eq__", "__hash__"), made),
        __setattr__=_frozen_setattr, __delattr__=_frozen_delattr, __match_args__=tuple(fields),
    )
    for name, value in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    cls.__dataclass_fields__ = fields
    return cls

"""Record classes: the part of :mod:`dataclasses` this package uses, built
at a fraction of its import and class-creation cost.

``@record`` and ``@record(frozen=True)`` turn a class's annotated
attributes into fields in order, as ``@dataclass`` does, and add
``__init__`` (which calls ``__post_init__`` when the class has one),
``__repr__``, ``__eq__`` and ``__match_args__``.  A frozen record also
gets ``__hash__`` and assignment and deletion that raise
:class:`FrozenInstanceError`; ``object.__setattr__`` still works.  A
mutable record is unhashable.  :func:`field` takes ``default``,
``default_factory``, ``init``, ``repr`` and ``compare``.  Each method does
what the one ``dataclasses`` writes does, and runs at least as fast, because
it is generated source too; but a class takes one compile, not several
``exec`` calls and an ``inspect.signature``, and classes with the same field
layout share it.  ``__dataclass_fields__`` lets ``dataclasses.is_dataclass``,
``replace`` and ``fields`` take records.

Not supported, because no record needs them: fields inherited from a
record base, ``ClassVar`` and ``InitVar``, keyword-only fields, ordering,
``__slots__``, and a docstring derived from the signature.
"""

import sys

MISSING = object()
# The default of a parameter whose field has a factory; it prints as in
# the signatures dataclasses writes.
_FACTORY = type("Factory", (), {"__repr__": lambda self: "<factory>"})()


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, a field of a frozen record."""


class Field:
    """One field: what ``dataclasses.field`` records, for the keywords
    :func:`field` takes."""

    __slots__ = ("name", "type", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, *, default=MISSING, default_factory=MISSING, init=True, repr=True, compare=True):
        self.name = self.type = None
        self.default, self.default_factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare

    @property
    def _field_type(self):
        # The marker that dataclasses.fields() and replace() look for on a
        # plain field; only they read it, so dataclasses is imported.
        return sys.modules["dataclasses"]._FIELD


field = Field


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_CODE: dict = {}  # generated source -> its code object, shared by equal layouts


def _methods(fields: list, frozen: bool, post_init: bool) -> tuple[str, list]:
    """The source of ``make(_set, _factory, ...)``, which returns the
    record's ``__init__``, ``__repr__``, ``__eq__`` and ``__hash__``, and
    the defaults and factories that ``make`` takes after its first two
    parameters."""
    params, body, names, values = ["self"], [], [], []
    for f in fields:
        n = value = f.name
        if f.default_factory is not MISSING:
            names.append(f"_f_{n}")
            values.append(f.default_factory)
            if f.init:
                params.append(f"{n}=_factory")
                value = f"_f_{n}() if {n} is _factory else {n}"
            else:
                value = f"_f_{n}()"
        elif not f.init:
            continue  # the class attribute or __post_init__ gives the value
        elif f.default is not MISSING:
            names.append(f"_d_{n}")
            values.append(f.default)
            params.append(f"{n}=_d_{n}")
        else:
            params.append(n)
        body.append(f"_set(self, {n!r}, {value})" if frozen else f"self.{n} = {value}")
    if post_init:
        body.append("self.__post_init__()")
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields if f.repr)
    mine = "".join(f"self.{f.name}," for f in fields if f.compare)
    theirs = mine.replace("self.", "other.")
    source = "\n".join([
        f"def make(_set, _factory, {', '.join(names)}):",
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
    return source, values


def _build(cls, frozen: bool):
    fields = {}
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        f = cls.__dict__.get(name, MISSING)
        if not isinstance(f, Field):
            f = Field(default=f)
        f.name, f.type = name, annotation
        fields[name] = f
        # The class keeps a plain default as an attribute, as dataclasses does.
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif name in cls.__dict__:
            delattr(cls, name)
    listed = list(fields.values())
    source, values = _methods(listed, frozen, hasattr(cls, "__post_init__"))
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<record>", "exec")
    namespace: dict = {}
    exec(code, {"__name__": cls.__module__}, namespace)
    made = namespace["make"](object.__setattr__, _FACTORY, *values)
    for fn in made:
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    init_fields = [f for f in listed if f.init]
    made[0].__annotations__ = {f.name: f.type for f in init_fields} | {"return": None}
    methods = dict(zip(("__init__", "__repr__", "__eq__", "__hash__"), made))
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    else:
        methods["__hash__"] = None
    methods["__match_args__"] = tuple(f.name for f in init_fields)
    for name, value in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    cls.__dataclass_fields__ = fields
    return cls


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator; see the module docstring."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)

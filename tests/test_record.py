"""The record helper against stdlib ``dataclasses``, and what a
command-line process imports.

Every record class of the package is rebuilt as a twin with
``dataclasses.make_dataclass`` from the same annotations, defaults and
methods; records and twins must construct, print, compare and hash alike,
on instances gathered from the airplane scenario, seeded random models,
formulas, door runs and diagnostics.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import insiderctl
from children import run_python
from genmodels import random_model
from insiderctl import airplane, door, record
from insiderctl.ctl import check, extract_trace, reachable
from insiderctl.formula import parse_formula
from insiderctl.modelfile import ModelParseError, _Entry, parse_model

MODULES = [
    importlib.import_module(f"insiderctl.{info.name}")
    for info in pkgutil.iter_modules(insiderctl.__path__)
    if info.name != "__main__"
]
RECORDS = sorted(
    {
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and "__dataclass_fields__" in vars(value)
    },
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
MUTABLE = {"Model", "KripkeModel", "_Entry"}
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}


def twin(cls):
    """``cls`` rebuilt with stdlib dataclasses."""
    specs = []
    for f in cls.__dataclass_fields__.values():
        kw = {"init": f.init, "repr": f.repr, "compare": f.compare}
        if f.default is not record.MISSING:
            kw["default"] = f.default
        if f.default_factory is not record.MISSING:
            kw["default_factory"] = f.default_factory
        specs.append((f.name, f.type, dataclasses.field(**kw)))
    namespace = {
        name: value
        for name, value in vars(cls).items()
        if name not in GENERATED
        and (inspect.isfunction(value) or isinstance(value, property))
    }
    made = dataclasses.make_dataclass(
        cls.__name__,
        specs,
        bases=cls.__bases__,
        namespace=namespace,
        frozen=cls.__name__ not in MUTABLE,
    )
    made.__module__ = cls.__module__
    return made


def gather(roots) -> dict:
    """Up to six record instances per class, found by walking ``roots``."""
    found: dict = {}
    stack, seen = list(roots), set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if "__dataclass_fields__" in vars(type(x)):
            samples = found.setdefault(type(x), [])
            if len(samples) < 6:
                samples.append(x)
            stack.extend(vars(x).values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x)
            stack.extend(x.values())
    return found


def _diagnostics():
    try:
        parse_model("locations\n  a zero\n")
    except ModelParseError as exc:
        return exc.diagnostics


@pytest.fixture(scope="module")
def samples():
    models = [airplane.build_airplane_model(v) for v in ("baseline", "four_eyes")]
    models.append(models[1].with_assumptions([airplane.cockpit_foe_control()]))
    models += [random_model(seed) for seed in range(12)]
    models.append(parse_model("locations\n  a 0\npredicates\n  p := true & !false\n"))
    kripke = reachable(models[0])
    ctl = parse_formula("AG (EF a | !E[b U c]) & A[d U e] & E[f R g] | A[h R i] & EX AX AF EG j")
    failing = parse_formula("AG eve_ok")
    roots = [
        models,
        kripke,
        ctl,
        check(kripke, failing),
        extract_trace(kripke, failing, "counterexample"),
        door.door_run(door.parse_script("pin_ok\nwait 31\nlock\nwait 1\nunlock\n")),
        airplane.risk_compare(0.1, 0.2, 0.3),
        models[0].resolver.actor_of("Eve"),
        _diagnostics(),
        _Entry(3, "x"),
    ]
    return gather(roots)


def rebuild(cls, obj):
    """A new ``cls`` from ``obj``'s arguments; an argument that has a
    default and takes no part in comparison holds derived data, and is
    left out."""
    return cls(**{
        f.name: getattr(obj, f.name)
        for f in cls.__dataclass_fields__.values()
        if f.init and (f.compare or (f.default, f.default_factory) == (record.MISSING,) * 2)
    })


def outcome(make):
    """What ``make()`` gives: an integer, or the text and attribute names
    of an object, or the type and message of the error it raises."""
    try:
        obj = make()
    except Exception as exc:  # noqa: BLE001 - errors must match too
        return type(exc).__name__, str(exc)
    return obj if isinstance(obj, int) else (repr(obj), list(vars(obj)))


def test_every_record_has_samples(samples):
    assert len(RECORDS) >= 47  # the count when insiderctl.record replaced dataclasses
    assert [cls.__name__ for cls in RECORDS if cls not in samples] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls, samples):
    other = twin(cls)
    assert cls.__match_args__ == other.__match_args__
    assert str(inspect.signature(cls)) == str(inspect.signature(other))
    objs = [rebuild(cls, obj) for obj in samples[cls]]
    twins = [rebuild(other, obj) for obj in samples[cls]]
    for a, a2 in zip(objs, twins):
        assert repr(a) == repr(a2)
        assert list(vars(a)) == list(vars(a2))
        assert a == rebuild(cls, a) and a != a2
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(a2))
        if cls.__name__ in MUTABLE:
            assert cls.__hash__ is None
        for b, b2 in zip(objs, twins):
            assert (a == b) == (a2 == b2)
    # Defaults: build from the required arguments alone.
    obj = samples[cls][0]
    required = {
        f.name: getattr(obj, f.name)
        for f in cls.__dataclass_fields__.values()
        if f.init and f.default is record.MISSING and f.default_factory is record.MISSING
    }
    assert outcome(lambda: cls(**required)) == outcome(lambda: other(**required))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_dataclasses_functions_take_records(cls, samples):
    obj, other = samples[cls][0], twin(cls)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(obj)
    assert [f.name for f in dataclasses.fields(obj)] == [f.name for f in dataclasses.fields(other)]
    # ActorResolver passes its filled tables on, and both refuse them.
    replaced = outcome(lambda: dataclasses.replace(obj))
    assert replaced == outcome(lambda: dataclasses.replace(rebuild(other, obj)))
    # A field outside __init__ cannot be replaced (ValueError, from 3.13 TypeError).
    for name in [f.name for f in cls.__dataclass_fields__.values() if not f.init]:
        refused = outcome(lambda: dataclasses.replace(obj, **{name: None}))
        assert refused[0] in ("ValueError", "TypeError")
        assert refused == outcome(lambda: dataclasses.replace(rebuild(other, obj), **{name: None}))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment(cls, samples):
    obj = rebuild(cls, samples[cls][0])
    name = next(iter(cls.__dataclass_fields__), "anything")
    if cls.__name__ in MUTABLE:
        setattr(obj, name, getattr(obj, name))
        return
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    with pytest.raises(record.FrozenInstanceError):
        setattr(obj, "_cache", 1)
    object.__setattr__(obj, "_cache", 1)
    assert obj._cache == 1


def test_replace_changes_one_field(baseline_kripke):
    verdict = check(baseline_kripke, parse_formula("AG eve_ok"))
    smaller = dataclasses.replace(verdict, sat=verdict.sat - {max(verdict.sat)})
    assert smaller.holds == verdict.holds and len(smaller.sat) == len(verdict.sat) - 1
    assert smaller != verdict


def test_no_module_of_the_package_imports_dataclasses():
    for module in MODULES:
        assert "dataclasses" not in vars(module), module.__name__


# ---------------------------------------------------------------------------
# Cold start


def _imported(*args) -> set:
    """The modules ``python *args`` imports.  ``-S`` leaves out what the
    site's ``.pth`` files load, which may include ``random`` or ``inspect``."""
    proc = run_python("-S", "-X", "importtime", *args)
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert lines, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in lines}


@pytest.mark.parametrize(
    "query",
    [
        ["check", "tests/data/airplane.model", "AG eve_ok"],
        ["witness", "tests/data/airplane.model", "EF eve_violates"],
    ],
    ids=["check", "witness"],
)
def test_a_query_imports_only_what_it_runs(query):
    extra = _imported("-m", "insiderctl", *query) - _imported("-c", "pass")
    assert "insiderctl.ctl" in extra
    unwanted = {"dataclasses", "inspect", "random", "insiderctl.door", "insiderctl.airplane"}
    assert extra & unwanted == set()


# ---------------------------------------------------------------------------
# Package exports

EXPORTS = [
    "ACTIONS", "ActorClassId", "ActorPsyState", "ActorResolver", "AtomicPolicy",
    "FoeControl", "InfraGraph", "InsiderDecl", "KripkeModel", "Location", "Model",
    "ModelError", "StatePredicate", "TransitionLabel", "Verdict", "airplane",
    "build_airplane_model", "build_resolver", "check", "ctl", "dot_export", "enables",
    "encode", "eval_condition", "eval_ctl", "eval_predicate", "extract_trace", "formula",
    "gfp_iterate", "lfp_iterate", "lint_model", "model", "modelfile", "move_graph",
    "named_state", "parse_formula", "parse_model", "pretty", "reachable", "risk_compare",
    "serialize_model", "shortest_path", "shortest_path_via", "successors",
    "tipping_point", "transition",
]


def test_package_exports_are_unchanged():
    assert insiderctl.__all__ == EXPORTS
    from insiderctl import build_airplane_model, named_state, risk_compare

    assert build_airplane_model is airplane.build_airplane_model
    assert named_state is airplane.named_state and risk_compare is airplane.risk_compare
    assert all(getattr(insiderctl, name) is not None for name in EXPORTS)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        insiderctl.nope


def test_the_airplane_loads_on_first_use():
    code = (
        "import sys, insiderctl\n"
        "assert 'insiderctl.airplane' not in sys.modules\n"
        "from insiderctl import *\n"
        "print(build_airplane_model('four_eyes').variant, airplane.__name__)\n"
    )
    proc = run_python("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "four_eyes insiderctl.airplane\n", "")

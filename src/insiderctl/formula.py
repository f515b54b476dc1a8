"""Surface syntax for CTL formulas.

Grammar (standard precedence, ``!`` over ``&`` over ``|``; prefix temporal
operators bind like ``!``)::

    f ::= NAME | !f | f & f | f "|" f
        | EX f | AX f | EF f | AF f | EG f | AG f
        | E[f U f] | A[f U f] | E[f R f] | A[f R f]
        | (f)

``EX``, ``AX``, ``EF``, ``AF``, ``EG``, ``AG``, ``E``, ``A``, ``U``, ``R``
are reserved (:data:`insiderctl.model.RESERVED`) and cannot name predicates,
nor can digits: :class:`~insiderctl.model.StatePredicate` rejects both.
``pretty`` emits a minimal-paren rendering that parses back to the same
tree.  The connectives, the parser core and the printer are the ones policy
conditions and predicates use (see :mod:`insiderctl.model`); this module
adds the temporal operators.
"""

from __future__ import annotations

import re

from .ctl import AF, AG, AR, AU, AX, CtlFormula, EF, EG, ER, EU, EX, Pred
from .model import RESERVED, Not, Parser, expr_text

_BRACKET = {("E", "U"): EU, ("A", "U"): AU, ("E", "R"): ER, ("A", "R"): AR}


class FormulaParseError(ValueError):
    def __init__(self, pos: int, message: str):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class _FormulaParser(Parser):
    TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([!&|()\[\]])|(\S))")
    END = "formula"
    error = FormulaParseError
    PREFIX = {"!": Not, "EX": EX, "AX": AX, "EF": EF, "AF": AF, "EG": EG, "AG": AG}

    def atom(self, tok: str) -> CtlFormula:
        if tok in ("E", "A"):
            self.expect("[")
            left = self.expr()
            op = self.next()
            if op not in ("U", "R"):
                self.fail(f"expected 'U' or 'R', found {op!r}")
            right = self.expr()
            self.expect("]")
            return _BRACKET[tok, op](left, right)
        if tok in RESERVED:
            self.fail(f"{tok!r} is reserved and cannot be a predicate")
        if tok.isidentifier():
            return Pred(tok)
        self.fail(f"unexpected {tok!r}")


def parse_formula(text: str) -> CtlFormula:
    return _FormulaParser(text).parse()


def _leaf_text(f: CtlFormula) -> str:
    # The class names of the temporal operators are their surface syntax.
    name = type(f).__name__
    if isinstance(f, Pred):
        return f.name
    if name in _FormulaParser.PREFIX:
        return name + " "
    if isinstance(f, (EU, AU, ER, AR)):
        left, right = expr_text(f.left, _leaf_text), expr_text(f.right, _leaf_text)
        return f"{name[0]}[{left} {name[1]} {right}]"
    raise ValueError(f"unknown formula node {f!r}")


def pretty(f: CtlFormula) -> str:
    """Minimal-paren rendering; ``parse_formula(pretty(f)) == f``."""
    return expr_text(f, _leaf_text)

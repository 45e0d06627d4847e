"""Estelle text front-end: tokenizer, parser and semantic lowering.

This package closes the loop of the paper's methodology — *"from a Formal
Description to a Working Multimedia System"* — by compiling a textual Estelle
(ISO 9074) specification into the executable :class:`repro.estelle`
object model.  The produced :class:`~repro.estelle.specification.Specification`
is indistinguishable from a hand-built one: it passes the same static
validation (:mod:`repro.estelle.validation`), runs on the same simulated
multiprocessor runtime (:mod:`repro.runtime`), and can be fed to the
optimizing code generator (:mod:`repro.runtime.codegen`).

Usage::

    from repro.estelle.frontend import compile_file

    spec = compile_file("examples/specs/mcam_core.estelle")
    spec.describe()          # already validated

Errors are source-located: :class:`EstelleSyntaxError` for grammar
violations, :class:`EstelleSemanticError` for static-semantic ones; both
expose ``line`` and ``column``.

Supported Estelle subset (EBNF)
-------------------------------

The front-end accepts a pragmatic subset of ISO 9074 sufficient for the
paper's protocol specifications.  Keywords are case-insensitive; comments are
``{ ... }`` or ``(* ... *)``; strings use single or double quotes.

.. code-block:: ebnf

    specification  = "specification" IDENT ";"
                     { channel | module | body | modvar | connect }
                     "end" "." ;

    channel        = "channel" IDENT "(" IDENT "," IDENT ")" ";"
                     { "by" IDENT ":" IDENT { "," IDENT } ";" }
                     "end" ";" ;

    module         = "module" IDENT attribute ";"
                     { "ip" IDENT ":" [ "array" "[" INTEGER ".." INTEGER "]"
                                        "of" ] IDENT "(" IDENT ")" ";" }
                     "end" ";" ;
    attribute      = "systemprocess" | "systemactivity"
                   | "process" | "activity" ;

    body           = "body" IDENT "for" IDENT ";"
                     [ "state" IDENT { "," IDENT } ";" ]
                     [ "initialize" [ "to" IDENT ] block ";" ]
                     { trans }
                     "end" ";" ;

    trans          = "trans" { clause } block ";" ;
    clause         = "from" ( "any" | IDENT { "," IDENT } )
                   | "to" IDENT
                   | "when" ipref "." IDENT
                   | "provided" expr
                   | "priority" [ "-" ] INTEGER
                   | "delay" ( NUMBER | "(" NUMBER "," NUMBER ")" )
                   | "cost" NUMBER
                   | "name" IDENT ;

    modvar         = "modvar" IDENT ":" IDENT "at" STRING
                     [ "with" IDENT ":=" expr { "," IDENT ":=" expr } ] ";" ;
    connect        = "connect" IDENT "." ipref "to" IDENT "." ipref ";" ;
    ipref          = IDENT [ "[" INTEGER "]" ] ;

    block          = "begin" [ stmt { ";" [ stmt ] } ] "end" ;
    stmt           = IDENT ":=" expr
                   | "output" ipref "." IDENT
                         [ "(" [ IDENT ":=" expr { "," IDENT ":=" expr } ] ")" ]
                   | "if" expr "then" { stmt } [ "else" { stmt } ] "end"
                   | "init" IDENT "with" IDENT
                         [ "(" [ IDENT ":=" expr { "," IDENT ":=" expr } ] ")" ]
                   | "release" IDENT ;

    expr           = or ;  (* Pascal-style operators *)
    or             = and { "or" and } ;
    and            = not { "and" not } ;
    not            = "not" not | quantified | comparison ;
    quantified     = ( "exist" | "forall" ) IDENT ":" additive ".." additive
                     "suchthat" expr ;
    comparison     = additive [ ( "=" | "<>" | "<" | "<=" | ">" | ">=" ) additive ] ;
    additive       = term { ( "+" | "-" ) term } ;
    term           = factor { ( "*" | "/" | "div" | "mod" ) factor } ;
    factor         = "-" factor | primary ;
    primary        = NUMBER | STRING | "true" | "false" | "(" expr ")"
                   | IDENT | "msg" "." IDENT ;

Semantics notes
---------------

* ``from any`` (or omitting ``from``) declares a wildcard transition
  (:data:`repro.estelle.transition.ANY_STATE`).
* ``when ip.Interaction`` matches the head of that interaction point's FIFO
  queue; inside the guard and action block, ``msg.<param>`` reads the matched
  interaction's parameters.  ``msg`` is invalid in spontaneous transitions.
* Assignments read and write the module's variable dict.  At the top level of
  ``initialize`` blocks, assignments act as *defaults* so a ``modvar``'s
  ``with`` clause can override them (the ``setdefault`` idiom of the
  hand-written bodies).
* ``modvar`` instantiates a system module under the specification root; the
  ``at`` string is the paper's placement comment (machine name) consumed by
  the runtime's mapping layer.
* ``priority`` follows Estelle: lower numbers are higher priority.  ``cost``
  is the simulated execution cost of the action block in abstract work units.
* ``delay n`` / ``delay (min, max)`` makes the transition fireable only after
  it has been continuously enabled for ``n`` (resp. ``min``) units of
  simulated time on the runtime's shared clock
  (:mod:`repro.runtime.clock`).  The nondeterministic window up to ``max``
  is resolved deterministically to the lower bound — the runtime fires at
  the earliest permitted instant — so canonical firing traces stay
  byte-identical across backends and dispatch strategies; ``max < min`` is
  a located semantic error.  Number literals accept a Pascal-style exponent
  (``delay 1e-3``).
* ``exist i : low .. high suchthat P`` / ``forall i : low .. high suchthat P``
  quantify ``P`` over the inclusive integer interval ``low .. high`` (an empty
  interval makes ``exist`` false and ``forall`` true).  The bound variable
  shadows a module variable of the same name inside ``P``; the bounds must
  evaluate to integers (a located diagnostic is raised otherwise).
* ``ip name : array [low..high] of Channel(role)`` declares an
  *interaction-point array*: one individual interaction point per index of
  the inclusive integer range, referenced as ``name[i]`` in ``when`` /
  ``output`` clauses and ``connect`` statements.  The elements lower to
  ordinary :class:`~repro.estelle.interaction.InteractionPoint` instances
  *named with the same* ``name[i]`` *spelling* — the deterministic naming
  rule that keeps canonical trace fields stable across backends and dispatch
  strategies.  Out-of-range indices, indexing a scalar, and referencing an
  array without an index are located semantic errors.
* ``init var with Body [(v := expr, ...)]`` (Estelle dynamic module
  creation) creates a child instance of ``Body`` under the executing module
  at runtime (:meth:`repro.estelle.module.Module.create_child`), stores the
  instance in module variable ``var``, and names the child
  ``<var>#<serial>`` with a per-(instance, var) serial starting at 1 — so a
  released-then-re-inited variable yields a fresh, distinguishable, yet
  deterministic ``module_path``.  The optional parameter list seeds the
  child's variables before its ``initialize`` block runs (whose top-level
  assignments act as defaults).  Referencing an undeclared body, or a body
  whose attribute the initing module may not contain, is a located error.
* ``release var`` destroys the child held by ``var``
  (:meth:`~repro.estelle.module.Module.release_child`) and unbinds the
  variable.  Releasing a variable that is never inited anywhere in the body
  is a compile-time located error; releasing one that does not currently
  hold a live child (double release) is a located runtime error.  Both
  statements are legal only inside action blocks (``init``/``release`` at
  the specification's top level is a located syntax error) and both bump the
  dirty tracker's *structure epoch*, forcing the incremental planner to
  rebuild its fused program.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..specification import Specification
from . import astnodes
from .astnodes import SpecificationNode
from .errors import (
    EstelleFrontendError,
    EstelleSemanticError,
    EstelleSyntaxError,
    SourceLocation,
)
from .lexer import Token, tokenize
from .lower import (
    SpecificationTemplate,
    expr_to_python,
    lower_specification,
)
from .parser import Parser, parse_source


def compile_source(source: str, filename: str = "<estelle>") -> Specification:
    """Parse and lower Estelle source text to a validated specification."""
    return lower_specification(parse_source(source, filename))


def compile_template(
    source: str, filename: str = "<estelle>"
) -> SpecificationTemplate:
    """Parse and lower once into a reusable :class:`SpecificationTemplate`.

    The template's :meth:`~SpecificationTemplate.instantiate` builds fresh,
    mutually independent specifications that share the lowered module
    classes (and therefore all per-class compiled dispatch artefacts) —
    the path :meth:`repro.runtime.SpecSource.build` caches per text.
    """
    return SpecificationTemplate(parse_source(source, filename))


def compile_file(path: Union[str, Path]) -> Specification:
    """Parse and lower an ``.estelle`` file to a validated specification."""
    path = Path(path)
    return compile_source(path.read_text(), filename=str(path))


__all__ = [
    "EstelleFrontendError",
    "EstelleSemanticError",
    "EstelleSyntaxError",
    "Parser",
    "SourceLocation",
    "SpecificationNode",
    "SpecificationTemplate",
    "Token",
    "astnodes",
    "compile_file",
    "compile_source",
    "compile_template",
    "expr_to_python",
    "lower_specification",
    "parse_source",
    "tokenize",
]

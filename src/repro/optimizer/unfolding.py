"""GAV view unfolding: which views compose, and what reaches the sources.

Nimble's compiler splits a query into per-source fragments over
hierarchical views composed incrementally (paper §2.1).  A pattern over
a mediated view is matched against the view's CONSTRUCT template at
decompose time; when the pair has a shape
:class:`~repro.algebra.unfold.UnfoldView` reproduces exactly, the view
body's pattern clauses and conditions join the plan as ordinary
per-source fragments, and the outer conditions that are *sound* to
evaluate on the body's raw rows are handed to the body's pushdown.

Soundness.  The outer query sees text: ``$p`` is the text of a
``<price>`` element, not the REAL the source holds.  A condition may
move into the body only when it filters whole groups (every row of a
constructed element) and filtering the raw value never drops a group
whose text would pass:

* its variable is a root grouping variable, or the body reads it from a
  relation whose declared key (primary or CDC-declared) is bound by a
  grouping variable, so each group carries one such row;
* the comparison is ``var op literal`` (``AND``/``OR`` of such leaves)
  and gives the same answer on the raw value as on its text: numbers
  against numeric literals; strings when re-reading does not strip
  them, against literals of a kind the source compares natively;
* a nullable variable's NULL reads as ``""``, so some single-variable
  outer condition must reject ``""``;
* a range over a column with a sorted index stays engine-side, since the
  source would answer it in key order and reorder the view's rows; so
  does any indexed comparison on a column that may hold NaN, which an
  index lookup misses but a comparison matches.

Everything else stays an ordinary outer condition over the text.
"""

from __future__ import annotations

from collections import Counter

from repro.algebra.construct import ConstructTemplate, TemplateVar
from repro.algebra.pattern import TreePattern
from repro.algebra.tuples import BindingTuple
from repro.query import ast as qast
from repro.query.exprs import compile_predicate
from repro.sources.base import ValueDomain

_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">=", "LIKE"})
_RANGES = frozenset({"<", "<=", ">", ">="})
#: operators the SQL planner may answer from an index
_INDEXED = _RANGES | {"="}


def _walk(pattern: TreePattern):
    yield pattern
    for child in pattern.children:
        yield from _walk(child)


def unfold_blocker(query: qast.Query, template: ConstructTemplate,
                   pattern: TreePattern) -> str | None:
    """Why ``pattern`` over the view ``query`` cannot unfold, or None."""
    if template.has_aggregates():
        return "view has aggregates"
    if query.order_by:
        return "view has ORDER BY"
    if query.limit is not None:
        return "view has LIMIT"
    if pattern.tag != template.tag:
        return f"pattern root <{pattern.tag}> is not the view root <{template.tag}>"
    for node in _walk(pattern):
        if node.element_var is not None:
            return "pattern uses ELEMENT_AS"
        if node.descendant:
            return "pattern uses descendant steps"
    for child in pattern.children:
        if child.children:
            return f"pattern nests below <{child.tag}>"
    for item in template.children:
        if not isinstance(item, ConstructTemplate):
            continue
        if item.tag == template.tag:
            return f"template repeats its root <{template.tag}> below it"
        if any(isinstance(grand, ConstructTemplate) for grand in item.children):
            return f"template nests below <{item.tag}>"
    return None


def outer_slots(template: ConstructTemplate,
                pattern: TreePattern) -> dict[str, tuple[str, bool]]:
    """Outer variable -> (view variable, read from element content).

    Only variables bound once, from a position holding exactly one
    template variable, map; the rest (literal text, several parts, a
    tag several child templates share) are text no raw value equals.
    """
    uses = Counter(
        var for node in _walk(pattern)
        for var in ([a.var for a in node.attributes] + [node.text_var])
        if var is not None
    )
    slots: dict[str, tuple[str, bool]] = {}

    def bind_element(node: TreePattern, element: ConstructTemplate) -> None:
        attributes = dict(element.attributes)
        for attribute in node.attributes:
            value = attributes.get(attribute.name)
            if attribute.var is not None and isinstance(value, TemplateVar):
                slots[attribute.var] = (value.var, False)
        content = element.children
        if (node.text_var is not None and len(content) == 1
                and isinstance(content[0], TemplateVar)):
            slots[node.text_var] = (content[0].var, True)

    bind_element(pattern, template)
    nested = [c for c in template.children if isinstance(c, ConstructTemplate)]
    for head in pattern.children:
        matches = [c for c in nested if head.tag in ("*", c.tag)]
        if len(matches) == 1:
            bind_element(head, matches[0])
    return {var: slot for var, slot in slots.items() if uses[var] == 1}


def _text_exact(op: str, value, domain: ValueDomain, content: bool) -> bool:
    """Does ``raw op value`` answer like ``text(raw) op value``?"""
    if isinstance(value, bool):
        return False
    if op in _RANGES and domain.index == "sorted":
        return False  # answered in key order: the view's rows would reorder
    if op in _INDEXED and domain.index and domain.nan:
        return False  # an index lookup drops NaN rows the comparison keeps
    if domain.kind == "number":
        # str() of a number parses back to the same number
        return op != "LIKE" and isinstance(value, (int, float))
    if domain.kind == "string":
        if content and not domain.stripped:
            return False
        return isinstance(value, str) or not domain.strict
    return False


def _rejects_empty_text(var: str, conditions: list[qast.Expr]) -> bool:
    """Does some condition over ``var`` alone fail when it reads ``""``?"""
    row = BindingTuple({var: ""})
    return any(
        qast.expr_variables(condition) == {var}
        and not compile_predicate(condition)(row)
        for condition in conditions
    )


def derive_conditions(
    conditions: list[qast.Expr],
    slots: dict[str, tuple[str, bool]],
    domains: dict[str, ValueDomain],
    uniform: set[str],
) -> list[qast.Expr]:
    """The outer conditions the view body may apply to its raw rows,
    rewritten over the body's variables (see the module docstring)."""

    def translate(expr: qast.Expr) -> qast.Expr | None:
        if not isinstance(expr, qast.BinOp):
            return None
        if expr.op in ("AND", "OR"):
            left, right = translate(expr.left), translate(expr.right)
            if left is None or right is None:
                return None
            return qast.BinOp(expr.op, left, right)
        if expr.op not in _COMPARISONS:
            return None
        if isinstance(expr.left, qast.Var) and isinstance(expr.right, qast.Literal):
            var, literal = expr.left, expr.right
        elif (isinstance(expr.right, qast.Var)
              and isinstance(expr.left, qast.Literal) and expr.op != "LIKE"):
            var, literal = expr.right, expr.left
        else:
            return None
        slot = slots.get(var.name)
        if slot is None or slot[0] not in uniform:
            return None
        raw, content = slot
        domain = domains.get(raw)
        if domain is None or not _text_exact(expr.op, literal.value, domain,
                                             content):
            return None
        if domain.nullable and not _rejects_empty_text(var.name, conditions):
            return None
        if var is expr.left:
            return qast.BinOp(expr.op, qast.Var(raw), literal)
        return qast.BinOp(expr.op, literal, qast.Var(raw))

    translated = (translate(condition) for condition in conditions)
    return [condition for condition in translated if condition is not None]

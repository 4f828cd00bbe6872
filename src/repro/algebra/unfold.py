"""Unfolded mediated views: CONSTRUCT grouping without the elements.

Matching a pattern against a view's constructed elements used to mean
building every element and then pattern-matching it again.  An unfolded
view feeds the view body's binding rows straight into
:class:`UnfoldView`, which returns exactly what construct-then-rematch
returns, in the same order:

* rows group by the template's direct variables — XML-QL's implicit
  Skolem keys, as :func:`~repro.algebra.construct.build_elements`
  groups — in first-appearance order;
* inside a group, each child template keeps one representative row per
  distinct value of its own variables, so a pattern over two children
  yields the cross product of their *distinct* values;
* every value is re-read as text: NULL as ``""``, element content
  stripped, attributes as written.

The optimizer only unfolds the shapes this operator covers: a root
template whose child templates hold text and variables only, matched by
a pattern rooted at the same tag whose children are leaves.  No
:class:`~repro.xmldm.nodes.Element` is built.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.algebra.construct import ConstructTemplate, TemplateText, TemplateVar
from repro.algebra.operators import Operator
from repro.algebra.pattern import TreePattern
from repro.algebra.tuples import BindingTuple
from repro.xmldm.schema import atomic_to_text
from repro.xmldm.values import NULL, _comparison_key


def _group_vars(template: ConstructTemplate) -> tuple[str, ...]:
    return template.direct_vars() or template.all_vars()


def read_children(template: ConstructTemplate,
                  pattern: TreePattern) -> list[ConstructTemplate]:
    """The child templates ``pattern`` reads: those its children may
    match, or every one when it reads the root element's text."""
    nested = [
        item for item in template.children
        if isinstance(item, ConstructTemplate)
    ]
    if pattern.text_var is not None or pattern.text_literal is not None:
        return nested
    return [
        child for child in nested
        if any(head.tag in ("*", child.tag) for head in pattern.children)
    ]


def _attribute_text(value: "str | TemplateVar", row: BindingTuple) -> str:
    if isinstance(value, TemplateVar):
        return atomic_to_text(row.get(value.var, NULL))
    return value


def _content_text(items, row: BindingTuple) -> str:
    """``text_content()`` of text-and-variable content built from ``row``."""
    parts = []
    for item in items:
        if isinstance(item, TemplateText):
            parts.append(item.text)
        else:
            parts.append(atomic_to_text(row.get(item.var, NULL)))
    return "".join(parts)


def _bind_content(pattern: TreePattern, text: str,
                  bound: BindingTuple) -> BindingTuple | None:
    """:func:`repro.algebra.pattern._bind_content` on element text."""
    if pattern.text_literal is not None and text.strip() != pattern.text_literal:
        return None
    if pattern.text_var is not None:
        return bound.extend(pattern.text_var, text.strip())
    return bound


def _bind_attributes(pattern: TreePattern, attributes: dict,
                     row: BindingTuple,
                     bound: BindingTuple) -> BindingTuple | None:
    for attribute in pattern.attributes:
        if attribute.name not in attributes:
            return None
        actual = _attribute_text(attributes[attribute.name], row)
        if attribute.literal is not None:
            if actual != attribute.literal:
                return None
        elif attribute.var is not None:
            bound = bound.extend(attribute.var, actual)
            if bound is None:
                return None
    return bound


class UnfoldView(Operator):
    """Group a view body's binding rows and match the outer pattern.

    ``memo`` (shared by the operators of one plan) holds the body rows
    under ``memo_key``, so two clauses over the same unfolded body read
    the sources once — the engine's per-query view memo, one level down.
    """

    def __init__(self, child: Operator, template: ConstructTemplate,
                 pattern: TreePattern, label: str,
                 memo: dict | None = None, memo_key: Any = None):
        super().__init__(child)
        self.template = template
        self.pattern = pattern
        self.label = label
        self.memo = memo
        self.memo_key = memo_key
        self.group_vars = _group_vars(template)
        self.attributes = dict(template.attributes)
        self.root_text = (
            pattern.text_var is not None or pattern.text_literal is not None
        )
        #: the child templates the pattern reads, in document order
        self.slots = read_children(template, pattern)
        self.slot_vars = [_group_vars(child) for child in self.slots]
        self.slot_attributes = [dict(child.attributes) for child in self.slots]
        #: per pattern child, the slots whose elements it may match
        self.candidates = [
            [i for i, child in enumerate(self.slots)
             if head.tag in ("*", child.tag)]
            for head in pattern.children
        ]

    def _body_rows(self) -> list[BindingTuple]:
        if self.memo is None:
            return list(self.children[0])
        rows = self.memo.get(self.memo_key)
        if rows is None:
            rows = self.memo[self.memo_key] = list(self.children[0])
        return rows

    def _produce(self) -> Iterator[BindingTuple]:
        group_vars = self.group_vars
        slot_vars = list(enumerate(self.slot_vars, 1))
        groups: dict[tuple, list] = {}
        for row in self._body_rows():
            key = tuple(_comparison_key(row.get(var, NULL)) for var in group_vars)
            members = groups.get(key)
            if members is None:
                members = groups[key] = [row] + [{} for _ in slot_vars]
            for slot, variables in slot_vars:
                child_key = tuple(
                    _comparison_key(row.get(var, NULL)) for var in variables
                )
                members[slot].setdefault(child_key, row)
        for members in groups.values():
            yield from self._match_group(members)

    def _match_group(self, members: list) -> Iterator[BindingTuple]:
        pattern = self.pattern
        representative = members[0]
        bound = _bind_attributes(pattern, self.attributes, representative,
                                 BindingTuple())
        if bound is None:
            return
        if self.root_text:
            bound = _bind_content(pattern, self._root_text(members), bound)
            if bound is None:
                return
        yield from self._match_children(0, members, bound)

    def _root_text(self, members: list) -> str:
        """The root's ``text_content()``; every child template is a slot."""
        representative = members[0]
        parts = []
        slot = 0
        for item in self.template.children:
            if isinstance(item, ConstructTemplate):
                slot += 1
                parts.extend(
                    _content_text(item.children, row)
                    for row in members[slot].values()
                )
            else:
                parts.append(_content_text((item,), representative))
        return "".join(parts)

    def _match_children(self, index: int, members: list,
                        bound: BindingTuple) -> Iterator[BindingTuple]:
        """:func:`repro.algebra.pattern._match_children` over the slots."""
        children = self.pattern.children
        if index == len(children):
            yield bound
            return
        head = children[index]
        for slot in self.candidates[index]:
            template = self.slots[slot]
            attributes = self.slot_attributes[slot]
            for row in members[slot + 1].values():
                matched = _bind_attributes(head, attributes, row, bound)
                if matched is None:
                    continue
                if head.text_var is not None or head.text_literal is not None:
                    matched = _bind_content(
                        head, _content_text(template.children, row), matched
                    )
                    if matched is None:
                        continue
                yield from self._match_children(index + 1, members, matched)

    def describe(self) -> str:
        group = ", ".join(f"${var}" for var in self.group_vars)
        return f"Unfolded({self.label}; group by {group})"

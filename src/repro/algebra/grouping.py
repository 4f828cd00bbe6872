"""Grouping and aggregation over binding tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.algebra.operators import Operator, ValueFn
from repro.algebra.tuples import BindingTuple
from repro.algebra.vector import (
    DEFAULT_BATCH_ROWS,
    MISSING,
    BatchCursor,
    RecordBatch,
    RowBuffer,
)
from repro.xmldm.values import NULL, Collection, Null, _comparison_key, values_equal


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: bind ``out_var`` to ``kind`` over ``value_fn``.

    ``kind`` is one of count/sum/avg/min/max; NULL inputs are skipped
    (count counts non-NULL inputs; use value_fn=None to count tuples).
    """

    out_var: str
    kind: str
    value_fn: ValueFn | None = None

    _KINDS = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown aggregate kind {self.kind!r}")


def summable(value: Any) -> bool:
    """sum/avg fold numbers only.

    A value that is still not a number after text coercion (non-numeric
    text, a date, a node) is skipped the way NULL is, on every
    aggregation path, and avg divides by the values it summed.
    """
    return isinstance(value, (int, float))


def _aggregate(kind: str, values: list[Any]) -> Any:
    present = [v for v in values if not isinstance(v, Null) and v is not None]
    if kind == "count":
        return len(present)
    if kind in ("sum", "avg"):
        present = [v for v in present if summable(v)]
    if not present:
        return NULL
    if kind == "sum":
        return sum(present)
    if kind == "avg":
        return sum(present) / len(present)
    if kind == "min":
        return min(present, key=_comparison_key)
    return max(present, key=_comparison_key)


class GroupBy(Operator):
    """Group tuples by variables; optionally nest each group.

    Output: one tuple per distinct combination of ``group_vars`` carrying
    those variables, each aggregate in ``aggregates``, and — when
    ``collect_var`` is set — a :class:`Collection` of the group's member
    tuples projected to ``collect_fields`` (as Records).  The nesting
    form is what Construct uses for grouped element building.
    """

    def __init__(
        self,
        child: Operator,
        group_vars: list[str] | tuple[str, ...],
        aggregates: list[AggregateSpec] | tuple[AggregateSpec, ...] = (),
        collect_var: str | None = None,
        collect_fields: tuple[str, ...] = (),
    ):
        super().__init__(child)
        self.group_vars = tuple(group_vars)
        self.aggregates = tuple(aggregates)
        self.collect_var = collect_var
        self.collect_fields = tuple(collect_fields)

    def _produce(self) -> Iterator[BindingTuple]:
        groups: dict[tuple, list[BindingTuple]] = {}
        order: list[tuple] = []
        for row in self.children[0]:
            key = tuple(
                _comparison_key(row.get(var, NULL)) for var in self.group_vars
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        for key in order:
            members = groups[key]
            representative = members[0]
            out = representative.project(self.group_vars)
            for spec in self.aggregates:
                values = (
                    [1 for _ in members]
                    if spec.value_fn is None
                    else [spec.value_fn(row) for row in members]
                )
                if spec.value_fn is None and spec.kind == "count":
                    result: Any = len(members)
                else:
                    result = _aggregate(spec.kind, values)
                extended = out.extend(spec.out_var, result)
                assert extended is not None
                out = extended
            if self.collect_var is not None:
                from repro.xmldm.values import Record

                collected = Collection(
                    Record(
                        {
                            field: member.get(field, NULL)
                            for field in (self.collect_fields or member.variables)
                        }
                    )
                    for member in members
                )
                extended = out.extend(self.collect_var, collected)
                assert extended is not None
                out = extended
            yield out

    def _produce_batches(self) -> Iterator[RecordBatch]:
        from repro.xmldm.values import Record

        groups: dict[tuple, list[tuple[RecordBatch, int]]] = {}
        order: list[tuple] = []
        for batch in self.children[0].batches():
            group_columns = [batch.columns.get(var) for var in self.group_vars]
            for index in batch.live_indices():
                parts = []
                for column in group_columns:
                    value = MISSING if column is None else column[index]
                    parts.append(
                        _comparison_key(NULL if value is MISSING else value)
                    )
                key = tuple(parts)
                members = groups.get(key)
                if members is None:
                    groups[key] = members = []
                    order.append(key)
                members.append((batch, index))
        cursor = BatchCursor()
        buffer = RowBuffer(self._batch_rows or DEFAULT_BATCH_ROWS)
        for key in order:
            members = groups[key]
            rep_batch, rep_index = members[0]
            out: dict[str, Any] = {}
            for var in self.group_vars:
                column = rep_batch.columns.get(var)
                if column is not None:
                    value = column[rep_index]
                    if value is not MISSING:
                        out[var] = value
            for spec in self.aggregates:
                if spec.value_fn is None and spec.kind == "count":
                    result: Any = len(members)
                elif spec.value_fn is None:
                    result = _aggregate(spec.kind, [1] * len(members))
                else:
                    values = []
                    for member_batch, member_index in members:
                        cursor.batch = member_batch
                        cursor.index = member_index
                        values.append(spec.value_fn(cursor))
                    result = _aggregate(spec.kind, values)
                assert spec.out_var not in out or values_equal(
                    out[spec.out_var], result
                )
                out.setdefault(spec.out_var, result)
            if self.collect_var is not None:
                records = []
                for member_batch, member_index in members:
                    cursor.batch = member_batch
                    cursor.index = member_index
                    fields = self.collect_fields or cursor.variables
                    records.append(
                        Record({field: cursor.get(field, NULL) for field in fields})
                    )
                assert self.collect_var not in out
                out[self.collect_var] = Collection(records)
            buffer.append(out)
            yield from buffer.drain()
        yield from buffer.flush()

    def describe(self) -> str:
        parts = [", ".join("$" + v for v in self.group_vars)]
        if self.aggregates:
            parts.append("aggs=" + ",".join(s.kind for s in self.aggregates))
        if self.collect_var:
            parts.append(f"nest->${self.collect_var}")
        return f"GroupBy({'; '.join(parts)})"


class Aggregate(Operator):
    """Global aggregation: one output tuple over the whole input."""

    def __init__(self, child: Operator, aggregates: list[AggregateSpec] | tuple[AggregateSpec, ...]):
        super().__init__(child)
        self.aggregates = tuple(aggregates)

    def _produce(self) -> Iterator[BindingTuple]:
        members = list(self.children[0])
        out = BindingTuple()
        for spec in self.aggregates:
            if spec.value_fn is None and spec.kind == "count":
                result: Any = len(members)
            else:
                values = (
                    [1 for _ in members]
                    if spec.value_fn is None
                    else [spec.value_fn(row) for row in members]
                )
                result = _aggregate(spec.kind, values)
            extended = out.extend(spec.out_var, result)
            assert extended is not None
            out = extended
        yield out

    def _produce_batches(self) -> Iterator[RecordBatch]:
        members: list[tuple[RecordBatch, int]] = []
        for batch in self.children[0].batches():
            for index in batch.live_indices():
                members.append((batch, index))
        cursor = BatchCursor()
        out: dict[str, Any] = {}
        for spec in self.aggregates:
            if spec.value_fn is None and spec.kind == "count":
                result: Any = len(members)
            elif spec.value_fn is None:
                result = _aggregate(spec.kind, [1] * len(members))
            else:
                values = []
                for member_batch, member_index in members:
                    cursor.batch = member_batch
                    cursor.index = member_index
                    values.append(spec.value_fn(cursor))
                result = _aggregate(spec.kind, values)
            assert spec.out_var not in out or values_equal(
                out[spec.out_var], result
            )
            out.setdefault(spec.out_var, result)
        buffer = RowBuffer(self._batch_rows or DEFAULT_BATCH_ROWS)
        buffer.append(out)
        yield from buffer.flush()

    def describe(self) -> str:
        return f"Aggregate({','.join(s.kind for s in self.aggregates)})"

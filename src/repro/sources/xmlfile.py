"""Wrapper for XML document sources.

An XML source exports named documents as relations.  Its "native query
capability" is tree-pattern matching with simple selections — the
wrapper evaluates the fragment's pattern and conditions *at the source*
(before transfer), so pushing a selective pattern genuinely reduces the
rows charged to the network model.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.algebra.pattern import match_pattern
from repro.query.exprs import compile_predicate
from repro.algebra.tuples import BindingTuple
from repro.errors import CapabilityError
from repro.sources.base import (
    Access,
    CapabilityProfile,
    DataSource,
    Fragment,
    NetworkModel,
    ValueDomain,
    text_domains,
)
from repro.simtime import SimClock
from repro.xmldm.document import Document
from repro.xmldm.parser import parse_document
from repro.xmldm.schema import RecordType
from repro.xmldm.values import NULL, Record


class XMLSource(DataSource):
    """A source serving XML documents (files, feeds, exports)."""

    capabilities = CapabilityProfile(
        selections=True,
        projections=True,
        joins=False,  # one document pattern per fragment
        condition_ops=frozenset({"=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"}),
    )

    def __init__(
        self,
        name: str,
        documents: dict[str, Document | str] | None = None,
        clock: SimClock | None = None,
        network: NetworkModel | None = None,
    ):
        super().__init__(name, clock, network)
        self.documents: dict[str, Document] = {}
        for doc_name, document in (documents or {}).items():
            self.add_document(doc_name, document)

    def add_document(self, name: str, document: Document | str) -> None:
        """Register a document (XML text is parsed on the spot)."""
        if isinstance(document, str):
            document = parse_document(document, name=name)
        self.documents[name] = document

    def replace_document(self, name: str, document: Document | str) -> None:
        """Swap in a new snapshot of a document, synthesizing deltas.

        XML feeds rarely emit change records — they hand over a fresh
        file.  When CDC is enabled and the relation has a declared key,
        the subtree-hash differ turns the old and new versions into
        insert/update/delete records (reset when the difference has no
        delta shape); otherwise a single ``reset`` is emitted.
        """
        if isinstance(document, str):
            document = parse_document(document, name=name)
        old = self.documents.get(name)
        self.documents[name] = document
        if self.changelog is None:
            return
        key_field = self.changelog.key_field(name)
        if old is None or key_field is None:
            self.changelog.emit_reset(name)
            self.tracer.event("snapshot_reset", source=self.name,
                              document=name)
            return
        from repro.cdc.differ import diff_documents

        with self.tracer.span("snapshot_diff", name=name, source=self.name,
                              document=name) as span:
            counts = {"insert": 0, "update": 0, "delete": 0, "reset": 0}
            for change in diff_documents(old.root, document.root, key_field):
                counts[change.op] = counts.get(change.op, 0) + 1
                if change.op == "reset":
                    self.changelog.emit_reset(name)
                else:
                    self.changelog.emit(
                        change.op,
                        name,
                        key=change.key,
                        node=change.node,
                        before_node=change.before_node,
                    )
            if span.recording:
                span.set(**counts)

    def relations(self) -> dict[str, RecordType]:
        # Documents are semi-structured: exported with an open record type.
        return {name: RecordType(name) for name in self.documents}

    def value_domains(self, access: Access) -> dict[str, ValueDomain]:
        return text_domains(access.pattern)

    def cardinality(self, relation: str) -> int:
        document = self.documents.get(relation)
        if document is None:
            return 0
        return sum(1 for _ in document.root.child_elements())

    def _fetch_all(self, relation: str):
        document = self.documents.get(relation)
        if document is None:
            raise CapabilityError(
                f"source {self.name!r} has no document {relation!r}"
            )
        return [document]

    def _execute(self, fragment: Fragment, params: dict[str, Any]) -> Iterable[Record]:
        if len(fragment.accesses) != 1:
            raise CapabilityError("XML fragments access exactly one document")
        access = fragment.accesses[0]
        document = self.documents.get(access.relation)
        if document is None:
            raise CapabilityError(
                f"source {self.name!r} has no document {access.relation!r}"
            )
        predicates = [compile_predicate(c) for c in fragment.conditions]
        variables = access.pattern.variables()
        if fragment.columns:
            # projection pushdown: conditions still see the full match,
            # only the transferred record narrows
            keep = set(fragment.columns)
            output_vars = [var for var in variables if var in keep]
        else:
            output_vars = list(variables)
        pattern = access.pattern
        seed = BindingTuple()
        tag = None if pattern.tag == "*" else pattern.tag
        for candidate in document.root.descendants_or_self(tag):
            for match in match_pattern(pattern, candidate, seed):
                if all(predicate(match) for predicate in predicates):
                    yield Record(
                        {var: match.get(var, NULL) for var in output_vars}
                    )

"""The local store of materialized fragment results."""

from __future__ import annotations

from typing import Iterator

from repro.cdc.scope import KeyBounds, KeyedRecords, residency_decision
from repro.errors import MaterializationError
from repro.materialize.matching import fragment_key
from repro.materialize.policy import RefreshPolicy
from repro.sources.base import Fragment
from repro.xmldm.values import Record


class MaterializedView:
    """One materialized fragment: definition, rows, freshness state."""

    def __init__(self, fragment: Fragment, records: list[Record],
                 loaded_at: float, policy: RefreshPolicy) -> None:
        self.fragment = fragment
        self.rows = KeyedRecords(records)
        #: the fragment's key bounds, resolved once for scoped invalidation
        self.bounds = KeyBounds(fragment.conditions)
        self.loaded_at = loaded_at
        self.policy = policy
        self.invalidated = False
        self.hits = 0
        self.refreshes = 0

    @property
    def key(self) -> str:
        return fragment_key(self.fragment)

    @property
    def records(self) -> list[Record]:
        return self.rows.records()

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def is_fresh(self, now_ms: float) -> bool:
        return self.policy.is_fresh(now_ms - self.loaded_at, self.invalidated)

    def reload(self, records: list[Record], now_ms: float) -> None:
        self.rows = KeyedRecords(records)
        self.loaded_at = now_ms
        self.invalidated = False
        self.refreshes += 1


class LocalStore:
    """Holds materialized views under an optional row budget."""

    def __init__(self, budget_rows: int | None = None):
        self.budget_rows = budget_rows
        self._views: dict[str, MaterializedView] = {}

    def add(self, view: MaterializedView) -> MaterializedView:
        key = view.key
        if key in self._views:
            raise MaterializationError(f"fragment already materialized: {key}")
        if self.budget_rows is not None:
            if self.total_rows + view.row_count > self.budget_rows:
                raise MaterializationError(
                    f"storage budget exceeded: {self.total_rows} + "
                    f"{view.row_count} > {self.budget_rows} rows"
                )
        self._views[key] = view
        return view

    def remove(self, key: str) -> None:
        if key not in self._views:
            raise MaterializationError(f"no materialized view {key!r}")
        del self._views[key]

    def get(self, key: str) -> MaterializedView | None:
        return self._views.get(key)

    def clear(self) -> None:
        self._views.clear()

    def invalidate_source(self, source_name: str) -> int:
        """Mark every view over a source stale (data changed upstream)."""
        count = 0
        for view in self._views.values():
            if view.fragment.source == source_name:
                view.invalidated = True
                count += 1
        return count

    def apply_change(self, change, key_field: str | None,
                     now_ms: float, patch: bool = True) -> tuple[int, int, int]:
        """Scoped invalidation over materialized fragments.

        The same per-entry decision as
        :meth:`repro.cache.fragmentcache.FragmentResultCache.apply_change`
        (:func:`repro.cdc.scope.residency_decision`) — retain when the
        change provably misses the fragment, patch the records in place
        when the shape allows, otherwise mark the view invalidated (its
        next serve falls through to the source).
        Returns ``(patched, invalidated, retained)``.
        """
        patched = invalidated = retained = 0
        for view in self._views.values():
            if view.fragment.source != change.source:
                continue
            outcome, _ = residency_decision(
                view.fragment, view.rows, view.bounds, change, key_field,
                patch,
            )
            if outcome in ("retained", "excluded"):
                retained += 1
            elif outcome == "patched" and not view.invalidated:
                # an invalidated view missed an earlier change: patching
                # it does not make it fresh, only a reload does
                view.loaded_at = now_ms
                patched += 1
            else:
                view.invalidated = True
                invalidated += 1
        return patched, invalidated, retained

    @property
    def total_rows(self) -> int:
        return sum(view.row_count for view in self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def __iter__(self) -> Iterator[MaterializedView]:
        return iter(self._views.values())

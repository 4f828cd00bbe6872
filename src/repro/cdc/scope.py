"""Scoping a change to the fragments it can actually affect.

The old invalidation story was a catalog-epoch bump: any write anywhere
killed every cached fragment.  This module gives each change a *scope*:

* :func:`change_key_var` — which query variable a fragment binds to the
  changed relation's key field (the ``access_key_var`` idiom from
  sharding);
* :class:`KeyBounds` / :func:`key_affected` — sound exclusion by the
  implication rules of :func:`repro.materialize.matching.implies`: a
  fragment whose pushed conditions imply the key lies strictly below or
  above the changed key cannot contain the changed row, so its cached
  results are *retained*;
* :func:`fragment_patch` / :func:`patch_records` — when the fragment is
  simple enough to reconstruct the changed row exactly as the source
  scan would have produced it, the held records are *patched* in place
  instead of evicted;
* :class:`KeyedRecords` — the one record store every residency layer
  holds (fragment cache, materialized store, maintained views), keyed
  so that a patch costs O(fan-out) rather than O(records);
* :func:`residency_decision` — the per-entry retain / patch / evict
  decision the fragment cache and the materialized store share.

Every helper is conservative: when a shape is not provably patchable or
excludable the answer is "affected, evict" — correctness never rides on
completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.pattern import TreePattern, match_pattern
from repro.algebra.tuples import BindingTuple
from repro.cdc.changelog import ChangeRecord
from repro.materialize.matching import _eq_bound, _range_bound
from repro.query import ast as qast
from repro.query.exprs import compile_predicate
from repro.sources.base import Fragment
from repro.xmldm.nodes import Element
from repro.xmldm.values import NULL, Record


def pattern_bindings(pattern: TreePattern) -> dict[str, str] | None:
    """field -> variable map of a *flat* access pattern, or None.

    Covers the two shapes source rewrites produce: attribute bindings
    (``@field=$v``) and flat text-binding children (``<field>$v</field>``).
    Anything richer — literals, nested or descendant children, element
    or text variables on the row itself — returns None: the row record
    cannot be rebuilt from a field dict alone.
    """
    bindings: dict[str, str] = {}
    if pattern.element_var is not None or pattern.text_var is not None:
        return None
    if pattern.text_literal is not None:
        return None
    for attribute in pattern.attributes:
        if attribute.var is None:
            return None  # attribute literal: a hidden filter
        bindings[attribute.name] = attribute.var
    for child in pattern.children:
        if (
            child.children
            or child.attributes
            or child.descendant
            or child.element_var is not None
            or child.text_literal is not None
            or child.text_var is None
            or child.tag == "*"
        ):
            return None
        bindings[child.tag] = child.text_var
    return bindings


def change_key_var(fragment: Fragment, relation: str,
                   key_field: str) -> str | None:
    """The variable the fragment binds to ``relation``'s key field."""
    for access in fragment.accesses:
        if access.relation != relation:
            continue
        pattern = access.pattern
        for attribute in pattern.attributes:
            if attribute.name == key_field and attribute.var is not None:
                return attribute.var
        for child in pattern.children:
            if child.tag == key_field and child.text_var is not None:
                return child.text_var
    return None


class KeyBounds:
    """What one fragment's pushed conditions say about any key variable.

    Resolved once per residency entry, then asked once per change: the
    conditions are decomposed up front into one-dimensional range and
    equality bounds (AND/OR kept as tree nodes), so a change costs a few
    comparisons instead of a :func:`repro.materialize.matching.implies`
    call per condition per side.  The decisions are exactly
    ``implies(condition, $var < key) or implies(condition, $var > key)``
    for some condition — the same decomposition rules, in the same order.
    """

    __slots__ = ("_nodes",)

    def __init__(self, conditions) -> None:
        self._nodes = [
            node for node in map(_bound_node, conditions) if node is not None
        ]

    def affected(self, key_var: str, key) -> bool:
        """Can a row with ``key_var = key`` satisfy the conditions?"""
        if not self._nodes:
            return True
        if not isinstance(key, (int, float, str)) or isinstance(key, bool):
            return True  # no total order to reason over
        bound = key if isinstance(key, str) else float(key)
        return not any(
            _implies_side(node, key_var, "<", bound)
            or _implies_side(node, key_var, ">", bound)
            for node in self._nodes
        )


def _bound_node(expr):
    """A condition as a bound tree: ("and"|"or", l, r), ("eq", var, value),
    ("range", var, op, bound), ("nan", var, op) — or None when it can
    never exclude a key."""
    if isinstance(expr, qast.BinOp) and expr.op in ("AND", "OR"):
        left, right = _bound_node(expr.left), _bound_node(expr.right)
        if expr.op == "AND":
            if left is None or right is None:
                return left or right
        elif left is None or right is None:
            return None
        return (expr.op.lower(), left, right)
    eq = _eq_bound(expr)
    if eq is not None:
        return ("eq", *eq)
    if (
        isinstance(expr, qast.BinOp) and expr.op in ("<", ">")
        and isinstance(expr.left, qast.Var)
        and isinstance(expr.right, qast.Literal)
        and isinstance(expr.right.value, float)
        and expr.right.value != expr.right.value
    ):
        # `$v < nan` implies `$v < key` only by implies()'s textual
        # identity rule, which fires when the key is NaN too
        return ("nan", expr.left.name, expr.op)
    bound = _range_bound(expr)
    if bound is not None:
        return ("range", *bound)
    return None


def _implies_side(node, var: str, side: str, key) -> bool:
    """Does the bound tree imply ``$var < key`` (side "<") or ``> key``?"""
    kind = node[0]
    if kind == "and":
        return (_implies_side(node[1], var, side, key)
                or _implies_side(node[2], var, side, key))
    if kind == "or":
        return (_implies_side(node[1], var, side, key)
                and _implies_side(node[2], var, side, key))
    if node[1] != var:
        return False
    if kind == "nan":
        return node[2] == side and key != key
    if isinstance(node[-1], str) != isinstance(key, str):
        return False
    if kind == "eq":
        return node[2] < key if side == "<" else node[2] > key
    op, bound = node[2], node[3]
    if side == "<":
        return bound <= key if op == "<" else op == "<=" and bound < key
    return bound >= key if op == ">" else op == ">=" and bound > key


def key_affected(conditions, key_var: str, key) -> bool:
    """Can a row with ``key_var = key`` satisfy the pushed conditions?

    False only when some condition provably excludes the key — it
    implies ``$key_var < key`` or ``$key_var > key``.  Equality
    conditions on other values exclude through the same implication
    (``$k = 5`` implies ``$k < 7``).  Residency entries keep a
    :class:`KeyBounds` instead of re-deriving this per change.
    """
    return KeyBounds(conditions).affected(key_var, key)


@dataclass(frozen=True)
class FragmentPatch:
    """How one change lands on one fragment's cached records.

    ``rows`` are the after-image records exactly as the source scan
    would produce them (conditions applied, columns projected);
    ``before_rows`` the before-image ones.  ``key_var`` locates the
    affected records inside the cached result.
    """

    op: str  # insert | update | delete
    key_var: str
    key: object
    rows: tuple[Record, ...] = ()
    before_rows: tuple[Record, ...] = ()


def _relational_rows(
    fragment: Fragment,
    bindings: dict[str, str],
    row: Record | None,
) -> tuple[Record, ...] | None:
    """The fragment-level records one relational row produces (0 or 1)."""
    if row is None:
        return ()
    values: dict[str, object] = {}
    for field_name, var in bindings.items():
        if field_name not in row.fields:
            return None  # pattern binds a field the row does not carry
        values[var] = row.get(field_name)
    match = BindingTuple(values)
    for condition in fragment.conditions:
        if not compile_predicate(condition)(match):
            return ()
    output_vars = fragment.output_variables()
    return (Record({var: match.get(var, NULL) for var in output_vars}),)


def _xml_rows(
    fragment: Fragment,
    pattern: TreePattern,
    node: Element | None,
) -> tuple[Record, ...] | None:
    """The records one row subtree produces, mirroring XMLSource scan."""
    if node is None:
        return ()
    parent = node.parent
    if pattern.tag == "*" or parent is None or parent.tag == pattern.tag:
        # the pattern could match the document root too; matches there
        # are not attributable to any single row
        return None
    predicates = [compile_predicate(c) for c in fragment.conditions]
    variables = pattern.variables()
    if fragment.columns:
        keep = set(fragment.columns)
        output_vars = [var for var in variables if var in keep]
    else:
        output_vars = list(variables)
    seed = BindingTuple()
    rows: list[Record] = []
    for candidate in node.descendants_or_self(pattern.tag):
        for match in match_pattern(pattern, candidate, seed):
            if all(predicate(match) for predicate in predicates):
                rows.append(
                    Record({var: match.get(var, NULL) for var in output_vars})
                )
    return tuple(rows)


def fragment_patch(
    fragment: Fragment, change: ChangeRecord, key_field: str
) -> FragmentPatch | None:
    """An in-place patch for ``change`` against ``fragment``, or None.

    None means "not patchable — evict".  Requires a single access over
    the changed relation that binds the key field to an *output*
    variable (so patched records can be located), and a change whose
    row images reconstruct exactly.
    """
    if change.op == "reset":
        return None
    if len(fragment.accesses) != 1 or fragment.input_vars:
        return None
    access = fragment.accesses[0]
    if access.relation != change.relation:
        return None
    key_var = change_key_var(fragment, change.relation, key_field)
    if key_var is None or key_var not in fragment.output_variables():
        return None

    if change.node is not None or change.before_node is not None:
        rows = _xml_rows(fragment, access.pattern, change.node)
        before_rows = _xml_rows(fragment, access.pattern, change.before_node)
    else:
        bindings = pattern_bindings(access.pattern)
        if bindings is None or key_field not in bindings:
            return None
        rows = _relational_rows(fragment, bindings, change.row)
        before_rows = _relational_rows(fragment, bindings, change.before)
    if rows is None or before_rows is None:
        return None
    return FragmentPatch(change.op, key_var, change.key,
                         rows=rows, before_rows=before_rows)


class _Unmatched:
    """The store key of a record whose key value equals nothing, itself
    included (NaN): the record keeps its place, no patch ever finds it."""

    __slots__ = ()


def _same_key(value, key) -> bool:
    """``value == key`` as the store files keys: NaN matches only NaN."""
    return value == key or (value != value and key != key)


class KeyedRuns:
    """Items in order, grouped into runs addressed by a key.

    A dict from each key to its run: the item itself, or a tuple when
    one key holds several (never a per-key list), so a store of single
    items allocates no container beyond the dict.  The flat list is
    built on demand and cached until the next change.
    """

    __slots__ = ("_runs", "_multi", "_flat", "_size")

    def __init__(self) -> None:
        self._runs: dict | None = {}
        self._multi = 0  # runs held as tuples
        self._flat: list | None = []
        self._size = 0

    def items(self) -> list:
        """Every item in order; treat as read-only (it is cached)."""
        flat = self._flat
        if flat is None:
            if not self._multi:
                flat = list(self._runs.values())
            else:
                flat = []
                for run in self._runs.values():
                    if type(run) is tuple:
                        flat.extend(run)
                    else:
                        flat.append(run)
            self._flat = flat
        return flat

    def run(self, key) -> tuple:
        """The key's items (empty when absent, NaN or unhashable)."""
        try:
            run = self._runs.get(key, ()) if key == key else ()
        except TypeError:
            return ()
        return run if type(run) is tuple else (run,)

    def keys(self):
        return self._runs.keys()

    def put(self, key, items) -> None:
        """Replace the key's run in place, or append it as a new run."""
        old = self._runs.get(key)
        if old is not None:
            self._size -= len(old) if type(old) is tuple else 1
            self._multi -= type(old) is tuple
        if len(items) == 1:
            self._runs[key] = items[0]
        else:
            self._runs[key] = tuple(items)
            self._multi += 1
        self._size += len(items)
        self._flat = None

    def pop(self, key) -> tuple:
        """Remove the key's run; returns its items."""
        run = self._runs.pop(key, None)
        if run is None:
            return ()
        if type(run) is tuple:
            self._multi -= 1
        else:
            run = (run,)
        self._size -= len(run)
        self._flat = None
        return run

    def __len__(self) -> int:
        return self._size


class KeyedRecords(KeyedRuns):
    """A residency entry's records in scan order, keyed for patching.

    The fragment cache, the materialized store and the incremental
    materializer all hold one.  The key index is built on the first
    patch (a cache entry that is never patched never pays for it) under
    the fragment's key variable, with the key equality of
    ``record.get(key_var) == key``: 1, 1.0 and True are one key, and a
    NaN key matches nothing.  A list whose key runs are not contiguous,
    or whose keys are unhashable, has no keyed form; every patch of it
    declines and the owner falls back (evict, invalidate, rebuild).
    """

    __slots__ = ("_key_var",)

    def __init__(self, records=()) -> None:
        super().__init__()
        self._runs = None
        self._flat = list(records)
        self._size = len(self._flat)
        self._key_var: str | None = None

    records = KeyedRuns.items

    def keyed(self, key_var: str) -> bool:
        """Index the records by ``key_var``; False when they cannot be."""
        if key_var == self._key_var:
            return self._runs is not None
        records = self.items()
        self._key_var, self._runs, self._flat = key_var, None, records
        runs: dict = {}
        last = None  # the run being extended
        for record in records:
            key = record.get(key_var)
            try:
                if key != key:
                    key = _Unmatched()
                run = runs.get(key)
            except TypeError:
                return False
            if run is None:
                runs[key] = last = record
            elif run is last:
                if type(run) is list:
                    run.append(record)
                else:
                    runs[key] = last = [run, record]
            else:
                return False  # the key's records are not contiguous
        multi = 0
        for key, run in runs.items():
            if type(run) is list:
                runs[key] = tuple(run)
                multi += 1
        self._runs, self._multi = runs, multi
        return True


def patch_records(
    store: KeyedRecords, patch: FragmentPatch
) -> tuple[tuple[Record, ...], tuple[Record, ...]] | None:
    """Apply a patch to the store in place: ``(removed, added)`` or None.

    Costs O(fan-out) after the store is keyed.  Inserts append (scans
    emit new rows last: rowids grow, the differ rejects mid-document
    inserts).  Deletes remove the key's records.  Updates replace them
    *in place* — positions are stable because the underlying row kept
    its rowid / document position.  None — the store untouched — when
    the patch is unsound: an insert of a key already present (the feed
    and the store disagree), an update that flips a row *into* the
    result (its position is unknowable) or changes how many records the
    row produces, or a result the store cannot hold (a patched row keyed
    other than the patch, an unhashable key, records with no keyed form).
    """
    if not store.keyed(patch.key_var):
        return None
    key, rows = patch.key, patch.rows
    current = store.run(key)
    if patch.op == "insert" and current:
        return None  # duplicate key: the feed and the store disagree
    if patch.op == "delete" or not rows:
        # a delete, or an update flipping out of the result (or staying out)
        return (store.pop(key) if current else ()), ()
    if any(not _same_key(row.get(patch.key_var), key) for row in rows):
        return None
    if patch.op == "update":
        if len(current) != len(rows):
            return None  # flip-in, or the fan-out changed
        store.put(key, rows)
        return current, rows
    if key != key:  # NaN: every record under a key nothing matches
        for row in rows:
            store.put(_Unmatched(), (row,))
        return (), rows
    try:
        store.put(key, rows)
    except TypeError:
        return None  # an unhashable key
    return (), rows


def residency_decision(
    fragment: Fragment,
    rows: KeyedRecords,
    bounds: KeyBounds,
    change: ChangeRecord,
    key_field: str | None,
    patch: bool = True,
) -> tuple[str, tuple | None]:
    """One residency entry's answer to one change over its source.

    ``("retained", None)`` when the change is to another relation,
    ``("excluded", None)`` when the entry's conditions exclude the
    changed key, ``("patched", (removed, added))`` once ``rows`` are
    patched in place, else ``("unpatchable", None)`` — the owner evicts
    or invalidates the entry.
    """
    if all(access.relation != change.relation for access in fragment.accesses):
        return "retained", None
    if change.op == "reset" or key_field is None:
        return "unpatchable", None
    key_var = change_key_var(fragment, change.relation, key_field)
    if key_var is not None and not bounds.affected(key_var, change.key):
        return "excluded", None
    if patch:
        plan = fragment_patch(fragment, change, key_field)
        if plan is not None:
            applied = patch_records(rows, plan)
            if applied is not None:
                return "patched", applied
    return "unpatchable", None


__all__ = [
    "FragmentPatch",
    "KeyBounds",
    "KeyedRecords",
    "KeyedRuns",
    "change_key_var",
    "fragment_patch",
    "key_affected",
    "pattern_bindings",
    "patch_records",
    "residency_decision",
]

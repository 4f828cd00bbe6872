"""Query decomposition: split a query into per-source fragments.

"When an XML-QL query is posed to the integration engine it is parsed
and broken into multiple fragments based on the target data sources"
(section 2.1).  The decomposer resolves every pattern clause through the
catalog, groups clauses that one source can answer together (when its
profile allows joins and the clauses share variables), pushes each
condition into the first fragment that can evaluate it — copying
``$var = literal`` into every other fragment joined on ``$var`` — and
leaves the rest as residual work for the engine.

A pattern over a mediated view is unfolded when it can be
(:mod:`repro.optimizer.unfolding`): the view's body is decomposed in its
place, with the outer conditions that are sound to apply to raw rows
pushed into the body's fragments.  Views that do not unfold keep the
sub-query path, and say why.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from repro.algebra.construct import ConstructTemplate
from repro.algebra.pattern import TreePattern
from repro.algebra.unfold import read_children
from repro.cdc.scope import change_key_var
from repro.errors import PlanningError
from repro.mediator.catalog import Catalog, DocumentTarget
from repro.mediator.mapping import RelationMapping
from repro.mediator.schema import ViewDef
from repro.optimizer.unfolding import (
    derive_conditions,
    outer_slots,
    unfold_blocker,
)
from repro.query import ast as qast
from repro.query.binder import BoundQuery, bind_query
from repro.query.translate import pattern_to_tree, template_to_construct
from repro.sources.base import (
    Access,
    DataSource,
    Fragment,
    ValueDomain,
    text_domains,
)
from repro.sources.webservice import WebServiceSource


@dataclass
class FragmentUnit:
    """One remote fragment plus planning metadata."""

    fragment: Fragment
    source: DataSource
    variables: tuple[str, ...]
    dependent: bool = False
    #: the fragment as the query states it — before the optimizer added
    #: derived conditions (equality copies, unfolded outer conditions).
    #: The planner orders units by its estimate, so derived filters
    #: shrink transfers without ever reordering the plan's rows.
    declared: Fragment | None = None

    def describe(self) -> str:
        marker = " (dependent)" if self.dependent else ""
        return self.fragment.describe() + marker


@dataclass
class ViewUnit:
    """A pattern over a mediated view that does not unfold — answered by
    running the view as a sub-query and matching its elements."""

    clause: qast.PatternClause
    view: ViewDef
    variables: tuple[str, ...]
    reason: str

    def describe(self) -> str:
        return f"View({self.view.name}; not unfolded: {self.reason})"


@dataclass
class UnfoldedViewUnit:
    """A pattern over a mediated view, composed with the view's body.

    ``body`` is the view query decomposed into per-source fragments,
    with the sound outer conditions (``derived``) pushed into it; at run
    time :class:`~repro.algebra.unfold.UnfoldView` groups its rows the
    way the view's CONSTRUCT would and matches ``pattern`` against the
    groups.
    """

    clause: qast.PatternClause
    view: ViewDef
    variables: tuple[str, ...]
    body: "DecomposedQuery"
    template: ConstructTemplate
    pattern: TreePattern
    derived: tuple[qast.Expr, ...] = ()

    def describe(self) -> str:
        return f"Unfolded({self.view.name})"


Unit = Union[FragmentUnit, ViewUnit, UnfoldedViewUnit]


@dataclass
class DecomposedQuery:
    """The decomposition result handed to the plan builder."""

    bound: BoundQuery
    units: list[Unit]
    residual_conditions: list[qast.Expr]
    pushed_conditions: list[qast.Expr] = field(default_factory=list)

    def describe(self) -> str:
        lines = []
        for unit in self.units:
            lines.append(unit.describe())
            if isinstance(unit, UnfoldedViewUnit):
                for condition in unit.derived:
                    lines.append(f"  Derived({condition})")
                lines.extend(
                    "  " + line for line in unit.body.describe().splitlines()
                )
        for condition in self.residual_conditions:
            lines.append(f"Residual({condition})")
        return "\n".join(lines)


def decompose(
    bound: BoundQuery,
    catalog: Catalog,
    pushdown: bool = True,
    projection: bool = False,
    resident_views: frozenset[str] = frozenset(),
) -> DecomposedQuery:
    """Decompose ``bound`` against ``catalog``.

    ``pushdown=False`` disables both condition pushdown and same-source
    fragment merging — the naive-compilation baseline benchmark E5
    measures against.  ``projection=True`` additionally prunes each
    fragment's transferred columns to the variables the rest of the
    query actually consumes (projection pushdown).  Views named in
    ``resident_views`` (materialized or maintained) are never unfolded:
    their stored elements answer them.
    """
    decomposer = _Decomposer(catalog, pushdown, projection, resident_views)
    return decomposer.finish(bound, decomposer.resolve(bound))


@dataclass
class _PendingView:
    """An unfoldable view pattern whose body awaits the outer conditions."""

    clause: qast.PatternClause
    view: ViewDef
    variables: tuple[str, ...]
    bound: BoundQuery
    units: list[Unit]
    template: ConstructTemplate
    pattern: TreePattern


class _Decomposer:
    """One decomposition: resolve clauses to units, then place conditions.

    The two phases are split so that a view body can be resolved first
    (its domains and keys decide which outer conditions are sound) and
    finished once those conditions are known.
    """

    def __init__(self, catalog: Catalog, pushdown: bool, projection: bool,
                 resident_views: frozenset[str]):
        self.catalog = catalog
        self.pushdown = pushdown
        self.projection = projection
        self.resident_views = resident_views
        #: identical unfolded bodies share one DecomposedQuery, so the
        #: plan reads them once (the view memo of the sub-query path)
        self._bodies: dict[tuple, DecomposedQuery] = {}

    def resolve(self, bound: BoundQuery) -> list[Unit]:
        """Phase one: a unit per pattern clause, same-source merged."""
        catalog = self.catalog
        raw_units: list[Unit | _PendingView] = []
        for index, clause in enumerate(bound.query.pattern_clauses):
            resolved = catalog.resolve(clause.source)
            variables = bound.clause_vars[index]
            if isinstance(resolved, ViewDef):
                raw_units.append(self._prepare_view(clause, resolved, variables))
                continue
            if isinstance(resolved, RelationMapping):
                source = catalog.registry.get(resolved.source_name)
                access = Access(resolved.source_relation,
                                resolved.rewrite_pattern(clause.pattern))
            else:
                assert isinstance(resolved, DocumentTarget)
                source = catalog.registry.get(resolved.source_name)
                access = Access(resolved.relation, pattern_to_tree(clause.pattern))
            fragment = Fragment(source.name, (access,))
            unit = FragmentUnit(fragment, source, variables)
            _mark_dependent(unit)
            raw_units.append(unit)
        return _merge_same_source(raw_units) if self.pushdown else raw_units

    def finish(self, bound: BoundQuery, units: list,
               derived: tuple[qast.Expr, ...] = (),
               output_vars: set[str] | None = None) -> DecomposedQuery:
        """Phase two: unfold pending views, push conditions, prune."""
        query = bound.query
        own = [c.expr for c in query.condition_clauses]
        units = [
            self._unfold(unit, own + list(derived))
            if isinstance(unit, _PendingView) else unit
            for unit in units
        ]
        residual = own
        pushed: list[qast.Expr] = []
        if self.pushdown:
            residual = _push_conditions(units, residual, pushed)
        for unit in units:
            if isinstance(unit, FragmentUnit):
                unit.declared = unit.fragment
        if self.pushdown:
            residual += _push_conditions(units, list(derived), pushed)
            _propagate_equalities(units, pushed)
        else:
            residual += list(derived)
        if self.projection:
            needed = (
                output_vars if output_vars is not None
                else set(query.construct.variables())
            )
            _prune_columns(units, query, needed, residual)
        _check_dependencies(units, bound)
        return DecomposedQuery(bound, units, residual, pushed)

    # -- views ------------------------------------------------------------

    def _prepare_view(self, clause: qast.PatternClause, view: ViewDef,
                      variables: tuple[str, ...]) -> Unit | _PendingView:
        template = template_to_construct(view.query.construct)
        pattern = pattern_to_tree(clause.pattern)
        if view.name in self.resident_views:
            return ViewUnit(clause, view, variables, "view is materialized")
        reason = unfold_blocker(view.query, template, pattern)
        if reason is not None:
            return ViewUnit(clause, view, variables, reason)
        bound = bind_query(view.query)
        units = self.resolve(bound)
        for unit in units:
            if isinstance(unit, ViewUnit):
                return ViewUnit(clause, view, variables,
                                f"reads view {unit.view.name}, which does not "
                                "unfold")
        domains = _body_domains(units)
        for var in template.all_vars():
            if var not in domains:
                return ViewUnit(clause, view, variables,
                                f"template variable ${var} has no atomic type")
        return _PendingView(clause, view, variables, bound, units, template,
                            pattern)

    def _unfold(self, pending: _PendingView,
                conditions: list[qast.Expr]) -> UnfoldedViewUnit:
        template, pattern = pending.template, pending.pattern
        group_vars = template.direct_vars() or template.all_vars()
        derived: tuple[qast.Expr, ...] = ()
        if self.pushdown:
            derived = tuple(derive_conditions(
                conditions,
                outer_slots(template, pattern),
                _body_domains(pending.units),
                _uniform_vars(pending.units, set(group_vars)),
            ))
        needed = _read_vars(template, pattern)
        key = (pending.view.name, derived, tuple(sorted(needed)))
        body = self._bodies.get(key)
        if body is None:
            body = self._bodies[key] = self.finish(
                pending.bound, pending.units, derived, needed
            )
        return UnfoldedViewUnit(pending.clause, pending.view, pending.variables,
                                body, template, pattern, derived)


def _read_vars(template: ConstructTemplate, pattern: TreePattern) -> set[str]:
    """The view variables an unfolded read consumes: the grouping key
    plus every child template the pattern reads."""
    needed = set(template.direct_vars() or template.all_vars())
    for child in read_children(template, pattern):
        needed.update(child.all_vars())
    return needed


def _unit_domains(unit: Unit) -> dict[str, ValueDomain]:
    if isinstance(unit, FragmentUnit):
        domains: dict[str, ValueDomain] = {}
        for access in unit.fragment.accesses:
            for var, domain in unit.source.value_domains(access).items():
                domains.setdefault(var, domain)
        return domains
    if isinstance(unit, (UnfoldedViewUnit, _PendingView)):
        # unfolded reads bind the text of constructed elements
        return text_domains(pattern_to_tree(unit.clause.pattern))
    return {}


def _body_domains(units: list) -> dict[str, ValueDomain]:
    """Per variable, what every unit binding it guarantees together.

    Joined values agree under the hash join's equality, so one unit's
    guarantee covers the row: a variable is non-NULL, or stripped,
    when any binder says so.  Binders that disagree on the kind never
    join, and leave the variable without a domain.
    """
    seen: dict[str, list[ValueDomain]] = {}
    for unit in units:
        for var, domain in _unit_domains(unit).items():
            seen.setdefault(var, []).append(domain)
    combined: dict[str, ValueDomain] = {}
    for var, domains in seen.items():
        if len({d.kind for d in domains}) != 1:
            continue
        combined[var] = ValueDomain(
            domains[0].kind,
            nullable=all(d.nullable for d in domains),
            stripped=any(d.stripped for d in domains),
            strict=any(d.strict for d in domains),
            nan=any(d.nan for d in domains),
            index=max(d.index for d in domains),  # "sorted" > "hash" > ""
        )
    return combined


def _uniform_vars(units: list, group_vars: set[str]) -> set[str]:
    """Variables with one value per constructed root element.

    The grouping variables, plus every variable an access binds when
    its relation's declared key is bound by a grouping variable: each
    group then carries at most one row of that relation.
    """
    uniform = set(group_vars)
    for unit in units:
        if not isinstance(unit, FragmentUnit):
            continue
        for access in unit.fragment.accesses:
            key_field = unit.source.key_field(access.relation)
            if key_field is None:
                continue
            key_var = change_key_var(
                Fragment(unit.fragment.source, (access,)), access.relation,
                key_field,
            )
            if key_var in group_vars:
                uniform.update(access.pattern.variables())
    return uniform


def _prune_columns(
    units: list[Unit], query: qast.Query, needed: set[str],
    residual: list[qast.Expr],
) -> None:
    """Projection pushdown: restrict fragments to the consumed columns.

    A variable must survive transfer when anything downstream of the
    scan reads it: the output (``needed``: the CONSTRUCT template, or an
    unfolded view's grouping and read variables), a residual
    (engine-side) condition, an ORDER BY key, a join with another unit,
    or a dependent unit's input parameters.  Pushed conditions do *not*
    keep a column alive — the source evaluates them before projecting.
    """
    needed = set(needed)
    for condition in residual:
        needed |= qast.expr_variables(condition)
    for spec in query.order_by:
        needed |= qast.expr_variables(spec.expr)
    for unit in units:
        if isinstance(unit, FragmentUnit) and unit.fragment.input_vars:
            needed |= set(unit.fragment.input_vars)
    for unit in units:
        if not isinstance(unit, FragmentUnit) or unit.dependent:
            continue
        if not unit.source.capabilities.projections:
            continue
        shared: set[str] = set()
        for other in units:
            if other is not unit:
                shared |= set(unit.variables) & set(other.variables)
        keep = tuple(
            var for var in unit.variables if var in needed or var in shared
        )
        if keep and len(keep) < len(unit.variables):
            unit.fragment = replace(unit.fragment, columns=keep)


def _mark_dependent(unit: FragmentUnit) -> None:
    """Set input variables for call-only (binding-pattern) sources."""
    source = unit.source
    inner = getattr(source, "inner", source)  # unwrap FlakySource
    if not source.capabilities.requires_parameters:
        return
    if not isinstance(inner, WebServiceSource):
        raise PlanningError(
            f"source {source.name!r} requires parameters but is not an "
            "endpoint source"
        )
    access = unit.fragment.accesses[0]
    required_fields = inner.required_inputs(access.relation)
    field_to_var = {
        child.tag: child.text_var
        for child in access.pattern.children
        if child.text_var is not None
    }
    input_vars = []
    for field_name in required_fields:
        var = field_to_var.get(field_name)
        if var is None:
            raise PlanningError(
                f"endpoint {access.relation!r} requires input field "
                f"{field_name!r}, but the pattern does not bind it"
            )
        input_vars.append(var)
    unit.fragment = replace(unit.fragment, input_vars=tuple(input_vars))
    unit.dependent = True


def _merge_same_source(units: list[Unit]) -> list[Unit]:
    """Merge var-connected fragments of one join-capable source."""
    merged: list[Unit] = []
    for unit in units:
        if not isinstance(unit, FragmentUnit):
            merged.append(unit)
            continue
        if unit.dependent or not unit.source.capabilities.joins:
            merged.append(unit)
            continue
        target = None
        for candidate in merged:
            if (
                isinstance(candidate, FragmentUnit)
                and not candidate.dependent
                and candidate.source is unit.source
                and set(candidate.variables) & set(unit.variables)
            ):
                target = candidate
                break
        if target is None:
            merged.append(unit)
        else:
            target.fragment = replace(
                target.fragment,
                accesses=target.fragment.accesses + unit.fragment.accesses,
            )
            target.variables = tuple(
                dict.fromkeys(target.variables + unit.variables)
            )
    return merged


def _push_conditions(
    units: list[Unit], conditions: list[qast.Expr], pushed_out: list[qast.Expr]
) -> list[qast.Expr]:
    """Push each condition into the one fragment that can take it."""
    residual: list[qast.Expr] = []
    for condition in conditions:
        needed = qast.expr_variables(condition)
        home = None
        for unit in units:
            if not isinstance(unit, FragmentUnit):
                continue
            if unit.dependent:
                continue  # parameterized endpoints take no selections
            if needed <= set(unit.variables) and unit.source.capabilities.accepts_condition(condition):
                home = unit
                break
        if home is None:
            residual.append(condition)
        else:
            home.fragment = replace(
                home.fragment,
                conditions=home.fragment.conditions + (condition,),
            )
            pushed_out.append(condition)
    return residual


def _propagate_equalities(units: list[Unit], pushed: list[qast.Expr]) -> None:
    """Copy ``$var = literal`` into every fragment that binds ``$var``.

    The hash join matches values whose comparison keys are equal, so a
    fragment joined on ``$var`` keeps only rows that can meet the pushed
    literal anyway.  The copy is exact only where the comparison means
    that same equality on the target's values: strings against a
    string literal, numbers against a numeric one.  Parameterized
    endpoints take no selections and get no copy.
    """
    for condition in pushed:
        equality = _var_literal_equality(condition)
        if equality is None:
            continue
        var, literal = equality
        for unit in units:
            if (
                not isinstance(unit, FragmentUnit)
                or unit.dependent
                or var not in unit.variables
                or condition in unit.fragment.conditions
                or not unit.source.capabilities.accepts_condition(condition)
            ):
                continue
            domain = _unit_domains(unit).get(var)
            if domain is None or not _join_exact(literal, domain):
                continue
            unit.fragment = replace(
                unit.fragment,
                conditions=unit.fragment.conditions + (condition,),
            )


def _var_literal_equality(condition: qast.Expr) -> tuple[str, object] | None:
    if not isinstance(condition, qast.BinOp) or condition.op != "=":
        return None
    left, right = condition.left, condition.right
    if isinstance(left, qast.Var) and isinstance(right, qast.Literal):
        return left.name, right.value
    if isinstance(right, qast.Var) and isinstance(left, qast.Literal):
        return right.name, left.value
    return None


def _join_exact(literal: object, domain: ValueDomain) -> bool:
    """Is ``value = literal`` the join's equality on this domain?"""
    if isinstance(literal, bool):
        return False
    if domain.kind == "string":
        return isinstance(literal, str)
    if domain.kind == "number":
        return isinstance(literal, (int, float))
    return False


def _check_dependencies(units: list[Unit], bound: BoundQuery) -> None:
    """Every dependent fragment's inputs must come from some other unit."""
    for unit in units:
        if not isinstance(unit, FragmentUnit) or not unit.dependent:
            continue
        providers: set[str] = set()
        for other in units:
            if other is unit:
                continue
            providers.update(other.variables)
        missing = set(unit.fragment.input_vars) - providers
        if missing:
            raise PlanningError(
                f"dependent fragment on {unit.source.name!r} needs "
                f"{sorted('$' + v for v in missing)} from another clause"
            )

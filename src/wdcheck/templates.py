"""The builtin catalog of constraint templates.

Each template carries one or more positive formula variants written in the
constraint language.  Property-scoped templates use the free variables ?p
(the constrained property) and ?CQ (the qualifier set of the declaring
property_constraint statement); each variant is negated into a violation
query once, and ?p and ?CQ stay free in it as parameters that every
declaration binds to its own values when the query is evaluated.  Global
templates have no declaration and are evaluated as written.

Variant texts mention entities by label; see labels.py for the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from . import labels as L
from .model import EntityId


@dataclass(frozen=True)
class Variant:
    """One formula of a template, with applicability conditions."""

    name: str
    text: str
    requires: tuple = ()  # parameter attributes that must be present in CQ
    forbids: tuple = ()
    count_param: Optional[EntityId] = None  # fills the <K> placeholder
    symmetric_pairs: tuple = ()  # ((var_a, var_b), ...) for order-normalized dedup
    enabled: bool = True


@dataclass(frozen=True)
class ConstraintTemplate:
    name: str
    type_item: Optional[EntityId]  # None for global (declaration-free) templates
    category: str  # "existing", "proposed" or "non_property"
    variants: tuple
    subject_var: str = "s"
    description: str = ""


_PC = "property_constraint"


def _t(name, type_item, category, variants, subject_var="s", description=""):
    return ConstraintTemplate(name, type_item, category, tuple(variants),
                              subject_var, description)


_START_S = ("(date_of_birth(?s, ?b) | inception(?s, ?b) | "
            "start_time(?s, ?b) | point_in_time(?s, ?b))")
_END_O = ("(date_of_death(?o, ?e) | dissolved_date(?o, ?e) | "
          "end_time(?o, ?e) | point_in_time(?o, ?e))")
_START_O = _START_S.replace("?s", "?o")
_END_S = _END_O.replace("?o", "?s")


def _contemporary(start, end):
    return (f"{_PC}(?p, contemporary_constraint)@?CQ & ?p(?s, ?o) -> "
            f"(forall ?b . !{start}) | (forall ?e . !{end}) | "
            f"(exists ?b . exists ?e . ((less_than(?b, ?e) | overlaps(?b, ?e)) "
            f"& {start} & {end}))")


def builtin_templates() -> list:
    """All constraint templates, existing plus proposed plus global ones."""
    t = []

    # -- existing property constraint types ---------------------------------

    t.append(_t("single_value", L.SINGLE_VALUE_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, single_value_constraint)@?CQ & "
                "?p(?s, ?o1)@?SQ1 & ?p(?s, ?o2)@?SQ2 -> "
                "(?o1 = ?o2 & ?SQ1 = ?SQ2) "
                "| (exception_to_constraint : ?s) in ?CQ "
                "| (exists ?sep . exists ?v1 . exists ?v2 . "
                "((separator : ?sep) in ?CQ & (?sep : ?v1) in ?SQ1 & "
                "(?sep : ?v2) in ?SQ2 & !(?v1 = ?v2)))",
                symmetric_pairs=(("o1", "o2"), ("SQ1", "SQ2"))),
    ], description="The property generally has a single value per item."))

    t.append(_t("multi_value", L.MULTI_VALUE_CONSTRAINT, "existing", [
        Variant("plain",
                f"{_PC}(?p, multi_value_constraint) & ?p(?s, ?o1) -> "
                "exists ?o2 . (?p(?s, ?o2) & !(?o1 = ?o2))",
                forbids=(L.PARAM_MIN_COUNT,)),
        Variant("minimum_count",
                f"{_PC}(?p, multi_value_constraint)@?CQ & "
                "(minimum_count : ?mc) in ?CQ & ?p(?s, ?o1) -> "
                "exists[<K>] ?o2 . ?p(?s, ?o2)",
                requires=(L.PARAM_MIN_COUNT,),
                count_param=L.PARAM_MIN_COUNT),
    ], description="Items should have more than one value (or a declared minimum)."))

    t.append(_t("distinct_values", L.DISTINCT_VALUES_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, distinct_values_constraint) & "
                "?p(?s1, ?o1) & ?p(?s2, ?o2) & !(?s1 = ?s2) -> !(?o1 = ?o2)",
                symmetric_pairs=(("s1", "s2"), ("o1", "o2"))),
    ], subject_var="s1",
        description="No two subjects may share a value for the property."))

    t.append(_t("format", L.FORMAT_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, format_constraint)@?CQ & "
                "(format_as_a_regular_expression : ?regex) in ?CQ & ?p(?s, ?o) -> "
                "matches_regex(?o, ?regex)"),
    ], description="Values must match the declared regular expression."))

    t.append(_t("symmetric", L.SYMMETRIC_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, symmetric_constraint) & ?p(?x, ?y) -> ?p(?y, ?x)"),
        Variant("same_qualifiers",
                f"{_PC}(?p, symmetric_constraint) & ?p(?x, ?y)@?SQ -> ?p(?y, ?x)@?SQ",
                enabled=False),
    ], subject_var="x",
        description="Statements should exist in both directions."))

    t.append(_t("inverse", L.INVERSE_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, inverse_constraint)@?CQ & (property : ?p2) in ?CQ & "
                "?p(?s, ?o) -> ?p2(?o, ?s)"),
    ], description="Values should point back via the declared inverse property."))

    t.append(_t("item_requires_statement", L.ITEM_REQUIRES_STATEMENT_CONSTRAINT,
                "existing", [
        Variant("main",
                f"{_PC}(?p, item_requires_statement_constraint)@?CQ & "
                "(property : ?p2) in ?CQ & ?p(?s, ?o) -> "
                "(exists ?val . ((item_of_property_constraint : ?val) in ?CQ & "
                "?p2(?s, ?val))) | "
                "(!(exists ?v . (item_of_property_constraint : ?v) in ?CQ) & "
                "(exists ?val2 . ?p2(?s, ?val2)))"),
    ], description="Subjects using the property need another given statement."))

    t.append(_t("value_requires_statement", L.VALUE_REQUIRES_STATEMENT_CONSTRAINT,
                "existing", [
        Variant("main",
                f"{_PC}(?p, value_requires_statement_constraint)@?CQ & "
                "(property : ?p2) in ?CQ & ?p(?s, ?o) -> "
                "(exists ?val . ((item_of_property_constraint : ?val) in ?CQ & "
                "?p2(?o, ?val))) | "
                "(!(exists ?v . (item_of_property_constraint : ?v) in ?CQ) & "
                "(exists ?val2 . ?p2(?o, ?val2)))"),
    ], description="Values of the property need another given statement."))

    t.append(_t("conflicts_with", L.CONFLICTS_WITH_CONSTRAINT, "existing", [
        Variant("any_value",
                f"{_PC}(?p, conflicts_with_constraint)@?CQ & "
                "(property : ?p2) in ?CQ & "
                "!(exists ?cv . (item_of_property_constraint : ?cv) in ?CQ) & "
                "?p(?s, ?o1) -> !(exists ?o2 . ?p2(?s, ?o2))"),
        Variant("listed_value",
                f"{_PC}(?p, conflicts_with_constraint)@?CQ & "
                "(property : ?p2) in ?CQ & "
                "(item_of_property_constraint : ?cv) in ?CQ & "
                "?p(?s, ?o1) -> !?p2(?s, ?cv)"),
    ], description="Subjects using the property must not have the conflicting statement."))

    t.append(_t("one_of", L.ONE_OF_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, one_of_constraint)@?CQ & ?p(?s, ?v) -> "
                "(item_of_property_constraint : ?v) in ?CQ"),
    ], description="Only the listed values are allowed."))

    t.append(_t("none_of", L.NONE_OF_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, none_of_constraint)@?CQ & ?p(?s, ?v) -> "
                "!((item_of_property_constraint : ?v) in ?CQ)"),
    ], description="The listed values are not allowed."))

    t.append(_t("mandatory_qualifier", L.MANDATORY_QUALIFIER_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, mandatory_qualifier_constraint)@?CQ & "
                "(property : ?q) in ?CQ & ?p(?s, ?o)@?SQ -> "
                "exists ?v . (?q : ?v) in ?SQ"),
    ], description="Statements must carry the given qualifier."))

    t.append(_t("allowed_qualifiers", L.ALLOWED_QUALIFIERS_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, allowed_qualifiers_constraint)@?CQ & "
                "?p(?s, ?o)@?SQ & (?q : ?v) in ?SQ & "
                "!(?q = rank) & !(?q = reference) -> (property : ?q) in ?CQ"),
    ], description="Only the listed qualifiers may be used."))

    t.append(_t("allowed_units", L.ALLOWED_UNITS_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, allowed_units_constraint)@?CQ & ?p(?s, ?o) -> "
                "exists ?u . ((item_of_property_constraint : ?u) in ?CQ & "
                "has_unit(?o, ?u))"),
    ], description="Quantity values must use one of the listed units."))

    t.append(_t("citation_needed", L.CITATION_NEEDED_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, citation_needed_constraint)@?CQ & ?p(?s, ?o)@?SQ -> "
                "exists ?r . (reference : ?r) in ?SQ"),
    ], description="Statements need at least one reference."))

    t.append(_t("type", L.TYPE_CONSTRAINT, "existing", [
        Variant("instance_of",
                f"{_PC}(?p, type_constraint)@?CQ & "
                "(relation : rel_instance_of) in ?CQ & ?p(?s, ?o) -> "
                "exists ?c . ((class : ?c) in ?CQ & instance_of(?s, ?c))"),
        Variant("subclass_of",
                f"{_PC}(?p, type_constraint)@?CQ & "
                "(relation : rel_subclass_of) in ?CQ & ?p(?s, ?o) -> "
                "exists ?c . ((class : ?c) in ?CQ & subclass_of(?s, ?c))"),
        Variant("instance_or_subclass_of",
                f"{_PC}(?p, type_constraint)@?CQ & "
                "(relation : rel_instance_or_subclass_of) in ?CQ & ?p(?s, ?o) -> "
                "exists ?c . ((class : ?c) in ?CQ & "
                "(instance_of(?s, ?c) | subclass_of(?s, ?c)))"),
    ], description="Subjects must have one of the given types."))

    t.append(_t("value_type", L.VALUE_TYPE_CONSTRAINT, "existing", [
        Variant("instance_of",
                f"{_PC}(?p, value_type_constraint)@?CQ & "
                "(relation : rel_instance_of) in ?CQ & ?p(?s, ?o) -> "
                "exists ?c . ((class : ?c) in ?CQ & instance_of(?o, ?c))"),
        Variant("subclass_of",
                f"{_PC}(?p, value_type_constraint)@?CQ & "
                "(relation : rel_subclass_of) in ?CQ & ?p(?s, ?o) -> "
                "exists ?c . ((class : ?c) in ?CQ & subclass_of(?o, ?c))"),
        Variant("instance_or_subclass_of",
                f"{_PC}(?p, value_type_constraint)@?CQ & "
                "(relation : rel_instance_or_subclass_of) in ?CQ & ?p(?s, ?o) -> "
                "exists ?c . ((class : ?c) in ?CQ & "
                "(instance_of(?o, ?c) | subclass_of(?o, ?c)))"),
    ], description="Values must have one of the given types."))

    t.append(_t("range", L.RANGE_CONSTRAINT, "existing", [
        Variant("minimum_value",
                f"{_PC}(?p, range_constraint)@?CQ & "
                "(minimum_value : ?min) in ?CQ & ?p(?s, ?o) -> geq(?o, ?min)",
                requires=(L.PARAM_MIN_VALUE,)),
        Variant("maximum_value",
                f"{_PC}(?p, range_constraint)@?CQ & "
                "(maximum_value : ?max) in ?CQ & ?p(?s, ?o) -> leq(?o, ?max)",
                requires=(L.PARAM_MAX_VALUE,)),
        Variant("minimum_date",
                f"{_PC}(?p, range_constraint)@?CQ & "
                "(minimum_date : ?min) in ?CQ & ?p(?s, ?o) -> geq(?o, ?min)",
                requires=(L.PARAM_MIN_DATE,)),
        Variant("maximum_date",
                f"{_PC}(?p, range_constraint)@?CQ & "
                "(maximum_date : ?max) in ?CQ & ?p(?s, ?o) -> leq(?o, ?max)",
                requires=(L.PARAM_MAX_DATE,)),
    ], description="Values must lie within the declared range."))

    t.append(_t("difference_within_range", L.DIFFERENCE_WITHIN_RANGE_CONSTRAINT,
                "existing", [
        Variant("minimum",
                f"{_PC}(?p, difference_within_range_constraint)@?CQ & "
                "(property : ?p2) in ?CQ & (minimum_value : ?min) in ?CQ & "
                "?p(?s, ?o1) & ?p2(?s, ?o2) -> "
                "geq(difference(?o1, ?o2), ?min)",
                requires=(L.PARAM_PROPERTY, L.PARAM_MIN_VALUE)),
        Variant("maximum",
                f"{_PC}(?p, difference_within_range_constraint)@?CQ & "
                "(property : ?p2) in ?CQ & (maximum_value : ?max) in ?CQ & "
                "?p(?s, ?o1) & ?p2(?s, ?o2) -> "
                "leq(difference(?o1, ?o2), ?max)",
                requires=(L.PARAM_PROPERTY, L.PARAM_MAX_VALUE)),
    ], description="The difference to another property's value must stay in range."))

    t.append(_t("integer", L.INTEGER_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, integer_constraint) & ?p(?s, ?o) -> integer(?o)"),
    ], description="Values must be integer quantities."))

    t.append(_t("no_bounds", L.NO_BOUNDS_CONSTRAINT, "existing", [
        Variant("main",
                f"{_PC}(?p, no_bounds_constraint)@?CQ & ?p(?s, ?o) -> precise(?o)"),
    ], description="Quantity values must not carry uncertainty bounds."))

    t.append(_t("single_best_value", L.SINGLE_BEST_VALUE_CONSTRAINT, "existing", [
        Variant("some_preferred",
                f"{_PC}(?p, single_best_value_constraint)@?CQ -> "
                "exists ?s . exists ?o . exists ?SQ . "
                "(?p(?s, ?o)@?SQ & (rank : preferred) in ?SQ)"),
        Variant("one_preferred",
                f"{_PC}(?p, single_best_value_constraint)@?CQ & "
                "?p(?s, ?o1)@?SQ1 & ?p(?s, ?o2)@?SQ2 & !(?o1 = ?o2) & "
                "(rank : preferred) in ?SQ1 & (rank : preferred) in ?SQ2 -> "
                "exists ?sep . exists ?v1 . exists ?v2 . "
                "((separator : ?sep) in ?CQ & (?sep : ?v1) in ?SQ1 & "
                "(?sep : ?v2) in ?SQ2 & !(?v1 = ?v2))",
                symmetric_pairs=(("o1", "o2"), ("SQ1", "SQ2"))),
    ], description="Exactly one value should carry preferred rank."))

    t.append(_t("property_scope", L.PROPERTY_SCOPE_CONSTRAINT, "existing", [
        Variant("as_main_value",
                f"{_PC}(?p, property_scope_constraint)@?CQ & ?p(?s, ?o) & "
                "!instance_of(?s, wikidata_reference) -> "
                "(property_scope : as_main_value) in ?CQ"),
        Variant("as_qualifiers",
                f"{_PC}(?p, property_scope_constraint)@?CQ & "
                "?p2(?s, ?o)@?SQ & (?p : ?v) in ?SQ -> "
                "(property_scope : as_qualifiers) in ?CQ"),
        Variant("as_references",
                f"{_PC}(?p, property_scope_constraint)@?CQ & ?p(?s, ?o) & "
                "instance_of(?s, wikidata_reference) -> "
                "(property_scope : as_references) in ?CQ"),
    ], description="The property may only be used in the declared positions."))

    t.append(_t("contemporary", L.CONTEMPORARY_CONSTRAINT, "existing", [
        Variant("subject_before_object_end", _contemporary(_START_S, _END_O)),
        Variant("object_before_subject_end", _contemporary(_START_O, _END_S)),
    ], description="Linked entities must coexist at some point in time."))

    t.append(_t("allowed_entity_types", L.ALLOWED_ENTITY_TYPES_CONSTRAINT,
                "existing", [
        Variant("main",
                f"{_PC}(?p, allowed_entity_types_constraint)@?CQ & ?p(?s, ?o) -> "
                "exists ?t . ((item_of_property_constraint : ?t) in ?CQ & "
                "instance_of(?s, ?t))"),
    ], description="The property may only be used on the listed entity types."))

    t.append(_t("commons_link", L.COMMONS_LINK_CONSTRAINT, "existing", [
        Variant("page_exists",
                f"{_PC}(?p, commons_link_constraint)@?CQ & ?p(?s, ?o) -> "
                "exists ?n . Commons_namespace(?o, ?n)"),
        Variant("namespace",
                f"{_PC}(?p, commons_link_constraint)@?CQ & "
                "(namespace : ?n) in ?CQ & ?p(?s, ?o) -> "
                "Commons_namespace(?o, ?n)",
                requires=(L.PARAM_NAMESPACE,)),
    ], description="Values must name Commons pages in the right namespace."))

    # -- proposed property constraint types ---------------------------------

    t.append(_t("asymmetric", None, "proposed", [
        Variant("main",
                "instance_of(?p, asymmetric_property) & ?p(?y, ?x) -> !?p(?x, ?y)"),
    ], subject_var="y",
        description="Statements must not exist in both directions."))

    t.append(_t("local_value_type", L.LOCAL_VALUE_TYPE_CONSTRAINT, "proposed", [
        Variant("instance_of",
                f"{_PC}(?p, local_value_type_constraint)@?CQ & "
                "(local_class : ?lc) in ?CQ & "
                "(relation : rel_instance_of) in ?CQ & "
                "?p(?s, ?o) & instance_of(?s, ?lc) -> "
                "exists ?c . ((class : ?c) in ?CQ & instance_of(?o, ?c))"),
        Variant("subclass_of",
                f"{_PC}(?p, local_value_type_constraint)@?CQ & "
                "(local_class : ?lc) in ?CQ & "
                "(relation : rel_subclass_of) in ?CQ & "
                "?p(?s, ?o) & instance_of(?s, ?lc) -> "
                "exists ?c . ((class : ?c) in ?CQ & subclass_of(?o, ?c))"),
        Variant("instance_or_subclass_of",
                f"{_PC}(?p, local_value_type_constraint)@?CQ & "
                "(local_class : ?lc) in ?CQ & "
                "(relation : rel_instance_or_subclass_of) in ?CQ & "
                "?p(?s, ?o) & instance_of(?s, ?lc) -> "
                "exists ?c . ((class : ?c) in ?CQ & "
                "(instance_of(?o, ?c) | subclass_of(?o, ?c)))"),
    ], description="Value type restriction that applies only to subjects of a class."))

    t.append(_t("essential_property", L.ESSENTIAL_PROPERTY_CONSTRAINT, "proposed", [
        Variant("main",
                f"{_PC}(?p, essential_property_constraint)@?CQ & "
                "(local_class : ?lc) in ?CQ & instance_of(?s, ?lc) -> "
                "exists ?o . ?p(?s, ?o)"),
    ], description="Instances of the class should carry the property."))

    # -- constraints beyond single properties -------------------------------

    t.append(_t("union_of", None, "non_property", [
        Variant("covered",
                "union_of(?u, list_values_as_qualifiers)@?Q & instance_of(?i, ?u) -> "
                "exists ?c . ((of : ?c) in ?Q & instance_of(?i, ?c))"),
        Variant("subsumed",
                "union_of(?u, list_values_as_qualifiers)@?Q & (of : ?c) in ?Q & "
                "instance_of(?i, ?c) -> instance_of(?i, ?u)"),
    ], subject_var="i",
        description="A class equals the union of its listed member classes."))

    t.append(_t("disjoint_union_of", None, "non_property", [
        Variant("partitioned",
                "disjoint_union_of(?u, list_values_as_qualifiers)@?Q & "
                "instance_of(?i, ?u) -> "
                "exists ?c1 . ((of : ?c1) in ?Q & instance_of(?i, ?c1) & "
                "(forall ?c2 . (((of : ?c2) in ?Q & instance_of(?i, ?c2)) -> "
                "?c1 = ?c2)))"),
        Variant("subsumed",
                "disjoint_union_of(?u, list_values_as_qualifiers)@?Q & "
                "(of : ?c) in ?Q & instance_of(?i, ?c) -> instance_of(?i, ?u)"),
    ], subject_var="i",
        description="A class is partitioned by its listed member classes."))

    t.append(_t("disjoint_with", None, "non_property", [
        Variant("main",
                "disjoint_with(?c1, ?c2) & instance_of(?i, ?c1) -> "
                "!instance_of(?i, ?c2)"),
    ], subject_var="i",
        description="Two classes share no instances."))

    t.append(_t("no_value_statement", None, "non_property", [
        Variant("main",
                "no_value(?p, ?s) -> !(exists ?o . ?p(?s, ?o))"),
    ], description="A no-value assertion forbids any value for the property."))

    t.append(_t("no_value_same_qualifiers", None, "non_property", [
        Variant("main",
                "no_value(?p, ?s)@?Q -> !(exists ?o . ?p(?s, ?o)@?Q)"),
    ], description="A no-value assertion forbids values with the same qualifiers."))

    t.append(_t("metasubclass_of", None, "non_property", [
        Variant("main",
                "metasubclass_of(?m1, ?m2) & instance_of(?c1, ?m1) -> "
                "exists ?c2 . (subclass_of(?c1, ?c2) & instance_of(?c2, ?m2))"),
    ], subject_var="c1",
        description="Instances of the metaclass are subclasses of the other's instances."))

    t.append(_t("instance_subclass_exclusivity", None, "non_property", [
        Variant("main",
                "instance_of(?i1, ?i2) -> !subclass_of(?i1, ?i2)"),
    ], subject_var="i1",
        description="Nothing is both an instance and a subclass of the same item."))

    t.append(_t("subclass_loop", None, "non_property", [
        Variant("main",
                "subclass_of(?c1, ?c2) & !(?c1 = ?c2) -> !subclass_of(?c2, ?c1)",
                symmetric_pairs=(("c1", "c2"),)),
    ], subject_var="c1",
        description="Subclass hierarchies must not contain loops."))

    return t


@cache
def _templates_by_name() -> dict:
    # built once: every template and variant is a frozen dataclass of tuples
    return {tpl.name: tpl for tpl in builtin_templates()}


def template_by_name(name: str) -> Optional[ConstraintTemplate]:
    return _templates_by_name().get(name)

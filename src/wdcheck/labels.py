"""Label alias table for the entities the constraint machinery relies on.

Ids follow Wikidata where the entity exists there.  A few entities needed by
the proposed constraint types have no Wikidata counterpart; those carry
project-assigned ids in the 90000 range and are marked below.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .model import EntityId, ModelError, P, Pseudo, Q, StringVal, Value

# -- properties -------------------------------------------------------------

PROPERTY_CONSTRAINT = P(2302)
INSTANCE_OF = P(31)
SUBCLASS_OF = P(279)
SUBPROPERTY_OF = P(1647)

# constraint parameter qualifiers
PARAM_STATUS = P(2316)
PARAM_EXCEPTION = P(2303)
PARAM_REGEX = P(1793)
PARAM_MIN_COUNT = P(90011)  # project-assigned

# -- constraint type items --------------------------------------------------

SINGLE_VALUE_CONSTRAINT = Q(19474404)
MULTI_VALUE_CONSTRAINT = Q(21510857)
DISTINCT_VALUES_CONSTRAINT = Q(21502410)
FORMAT_CONSTRAINT = Q(21502404)
SYMMETRIC_CONSTRAINT = Q(21510862)
INVERSE_CONSTRAINT = Q(21510855)
ITEM_REQUIRES_STATEMENT_CONSTRAINT = Q(21503247)
VALUE_REQUIRES_STATEMENT_CONSTRAINT = Q(21510864)
CONFLICTS_WITH_CONSTRAINT = Q(21502838)
ONE_OF_CONSTRAINT = Q(21510859)
NONE_OF_CONSTRAINT = Q(52558054)
MANDATORY_QUALIFIER_CONSTRAINT = Q(21510856)
ALLOWED_QUALIFIERS_CONSTRAINT = Q(21510851)
VALUE_TYPE_CONSTRAINT = Q(21510865)
TYPE_CONSTRAINT = Q(21503250)
RANGE_CONSTRAINT = Q(21510860)
DIFFERENCE_WITHIN_RANGE_CONSTRAINT = Q(21510854)
INTEGER_CONSTRAINT = Q(52848401)
NO_BOUNDS_CONSTRAINT = Q(51723761)
ALLOWED_UNITS_CONSTRAINT = Q(21514353)
SINGLE_BEST_VALUE_CONSTRAINT = Q(52060874)
CITATION_NEEDED_CONSTRAINT = Q(54554025)
PROPERTY_SCOPE_CONSTRAINT = Q(53869507)
CONTEMPORARY_CONSTRAINT = Q(25796498)
ALLOWED_ENTITY_TYPES_CONSTRAINT = Q(52004125)
COMMONS_LINK_CONSTRAINT = Q(21510852)
LOCAL_VALUE_TYPE_CONSTRAINT = Q(90020)  # project-assigned
ESSENTIAL_PROPERTY_CONSTRAINT = Q(90021)  # project-assigned

# -- items ------------------------------------------------------------------

MANDATORY_STATUS = Q(21502408)
SUGGESTION_STATUS = Q(62026391)
SYMMETRIC_PROPERTY = Q(18647518)
TRANSITIVE_PROPERTY = Q(18647515)
REFLEXIVE_PROPERTY = Q(18647517)

_ENTITY_LABELS: dict[str, EntityId] = {
    "property_constraint": PROPERTY_CONSTRAINT,
    "instance_of": INSTANCE_OF,
    "subclass_of": SUBCLASS_OF,
    "subproperty_of": SUBPROPERTY_OF,
    "spouse": P(26),
    "property": P(2306),
    "item_of_property_constraint": P(2305),
    "class": P(2308),
    "relation": P(2309),
    "minimum_value": P(2312),
    "maximum_value": P(2313),
    "minimum_date": P(2310),
    "maximum_date": P(2311),
    "namespace": P(2307),
    "property_scope": P(5314),
    "constraint_status": PARAM_STATUS,
    "exception_to_constraint": PARAM_EXCEPTION,
    "separator": P(4155),
    "format_as_a_regular_expression": PARAM_REGEX,
    "minimum_count": PARAM_MIN_COUNT,
    "local_class": P(90001),  # project-assigned
    "union_of": P(2737),
    "disjoint_union_of": P(2738),
    "metasubclass_of": P(2445),
    "of": P(642),
    "disjoint_with": P(90002),  # project-assigned (proposal was never adopted)
    "single_value_constraint": SINGLE_VALUE_CONSTRAINT,
    "multi_value_constraint": MULTI_VALUE_CONSTRAINT,
    "distinct_values_constraint": DISTINCT_VALUES_CONSTRAINT,
    "format_constraint": FORMAT_CONSTRAINT,
    "symmetric_constraint": SYMMETRIC_CONSTRAINT,
    "inverse_constraint": INVERSE_CONSTRAINT,
    "item_requires_statement_constraint": ITEM_REQUIRES_STATEMENT_CONSTRAINT,
    "value_requires_statement_constraint": VALUE_REQUIRES_STATEMENT_CONSTRAINT,
    "conflicts_with_constraint": CONFLICTS_WITH_CONSTRAINT,
    "one_of_constraint": ONE_OF_CONSTRAINT,
    "none_of_constraint": NONE_OF_CONSTRAINT,
    "mandatory_qualifier_constraint": MANDATORY_QUALIFIER_CONSTRAINT,
    "allowed_qualifiers_constraint": ALLOWED_QUALIFIERS_CONSTRAINT,
    "value_type_constraint": VALUE_TYPE_CONSTRAINT,
    "type_constraint": TYPE_CONSTRAINT,
    "range_constraint": RANGE_CONSTRAINT,
    "difference_within_range_constraint": DIFFERENCE_WITHIN_RANGE_CONSTRAINT,
    "integer_constraint": INTEGER_CONSTRAINT,
    "no_bounds_constraint": NO_BOUNDS_CONSTRAINT,
    "allowed_units_constraint": ALLOWED_UNITS_CONSTRAINT,
    "single_best_value_constraint": SINGLE_BEST_VALUE_CONSTRAINT,
    "citation_needed_constraint": CITATION_NEEDED_CONSTRAINT,
    "property_scope_constraint": PROPERTY_SCOPE_CONSTRAINT,
    "contemporary_constraint": CONTEMPORARY_CONSTRAINT,
    "allowed_entity_types_constraint": ALLOWED_ENTITY_TYPES_CONSTRAINT,
    "commons_link_constraint": COMMONS_LINK_CONSTRAINT,
    "local_value_type_constraint": LOCAL_VALUE_TYPE_CONSTRAINT,
    "essential_property_constraint": ESSENTIAL_PROPERTY_CONSTRAINT,
    "mandatory_constraint": MANDATORY_STATUS,
    "suggestion_constraint": SUGGESTION_STATUS,
    "list_values_as_qualifiers": Q(23766486),
    "symmetric_property": SYMMETRIC_PROPERTY,
    "transitive_property": TRANSITIVE_PROPERTY,
    "reflexive_property": REFLEXIVE_PROPERTY,
    "asymmetric_property": Q(18647519),
    "wikidata_reference": Q(90004),  # project-assigned reification class
    "rel_instance_of": Q(21503252),
    "rel_subclass_of": Q(21514624),
    "rel_instance_or_subclass_of": Q(30208840),
    "as_main_value": Q(54828448),
    "as_qualifiers": Q(54828449),
    "as_references": Q(54828450),
    # qualifier properties the contemporary constraint consults
    "date_of_birth": P(569),
    "date_of_death": P(570),
    "inception": P(571),
    "dissolved_date": P(576),
    "start_time": P(580),
    "end_time": P(582),
    "point_in_time": P(585),
    "number_of_children": P(40),
    "population": P(1082),
    "isbn_13": P(212),
}

# bare-name constants that are not entities
_VALUE_LABELS: dict[str, Value] = {
    "rank": Pseudo("rank"),
    "reference": Pseudo("reference"),
    "novalue": Pseudo("novalue"),
    "no_unit": Pseudo("no_unit"),
    "preferred": StringVal("preferred"),
    "normal": StringVal("normal"),
    "deprecated": StringVal("deprecated"),
}

LABELS_ENV_VAR = "MARSHAL_LABELS"


class LabelTable:
    """Resolves backtick/bare labels in formula text to constants."""

    def __init__(self, extra: Optional[dict[str, EntityId]] = None) -> None:
        self.entities = dict(_ENTITY_LABELS)
        if extra:
            self.entities.update(extra)

    def resolve(self, name: str) -> Optional[Value]:
        return self.entities.get(name) or _VALUE_LABELS.get(name)

    def resolve_entity(self, name: str) -> Optional[EntityId]:
        return self.entities.get(name)

    @staticmethod
    def from_environment() -> "LabelTable":
        """Builtin table, extended from the JSON object of label: entity id
        named by MARSHAL_LABELS; ModelError names the file, and the entry,
        that is malformed."""
        path = os.environ.get(LABELS_ENV_VAR)
        extra: dict[str, EntityId] = {}
        if path:
            where = f"{LABELS_ENV_VAR} file {path}"
            with open(path, encoding="utf-8") as fh:
                try:
                    table = json.load(fh)
                except ValueError as exc:  # a JSON syntax error, or bytes that are not UTF-8
                    raise ModelError(f"{where}: {exc}") from exc
            if not isinstance(table, dict):
                raise ModelError(f"{where}: expected a JSON object of label: entity id, "
                                 f"found {type(table).__name__}")
            for label, ident in table.items():
                if not isinstance(ident, str):
                    raise ModelError(f"{where}: label {label!r}: expected an entity id, "
                                     f"found {ident!r}")
                try:
                    extra[label] = EntityId.parse(ident)
                except ModelError as exc:
                    raise ModelError(f"{where}: label {label!r}: {exc}") from exc
        return LabelTable(extra)


DEFAULT_LABELS = LabelTable()

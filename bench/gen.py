"""Seeded input generators for the wdcheck benchmark.

Each generator returns a ``Workload``: the input text the program sees, how
to run it (input format, closure on or off), and the expected outcome worked
out here from the generator's own data, without calling wdcheck:

* ``expected``: violation count per template for a full-catalog ``check``;
* ``statements`` and ``skipped``: what ingest should report.

The same ``(seed, scale)`` always gives byte-identical text.  ``scale``
shrinks every population for the smoke test; the benchmark runs at 1.0.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

# Wikidata ids used by the generated inputs.
P31, P279, P361, P26, P3373 = "P31", "P279", "P361", "P26", "P3373"
P569, P570, P580, P585, P214, P17, P1082, P571, P793, P1327 = (
    "P569", "P570", "P580", "P585", "P214", "P17", "P1082", "P571", "P793", "P1327")
P2302, P2303, P2305, P2306, P2308, P2309, P2310, P2312, P2313, P2316 = (
    "P2302", "P2303", "P2305", "P2306", "P2308", "P2309", "P2310", "P2312", "P2313", "P2316")
P1793, P5314, P1545, P625, P1448 = "P1793", "P5314", "P1545", "P625", "P1448"
HUMAN = "Q5"
SYMMETRIC_PROPERTY, TRANSITIVE_PROPERTY = "Q18647518", "Q18647515"
MANDATORY = "Q21502408"
REL_INSTANCE_OF, AS_MAIN_VALUE = "Q21503252", "Q54828448"

CONSTRAINT_TYPES = {
    "single_value": "Q19474404",
    "multi_value": "Q21510857",
    "distinct_values": "Q21502410",
    "format": "Q21502404",
    "symmetric": "Q21510862",
    "inverse": "Q21510855",
    "item_requires_statement": "Q21503247",
    "value_requires_statement": "Q21510864",
    "conflicts_with": "Q21502838",
    "one_of": "Q21510859",
    "none_of": "Q52558054",
    "mandatory_qualifier": "Q21510856",
    "allowed_qualifiers": "Q21510851",
    "value_type": "Q21510865",
    "type": "Q21503250",
    "range": "Q21510860",
    "difference_within_range": "Q21510854",
    "integer": "Q52848401",
    "no_bounds": "Q51723761",
    "allowed_units": "Q21514353",
    "citation_needed": "Q54554025",
    "property_scope": "Q53869507",
    "contemporary": "Q25796498",
    "allowed_entity_types": "Q52004125",
    "commons_link": "Q21510852",
}

ID_REGEX = "[1-9][0-9]{6,7}"


@dataclass
class Workload:
    name: str
    fmt: str  # "native" or "json"
    close: bool  # run the builtin ontology closure before checking
    text: str
    expected: dict  # template name -> violation count
    statements: int  # statements ingest should load
    skipped: int = 0  # snaks ingest should skip as unsupported
    derived: dict = field(default_factory=dict)  # rule name -> derived facts

    @property
    def suffix(self) -> str:
        return ".json" if self.fmt == "json" else ".native"


def _entities(rng: random.Random, n: int, base: int, prefix: str = "Q") -> list:
    return [f"{prefix}{x}" for x in rng.sample(range(base, base + 20 * n), n)]


def _date(rng: random.Random, lo: int, hi: int) -> str:
    return f"{rng.randint(lo, hi):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _scaled(n: int, scale: float, least: int = 2) -> int:
    return max(least, int(round(n * scale)))


def _share(rng: random.Random, population, fraction: float) -> set:
    """A random subset holding exactly ``fraction`` of the population.

    Exact shares keep every seed's input the same size, so timings from
    different seeds are comparable.
    """
    population = sorted(population)
    return set(rng.sample(population, round(len(population) * fraction)))


# ---------------------------------------------------------------------------
# family: native text, persons, spouses, siblings, dates, identifiers
# ---------------------------------------------------------------------------


def family(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"family:{seed}")
    n = _scaled(800, scale, 60)
    n_marriages = n * 34 // 100
    n_sibling_pairs = n * 18 // 100
    k_contemporary = _scaled(60, scale)
    k_single = _scaled(40, scale)
    k_format = _scaled(40, scale)
    k_duplicate = _scaled(40, scale)

    persons = _entities(rng, n, 100000)
    lines = [
        f"{P31}({P26}, {SYMMETRIC_PROPERTY})",
        f"{P2302}({P26}, {CONSTRAINT_TYPES['symmetric']})",
        f"{P2302}({P3373}, {CONSTRAINT_TYPES['symmetric']})",
        f"{P2302}({P569}, {CONSTRAINT_TYPES['single_value']})",
        f"{P2302}({P26}, {CONSTRAINT_TYPES['contemporary']})",
        f"{P2302}({P26}, {CONSTRAINT_TYPES['mandatory_qualifier']}) "
        f"@ {{{P2306}: {P580}, {P2316}: {MANDATORY}}}",
        f"{P2302}({P214}, {CONSTRAINT_TYPES['distinct_values']})",
        f'{P2302}({P214}, {CONSTRAINT_TYPES["format"]}) @ {{{P1793}: "{ID_REGEX}"}}',
        # declarations on properties this KB never uses
        f'{P2302}(P213, {CONSTRAINT_TYPES["format"]}) @ {{{P1793}: "[0-9]{{15}}[0-9X]"}}',
        f"{P2302}(P227, {CONSTRAINT_TYPES['single_value']})",
        f"{P2302}(P1038, {CONSTRAINT_TYPES['distinct_values']})",
    ]
    expected: Counter = Counter()

    # Marriages: disjoint couples.  The first k_contemporary couples are
    # planted contemporary violations: one spouse is born after the other died.
    order = persons[:]
    rng.shuffle(order)
    couples = [(order[2 * i], order[2 * i + 1]) for i in range(n_marriages)]
    planted_late = {a for a, _ in couples[:k_contemporary]}
    planted_dead = {b for _, b in couples[:k_contemporary]}
    unmarried = order[2 * n_marriages:]

    # Identifiers: unique valid ids, some malformed, some duplicated.
    numbers = rng.sample(range(1_000_000, 99_999_999), n)
    ids = {p: str(num) for p, num in zip(persons, numbers)}
    id_order = persons[:]
    rng.shuffle(id_order)
    for p in id_order[:k_format]:
        ids[p] = "0" + ids[p][1:]  # leading zero: fails the format
    for i in range(k_duplicate):
        a = id_order[k_format + 2 * i]
        b = id_order[k_format + 2 * i + 1]
        ids[b] = ids[a]
    expected["format"] += k_format
    expected["distinct_values"] += k_duplicate

    # Dates.  Ordinary persons are born 1900-1950 and, if dead, died 1960-2020,
    # so ordinary spouses always coexisted.
    double_birth = set(rng.sample(unmarried, k_single))
    dead = _share(rng, set(persons) - planted_dead, 0.5)
    for p in persons:
        lines.append(f"{P31}({p}, {HUMAN})")
        if p in planted_dead:
            lines.append(f"{P569}({p}, {_date(rng, 1880, 1895)})")
            lines.append(f"{P570}({p}, {_date(rng, 1920, 1935)})")
        else:
            year = rng.randint(1951, 1955) if p in planted_late else rng.randint(1900, 1950)
            lines.append(f"{P569}({p}, {year:04d}-{rng.randint(1, 12):02d}-01)")
            if p in double_birth:
                lines.append(f"{P569}({p}, {year:04d}-{rng.randint(1, 12):02d}-15)")
            if p in dead:
                lines.append(f"{P570}({p}, {_date(rng, 1960, 2020)})")
        lines.append(f'{P214}({p}, "{ids[p]}")')
    expected["single_value"] += k_single
    expected["contemporary"] += 2 * k_contemporary  # one per variant

    # Spouse statements: ~30% one-sided, ~60% with a start time qualifier.
    started = _share(rng, couples, 0.6)
    one_sided = _share(rng, couples, 0.3)
    for a, b in couples:
        quals = f" @ {{{P580}: {_date(rng, 1920, 1990)}}}" if (a, b) in started else ""
        lines.append(f"{P26}({a}, {b}){quals}")
        if (a, b) not in one_sided:
            lines.append(f"{P26}({b}, {a}){quals}")
    # Closure mirrors every one-sided marriage, so P26 ends up symmetric and
    # each marriage lacking a start time is reported in both directions.
    expected["mandatory_qualifier"] += 2 * (len(couples) - len(started))

    # Siblings: disjoint pairs, ~20% one-sided, and P3373 is not declared a
    # symmetric property, so one-sided pairs stay violations.
    rng.shuffle(order)
    siblings = [(order[2 * i], order[2 * i + 1]) for i in range(n_sibling_pairs)]
    one_way = _share(rng, siblings, 0.2)
    for a, b in siblings:
        lines.append(f"{P3373}({a}, {b})")
        if (a, b) not in one_way:
            lines.append(f"{P3373}({b}, {a})")
    expected["symmetric"] += len(one_way)

    body = lines[:]
    rng.shuffle(body)
    text = "# family workload, seed %d\n" % seed + "\n".join(body) + "\n"
    return Workload("family", "native", True, text, _nonzero(expected), len(lines),
                    derived={"symmetric-property": len(one_sided)})


# ---------------------------------------------------------------------------
# constraint-dump: Wikibase JSON, many declarations, most on idle properties
# ---------------------------------------------------------------------------


def _snak(prop: str, value) -> dict:
    if isinstance(value, tuple):
        kind = value[0]
        if kind == "quantity":
            _, amount, lower, upper = value
            dv = {"amount": amount, "unit": "1"}
            if lower is not None:
                dv.update(lowerBound=lower, upperBound=upper)
            return {"snaktype": "value", "property": prop, "datatype": "quantity",
                    "datavalue": {"type": "quantity", "value": dv}}
        if kind == "time":
            return {"snaktype": "value", "property": prop, "datatype": "time",
                    "datavalue": {"type": "time", "value": {
                        "time": f"+{value[1]}T00:00:00Z", "precision": 11,
                        "timezone": 0, "before": 0, "after": 0,
                        "calendarmodel": "http://www.wikidata.org/entity/Q1985727"}}}
        if kind == "string":
            return {"snaktype": "value", "property": prop, "datatype": "string",
                    "datavalue": {"type": "string", "value": value[1]}}
        if kind == "coordinate":
            return {"snaktype": "value", "property": prop, "datatype": "globe-coordinate",
                    "datavalue": {"type": "globecoordinate", "value": {
                        "latitude": value[1], "longitude": value[2], "precision": 0.0001,
                        "globe": "http://www.wikidata.org/entity/Q2"}}}
        if kind == "monolingual":
            return {"snaktype": "value", "property": prop, "datatype": "monolingualtext",
                    "datavalue": {"type": "monolingualtext",
                                  "value": {"text": value[1], "language": "en"}}}
        raise ValueError(kind)
    entity_type = "property" if value.startswith("P") else "item"
    return {"snaktype": "value", "property": prop,
            "datatype": "wikibase-" + entity_type,
            "datavalue": {"type": "wikibase-entityid", "value": {
                "entity-type": entity_type, "numeric-id": int(value[1:]), "id": value}}}


class _Doc:
    """Accumulates the claims of one entity document."""

    def __init__(self, ident: str, label: str, kind: str) -> None:
        self.ident = ident
        self.doc = {"type": kind, "id": ident,
                    "labels": {"en": {"language": "en", "value": label}}, "claims": {}}
        self.seq = 0

    def claim(self, prop: str, value, quals=(), refs: int = 0) -> None:
        self.seq += 1
        claim = {"mainsnak": _snak(prop, value), "type": "statement",
                 "id": f"{self.ident}${self.seq:08X}", "rank": "normal"}
        if quals:
            grouped: dict = {}
            for qprop, qval in quals:
                grouped.setdefault(qprop, []).append(_snak(qprop, qval))
            claim["qualifiers"] = grouped
            claim["qualifiers-order"] = list(grouped)
        if refs:
            claim["references"] = [
                {"snaks": {"P854": [_snak("P854", ("string", f"https://example.org/{self.ident}/{i}"))]}}
                for i in range(refs)]
        self.doc["claims"].setdefault(prop, []).append(claim)


# Idle-property declaration types and their parameter qualifiers.  None of
# these can report a violation on a property that has no statements.
def _idle_params(kind: str, rng: random.Random, props: list, items: list) -> list:
    other = rng.choice(props)
    if kind in ("inverse", "conflicts_with", "mandatory_qualifier",
                "item_requires_statement", "value_requires_statement"):
        quals = [(P2306, other)]
        if kind == "item_requires_statement":
            quals.append((P2305, rng.choice(items)))
        return quals
    if kind == "allowed_qualifiers":
        return [(P2306, p) for p in rng.sample(props, 2)]
    if kind in ("one_of", "none_of", "allowed_entity_types", "allowed_units"):
        return [(P2305, x) for x in rng.sample(items, 3)]
    if kind in ("type", "value_type"):
        return [(P2308, rng.choice(items)), (P2309, REL_INSTANCE_OF)]
    if kind == "range":
        return [(P2312, ("quantity", "0", None, None)),
                (P2313, ("quantity", str(rng.randint(100, 10**6)), None, None))]
    if kind == "difference_within_range":
        return [(P2306, other), (P2312, ("quantity", "0", None, None))]
    if kind == "format":
        return [(P1793, ("string", "[A-Z]{2}[0-9]{%d}" % rng.randint(3, 9)))]
    if kind == "property_scope":
        return [(P5314, AS_MAIN_VALUE)]
    return []


IDLE_TYPES = (
    "single_value", "distinct_values", "format", "symmetric", "inverse",
    "item_requires_statement", "value_requires_statement", "conflicts_with",
    "one_of", "none_of", "mandatory_qualifier", "allowed_qualifiers", "type",
    "value_type", "range", "difference_within_range", "integer", "no_bounds",
    "allowed_units", "citation_needed", "contemporary", "allowed_entity_types",
    "commons_link", "multi_value", "property_scope",
)


def constraint_dump(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"constraint-dump:{seed}")
    n = _scaled(300, scale, 60)
    n_idle = 80
    k = _scaled(20, scale)  # planted violations per busy declaration
    n_partner_pairs = n // 10
    countries = _entities(rng, 20, 3000)
    classes = _entities(rng, 8, 9000)
    items = _entities(rng, n, 200000)
    idle_props = _entities(rng, n_idle, 5000, "P")
    allowed_countries = countries[:16]
    expected: Counter = Counter()
    statements = 0
    skipped = 0

    docs = {}
    for i, c in enumerate(countries):
        docs[c] = _Doc(c, f"country {i}", "item")
    for i, c in enumerate(classes):
        docs[c] = _Doc(c, f"class {i}", "item")
    # two subclass edges, so a closure would have something to derive
    for child in classes[1:3]:
        docs[child].claim(P279, classes[0])
        statements += 1

    roles = items[:]
    rng.shuffle(roles)

    def planted(offset: int) -> set:
        return set(roles[offset * k:(offset + 1) * k])

    non_integer, bounded, negative, two_pop = planted(0), planted(1), planted(2), planted(3)
    malformed, duplicated, early, bad_country = planted(4), planted(5), planted(6), planted(7)
    no_point, extra_qual, coords, mono = planted(8), planted(9), planted(10), planted(11)
    coords = set(sorted(coords)[:6])
    mono = set(sorted(mono)[:4])
    bad_qual = set(sorted(planted(12))[:2])
    exempt = sorted(malformed)[:2]

    numbers = rng.sample(range(1_000_000, 99_999_999), n)
    dup_sources = [x for x in roles[13 * k:] if x not in duplicated][:len(duplicated)]
    ids = {item: str(num) for item, num in zip(items, numbers)}
    for src, dst in zip(dup_sources, sorted(duplicated)):
        ids[dst] = ids[src]
    for item in malformed:
        ids[item] = ids[item] + "X"

    dated = early | _share(rng, set(items) - early, 0.7)
    events = no_point | extra_qual | _share(rng, set(items) - no_point - extra_qual, 0.5)
    unsourced = _share(rng, sorted(events), 0.4)
    for i, item in enumerate(items):
        d = docs[item] = _Doc(item, f"item {i}", "item")
        d.claim(P31, rng.choice(classes))
        country = rng.choice(countries[16:]) if item in bad_country else rng.choice(allowed_countries)
        d.claim(P17, country)
        amount = rng.randint(10, 10**7)
        if item in negative:
            amount = -amount
        text = f"{amount}.5" if item in non_integer else str(amount)
        if item in bounded:
            d.claim(P1082, ("quantity", text, str(amount - 5), str(amount + 5)))
        else:
            d.claim(P1082, ("quantity", text, None, None))
        if item in two_pop:
            d.claim(P1082, ("quantity", str(abs(amount) + 1), None, None))
        d.claim(P214, ("string", ids[item]))
        statements += 4 + (item in two_pop)
        if item in dated:
            year = rng.randint(1600, 1790) if item in early else rng.randint(1801, 2020)
            d.claim(P571, ("time", f"{year:04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"))
            statements += 1
        if item in events:
            quals = [(P17, rng.choice(allowed_countries))]
            if item not in no_point:
                quals.append((P585, ("time", f"{rng.randint(1801, 2020):04d}-01-01")))
            if item in extra_qual:
                quals.append((P1545, ("string", str(rng.randint(1, 9)))))
            refs = 0 if item in unsourced else rng.randint(1, 2)
            d.claim(P793, rng.choice(countries), quals, refs)
            statements += 1
            expected["mandatory_qualifier"] += item in no_point
            expected["allowed_qualifiers"] += item in extra_qual
            expected["citation_needed"] += refs == 0
        if item in coords:
            d.claim(P625, ("coordinate", rng.uniform(-80, 80), rng.uniform(-170, 170)))
        if item in mono:
            d.claim(P1448, ("monolingual", f"Official name {i}"))
        if item in bad_qual:
            d.claim(P793, rng.choice(countries), [(P1448, ("monolingual", "event"))])
    skipped += len(coords) + len(mono) + len(bad_qual)
    expected["integer"] += len(non_integer)
    expected["no_bounds"] += len(bounded)
    expected["range"] += len(negative)
    expected["single_value"] += len(two_pop)
    expected["format"] += len(malformed)
    expected["distinct_values"] += len(duplicated)
    expected["one_of"] += len(bad_country)
    expected["range"] += len(early)

    # partner: a symmetric item property, ~20% of pairs one-sided
    partners = [x for x in roles if x not in coords]
    rng.shuffle(partners)
    pairs = [(partners[2 * i], partners[2 * i + 1]) for i in range(n_partner_pairs)]
    one_way = _share(rng, pairs, 0.2)
    for a, b in pairs:
        docs[a].claim(P1327, b)
        if (a, b) not in one_way:
            docs[b].claim(P1327, a)
    statements += 2 * len(pairs) - len(one_way)
    expected["symmetric"] += len(one_way)

    # Property entities with their constraint declarations.
    busy = {
        P1082: [("integer", []), ("no_bounds", []),
                ("range", [(P2312, ("quantity", "0", None, None))]),
                ("single_value", [(P2316, MANDATORY)])],
        P214: [("format", [(P1793, ("string", ID_REGEX))] + [(P2303, x) for x in exempt]),
               ("distinct_values", [])],
        P571: [("range", [(P2310, ("time", "1800-01-01"))])],
        P17: [("one_of", [(P2305, c) for c in allowed_countries])],
        P1327: [("symmetric", [])],
        P793: [("mandatory_qualifier", [(P2306, P585)]),
               ("allowed_qualifiers", [(P2306, P585), (P2306, P17)]),
               ("citation_needed", [])],
    }
    for i, (prop, decls) in enumerate(sorted(busy.items())):
        d = docs[prop] = _Doc(prop, f"busy property {i}", "property")
        for kind, quals in decls:
            d.claim(P2302, CONSTRAINT_TYPES[kind], quals)
            statements += 1
    # Every seed declares the same mix of types, dealt to different properties.
    kinds = [IDLE_TYPES[j % len(IDLE_TYPES)] for j in range(n_idle * 9 // 8)]
    rng.shuffle(kinds)
    for i, prop in enumerate(idle_props):
        d = docs[prop] = _Doc(prop, f"idle property {i}", "property")
        for kind in kinds[i::n_idle]:
            d.claim(P2302, CONSTRAINT_TYPES[kind],
                    _idle_params(kind, rng, idle_props, items + classes))
            statements += 1

    order = list(docs)
    rng.shuffle(order)
    text = json.dumps({"entities": {ident: docs[ident].doc for ident in order}},
                      indent=1, sort_keys=True) + "\n"
    return Workload("constraint-dump", "json", False, text, _nonzero(expected),
                    statements, skipped)


# ---------------------------------------------------------------------------
# taxonomy: native text, class forest, instances, transitive part-of chains
# ---------------------------------------------------------------------------


def _reach(graph: dict) -> dict:
    """Transitive (not reflexive) successors of every node."""
    out = {}
    for start in graph:
        seen: set = set()
        stack = list(graph[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(graph.get(node, ()))
        out[start] = seen
    return out


def taxonomy(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"taxonomy:{seed}")
    depth = _scaled(26, scale, 4)
    n_forest = _scaled(56, scale, 6)
    n_instances = _scaled(90, scale, 8)
    n_chains, chain_len = _scaled(6, scale), _scaled(14, scale, 3)
    n_loops = 3
    n_exclusive = _scaled(5, scale)

    spine = _entities(rng, depth + 1, 400000)
    forest = _entities(rng, n_forest, 600000)
    instances = _entities(rng, n_instances, 800000)
    loops = [_entities(rng, 2 + i % 2, 900000 + 1000 * i) for i in range(n_loops)]
    exclusive = _entities(rng, n_exclusive, 950000)
    parts = [_entities(rng, chain_len, 1000000 + 10000 * i) for i in range(n_chains)]

    # The depth of every class and instance is fixed by its index, so every
    # seed derives the same number of facts; the seed picks which class of
    # the right depth becomes the parent, and so the shape of the tree.
    subclass: dict = {}  # class -> direct superclasses
    at_depth = {d: [c] for d, c in enumerate(spine)}
    for lower, upper in zip(spine[1:], spine):
        subclass[lower] = {upper}
    for i, c in enumerate(forest):
        d = 1 + (i * 17) % depth
        subclass[c] = {rng.choice(at_depth[d - 1])}
        if i % 10 == 9:
            subclass[c].add(spine[0])  # a redundant edge to the root
        at_depth[d].append(c)
    for i, cycle in enumerate(loops):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            subclass[a] = {b}
        subclass[cycle[0]].add(spine[(i + 1) * depth // (n_loops + 1)])
    instance_of: dict = {}
    for j, x in enumerate(instances):
        if j < n_loops:
            instance_of[x] = {loops[j][-1]}
        else:
            instance_of[x] = {rng.choice(at_depth[1 + (j * 11) % depth])}
    for j, x in enumerate(exclusive):  # planted: both an instance and a subclass of c
        c = rng.choice(at_depth[2 + (j * 7) % (depth - 1)])
        instance_of[x] = {c}
        subclass[x] = {c}
    part_of = {a: {b} for chain in parts for a, b in zip(chain, chain[1:])}

    lines = [f"{P31}({P361}, {TRANSITIVE_PROPERTY})",
             f'{P2302}(P213, {CONSTRAINT_TYPES["format"]}) @ {{{P1793}: "[0-9]{{15}}[0-9X]"}}',
             f"{P2302}(P227, {CONSTRAINT_TYPES['single_value']})",
             f"{P2302}(P1038, {CONSTRAINT_TYPES['symmetric']})"]
    for rel, edges in ((P279, subclass), (P31, instance_of), (P361, part_of)):
        for a in edges:
            for b in sorted(edges[a]):
                lines.append(f"{rel}({a}, {b})")

    # Expected closure and violations, from plain reachability.
    up = _reach(subclass)
    asserted_subclass = sum(len(v) for v in subclass.values())
    derived_subclass = sum(len(v) for v in up.values()) - asserted_subclass
    types = {x: set(cs).union(*(up.get(c, set()) for c in cs)) for x, cs in instance_of.items()}
    derived_instance = sum(len(types[x]) - len(instance_of[x]) for x in instance_of)
    whole = _reach(part_of)
    derived_part = sum(len(v) for v in whole.values()) - len(part_of)
    expected = Counter()
    expected["subclass_loop"] = sum(
        1 for a in up for b in up[a] if a < b and a in up.get(b, ()))
    expected["instance_subclass_exclusivity"] = sum(
        len(types[x] & up.get(x, set())) for x in types)

    body = lines[:]
    rng.shuffle(body)
    text = "# taxonomy workload, seed %d\n" % seed + "\n".join(body) + "\n"
    return Workload("taxonomy", "native", True, text, _nonzero(expected), len(lines),
                    derived={"subclass-transitivity": derived_subclass,
                             "instance-propagation": derived_instance,
                             "transitive-property": derived_part})


def _nonzero(counts: Counter) -> dict:
    return {name: c for name, c in sorted(counts.items()) if c}


GENERATORS = {"family": family, "constraint-dump": constraint_dump, "taxonomy": taxonomy}

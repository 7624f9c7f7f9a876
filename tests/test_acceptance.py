"""Acceptance criteria for the constraint engine, one test per criterion.

Each test states its tolerance and runtime budget inline.  Expected values
are either computed by independent oracles coded in this file or frozen from
hand-checked fixtures.
"""

import json
import pathlib
import random
import time
from datetime import datetime, timedelta

import pytest

from conftest import kb_from
from oracle import brute_force_evaluate
from wdcheck.catalog import (
    check,
    extract_declarations,
    instantiate,
    validate_catalog,
)
from wdcheck.cli import main
from wdcheck.evaluator import evaluate
from wdcheck.formula import (
    negate_to_violation_query,
    parse,
    print_formula,
)
from wdcheck.ingest import export_native, load_native, load_wikidata_json
from wdcheck.rules import builtin_ontology, closure
from wdcheck.templates import builtin_templates, template_by_name

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def select(*names):
    return [t for t in builtin_templates() if t.name in names]


# ---------------------------------------------------------------------------
# Criterion 1: catalog completeness and self-test, < 5 s
# ---------------------------------------------------------------------------


def test_criterion_1_catalog_completeness(capsys):
    start = time.monotonic()
    templates = builtin_templates()
    assert len(templates) >= 36
    assert validate_catalog() == []
    code, out, err = run_cli(capsys, "catalog", "--self-test")
    assert code == 0
    assert "symmetric constraint (Q21510862)" in out
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# Criterion 2: evaluate == brute_force_evaluate on 500 random KBs, < 2 min
# ---------------------------------------------------------------------------

# Each recipe is (declaration lines, statement pool).  Statement subjects and
# values stay within Q1..Q4 / P1..P3 so the active domain keeps at most 12
# constants; declaration vocabulary reuses entities where it can.
_RECIPES = [
    (["P2302(P1, Q19474404)"],
     ["P1(Q1, Q2)", "P1(Q1, Q3)", "P1(Q1, Q2) @ {P2: Q3}", "P1(Q2, Q2)",
      "P1(Q1, Q2) rank=preferred"]),
    (["P2302(P1, Q19474404) @ {P2303: Q1}"],
     ["P1(Q1, Q2)", "P1(Q1, Q3)", "P1(Q2, Q3)"]),
    (["P2302(P1, Q21510857)"],
     ["P1(Q1, Q2)", "P1(Q1, Q3)", "P1(Q2, Q2)"]),
    (["P2302(P1, Q21510857) @ {P90011: 2}"],
     ["P1(Q1, Q2)", "P1(Q1, Q3)", "P1(Q2, Q2)"]),
    (["P2302(P1, Q21502410)"],
     ['P1(Q1, "a")', 'P1(Q2, "a")', 'P1(Q2, "b")', 'P1(Q1, "a")']),
    (['P2302(P1, Q21502404) @ {P1793: "[ab]+"}'],
     ['P1(Q1, "ab")', 'P1(Q1, "c")', "P1(Q2, Q1)"]),
    (["P2302(P1, Q21510862)"],
     ["P1(Q1, Q2)", "P1(Q2, Q1)", "P1(Q1, Q3)", "P1(Q3, Q3)"]),
    (["P2302(P1, Q21510855) @ {P2306: P2}"],
     ["P1(Q1, Q2)", "P2(Q2, Q1)", "P2(Q1, Q2)"]),
    (["P2302(P1, Q21503247) @ {P2306: P2}"],
     ["P1(Q1, Q2)", "P2(Q1, Q3)", "P2(Q1, Q1)"]),
    (["P2302(P1, Q21503247) @ {P2306: P2, P2305: Q3}"],
     ["P1(Q1, Q2)", "P2(Q1, Q3)", "P2(Q1, Q1)"]),
    (["P2302(P1, Q21510864) @ {P2306: P2}"],
     ["P1(Q1, Q2)", "P2(Q2, Q3)", "P2(Q1, Q1)"]),
    (["P2302(P1, Q21510864) @ {P2306: P2, P2305: Q3}"],
     ["P1(Q1, Q2)", "P2(Q2, Q3)", "P2(Q2, Q1)"]),
    (["P2302(P1, Q21502838) @ {P2306: P2}"],
     ["P1(Q1, Q2)", "P2(Q1, Q3)"]),
    (["P2302(P1, Q21502838) @ {P2306: P2, P2305: Q3}"],
     ["P1(Q1, Q2)", "P2(Q1, Q3)", "P2(Q1, Q2)"]),
    (["P2302(P1, Q21510859) @ {P2305: Q2}"],
     ["P1(Q1, Q2)", "P1(Q1, Q3)"]),
    (["P2302(P1, Q52558054) @ {P2305: Q2}"],
     ["P1(Q1, Q2)", "P1(Q1, Q3)"]),
    (["P2302(P1, Q21510856) @ {P2306: P2}"],
     ["P1(Q1, Q2) @ {P2: Q3}", "P1(Q1, Q3)", "P1(Q2, Q2)"]),
    (["P2302(P1, Q21510851) @ {P2306: P2}"],
     ["P1(Q1, Q2) @ {P2: Q3}", "P1(Q1, Q2) @ {P3: Q3}", "P1(Q1, Q2)"]),
    (["P2302(P1, Q21514353) @ {P2305: Q2}"],
     ["P1(Q1, 5 unit=Q2)", "P1(Q1, 5)", "P1(Q1, Q3)"]),
    (["P2302(P1, Q54554025)"],
     ["P1(Q1, Q2) refs=1", "P1(Q1, Q3)", "P1(Q2, Q2) refs=2"]),
    (["P2302(P31, Q21503250) @ {P2309: Q21503252, P2308: Q2}"],
     ["P31(Q1, Q2)", "P31(Q1, Q3)", "P279(Q1, Q2)"]),
    (["P2302(P31, Q21503250) @ {P2309: Q21514624, P2308: Q2}"],
     ["P31(Q1, Q2)", "P279(Q1, Q2)", "P31(Q3, Q3)"]),
    (["P2302(P31, Q21510865) @ {P2309: Q21503252, P2308: Q2}"],
     ["P31(Q1, Q3)", "P31(Q3, Q2)", "P31(Q1, Q2)"]),
    (["P2302(P31, Q21510865) @ {P2309: Q30208840, P2308: Q2}"],
     ["P31(Q1, Q3)", "P279(Q3, Q2)", "P31(Q3, Q2)"]),
    (["P2302(P1, Q21510860) @ {P2312: 1, P2313: 3}"],
     ["P1(Q1, 2)", "P1(Q1, 5)", 'P1(Q1, "x")', "P1(Q1, 2020-01-01)"]),
    (["P2302(P1, Q21510854) @ {P2306: P2, P2312: 0}"],
     ["P1(Q1, 0)", "P2(Q1, 0)", "P2(Q1, 1)"]),
    (["P2302(P1, Q52848401)"],
     ["P1(Q1, 2)", "P1(Q1, 2.5)", 'P1(Q1, "x")']),
    (["P2302(P1, Q51723761)"],
     ["P1(Q1, 2)", "P1(Q1, 2[1,3])"]),
    (["P2302(P1, Q52060874)"],
     ["P1(Q1, Q2) rank=preferred", "P1(Q1, Q3) rank=preferred", "P1(Q1, Q2)"]),
    (["P2302(P1, Q53869507) @ {P5314: Q54828448}"],
     ["P1(Q1, Q2)", "P2(Q1, Q3) @ {P1: Q2}"]),
    (["P2302(P26, Q25796498)"],
     ["P26(Q1, Q2)", "P569(Q1, 1850-01-01)", "P570(Q1, 1900-01-01)",
      "P569(Q2, 1950-01-01)"]),
    (["P2302(P1, Q52004125) @ {P2305: Q2}"],
     ["P1(Q1, Q3)", "P31(Q1, Q2)"]),
    (['P2302(P1, Q21510852) @ {P2307: "Category"}'],
     ['P1(Q1, "Page")', 'commons_ns("Page", "Category")',
      'commons_ns("Page", "Gallery")']),
    (["P2302(P31, Q90020) @ {P90001: Q2, P2309: Q21503252, P2308: Q3}"],
     ["P31(Q1, Q2)", "P31(Q1, Q4)", "P31(Q4, Q3)"]),
    (["P2302(P1, Q90021) @ {P90001: Q2}"],
     ["P31(Q1, Q2)", "P1(Q1, Q3)"]),
    ([],
     ["P31(P1, Q18647519)", "P1(Q1, Q2)", "P1(Q2, Q1)"]),
    ([],
     ["P2737(Q1, Q23766486) @ {P642: Q2, P642: Q3}", "P31(Q4, Q1)", "P31(Q4, Q2)"]),
    ([],
     ["P2738(Q1, Q23766486) @ {P642: Q2, P642: Q3}", "P31(Q4, Q1)",
      "P31(Q4, Q2)", "P31(Q4, Q3)"]),
    ([],
     ["P90002(Q1, Q2)", "P31(Q3, Q1)", "P31(Q3, Q2)"]),
    ([],
     ["no_value(P1, Q1)", "no_value(P1, Q2) @ {P2: Q3}", "P1(Q1, Q2)",
      "P1(Q2, Q3) @ {P2: Q3}"]),
    ([],
     ["P2445(Q1, Q2)", "P31(Q3, Q1)", "P279(Q3, Q4)", "P31(Q4, Q2)"]),
    ([],
     ["P31(Q1, Q2)", "P279(Q1, Q2)", "P279(Q2, Q1)", "P279(Q2, Q3)"]),
]


# queries with four or five free variables have far larger brute-force
# products than the rest; draw their recipes less often to keep the run
# inside the time budget while still exercising each of them
_COSTLY = ("Q21510854", "Q21510851", "Q53869507")


def _recipe_weight(decl_lines):
    if any(m in line for line in decl_lines for m in _COSTLY):
        return 1
    return 4


_WEIGHTS = [_recipe_weight(decl) for decl, _ in _RECIPES]


def _random_kb(rng):
    decl_lines, pool = rng.choices(_RECIPES, weights=_WEIGHTS)[0]
    stmts = [rng.choice(pool) for _ in range(rng.randint(1, min(3, len(pool))))]
    kb = kb_from("\n".join(decl_lines + stmts))
    while len(kb.active_domain()) > 12 and stmts:
        stmts.pop()
        kb = kb_from("\n".join(decl_lines + stmts))
    assert len(kb.active_domain()) <= 12
    return kb


def _instantiable_queries(kb):
    return [inst for inst in instantiate(kb, builtin_templates()) if inst.query is not None]


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20200613)
    # the oracle bound is raised above 12 because a query's own constants
    # (template vocabulary) extend the evaluation domain beyond the KB's
    kbs = 0
    checked = 0
    while kbs < 500:
        kb = _random_kb(rng)
        kbs += 1
        for inst in _instantiable_queries(kb):
            # the evaluator and the oracle read the one query object that
            # check runs, with the declaration's ?p and ?CQ bound as params
            expected = set(brute_force_evaluate(kb, inst.query, params=inst.params,
                                                domain_limit=24))
            got = set(evaluate(kb, inst.query, params=inst.params))
            assert got == expected, (print_formula(inst.query), inst.params)
            checked += 1
    assert kbs >= 500 and checked >= 500
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# Criterion 3: 10,000 spouse statements, 380 missing inverses, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_3_symmetric_at_scale(capsys, tmp_path):
    start = time.monotonic()
    rng = random.Random(380)
    missing = set(rng.sample(range(10_000), 380))
    lines = ["P2302(P26, Q21510862)", "P31(P26, Q18647518)"]
    for i in range(10_000):
        lines.append(f"P26(Q{i + 1}, Q{20_000 + i + 1})")
        if i not in missing:
            lines.append(f"P26(Q{20_000 + i + 1}, Q{i + 1})")
    path = tmp_path / "spouses.native"
    path.write_text("\n".join(lines) + "\n")

    code, out, _ = run_cli(capsys, "check", "--input", str(path), "--no-close",
                           "--templates", "symmetric", "--format", "json")
    assert code == 1
    assert json.loads(out)["summary"]["total"] == 380

    code, out, _ = run_cli(capsys, "check", "--input", str(path), "--close",
                           "--templates", "symmetric", "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 0
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# Criterion 4: mandatory qualifier (P1082/P585), frozen negative formulation
# ---------------------------------------------------------------------------

_MANDATORY_QUALIFIER_QUERY = (
    "P2302(?p, Q21510856)@?CQ & (P2306 : ?q) in ?CQ & "
    "?p(?s, ?o)@?SQ & !(exists ?v . (?q : ?v) in ?SQ)"
)


def test_criterion_4_mandatory_qualifier():
    tpl = template_by_name("mandatory_qualifier")
    query = negate_to_violation_query(parse(tpl.variants[0].text))
    assert print_formula(query) == _MANDATORY_QUALIFIER_QUERY

    kb = kb_from(
        "P2302(P1082, Q21510856) @ {P2306: P585}\n"
        "P1082(Q1, 39000) @ {P585: 2020-01-01}\n"
        "P1082(Q2, 12000)\n"
        "P1082(Q3, 8000) @ {P459: Q4}\n"
    )
    result = check(kb, select("mandatory_qualifier"))
    assert sorted(v.binding["s"] for v in result.unsuppressed) == ["Q2", "Q3"]


# ---------------------------------------------------------------------------
# Criterion 5: distinct values (P212)
# ---------------------------------------------------------------------------


def test_criterion_5_distinct_values():
    shared = kb_from(
        "P2302(P212, Q21502410)\n"
        'P212(Q1, "978-3-16-148410-0")\n'
        'P212(Q2, "978-3-16-148410-0")\n'
        'P212(Q3, "978-0-12-345678-9")\n'
    )
    result = check(shared, select("distinct_values"))
    assert len(result.unsuppressed) == 1  # one order-normalized pair
    binding = result.unsuppressed[0].binding
    assert {binding["s1"], binding["s2"]} == {"Q1", "Q2"}

    unique = kb_from(
        "P2302(P212, Q21502410)\n"
        'P212(Q1, "978-3-16-148410-0")\n'
        'P212(Q2, "978-0-12-345678-9")\n'
    )
    assert check(unique, select("distinct_values")).unsuppressed == []


# ---------------------------------------------------------------------------
# Criterion 6: value-type relation variants and closure-before-check
# ---------------------------------------------------------------------------

_VALUE_TYPE_FACTS = (
    "P1(Q1, Q20)\nP31(Q20, Q10)\n"   # value is an instance of the class
    "P1(Q2, Q21)\nP279(Q21, Q10)\n"  # value is a subclass of the class
)

_VT_DECL = "P2302(P1, Q21510865) @ {{P2309: {rel}, P2308: Q10}}\n"


@pytest.mark.parametrize("rel,flagged", [
    ("Q21503252", ["Q2"]),         # instance_of: the subclass value is flagged
    ("Q21514624", ["Q1"]),         # subclass_of: the instance value is flagged
    ("Q30208840", []),             # instance_or_subclass_of accepts both
])
def test_criterion_6_value_type_relations(rel, flagged):
    kb = kb_from(_VT_DECL.format(rel=rel) + _VALUE_TYPE_FACTS)
    result = check(kb, select("value_type"))
    assert sorted(v.binding["s"] for v in result.unsuppressed) == flagged


def test_criterion_6_closure_before_check():
    kb = kb_from(
        "P2302(P1, Q21510865) @ {P2309: Q21503252, P2308: Q10}\n"
        "P1(Q1, Q30)\n"
        "P31(Q30, Q31)\n"
        "P279(Q31, Q32)\nP279(Q32, Q33)\nP279(Q33, Q10)\n"  # 3-deep chain
    )
    without = check(kb, select("value_type"))
    assert [v.binding["s"] for v in without.unsuppressed] == ["Q1"]
    closed = closure(kb, builtin_ontology()).kb
    assert check(closed, select("value_type")).unsuppressed == []


# ---------------------------------------------------------------------------
# Criterion 7: contemporary constraint vs an independent interval oracle
# ---------------------------------------------------------------------------

# Each person is (births, deaths); each date is (iso "Y-M-D", precision).
_CONTEMPORARY_FIXTURES = [
    ("disjoint", ([("1850-01-01", 11)], [("1900-01-01", 11)]),
     ([("1950-01-01", 11)], [("2000-01-01", 11)])),
    ("touching-day", ([("1870-01-01", 11)], [("1950-06-01", 11)]),
     ([("1950-06-01", 11)], [("2000-01-01", 11)])),
    ("nested", ([("1940-01-01", 11)], [("1990-01-01", 11)]),
     ([("1950-01-01", 11)], [("1960-01-01", 11)])),
    ("missing-start-subject", ([], [("1900-01-01", 11)]),
     ([("1950-01-01", 11)], [("2000-01-01", 11)])),
    ("missing-end-object", ([("1850-01-01", 11)], [("1900-01-01", 11)]),
     ([("1950-01-01", 11)], [])),
    ("missing-both-ends", ([("1850-01-01", 11)], []),
     ([("1950-01-01", 11)], [])),
    ("year-vs-day-overlap", ([("1900-01-01", 11)], [("1950-01-01", 9)]),
     ([("1950-03-04", 11)], [("2000-01-01", 11)])),
    ("year-vs-day-disjoint", ([("1900-01-01", 11)], [("1949-01-01", 9)]),
     ([("1950-03-04", 11)], [("2000-01-01", 11)])),
    ("plain-overlap", ([("1900-01-01", 11)], [("1980-01-01", 11)]),
     ([("1940-01-01", 11)], [("2000-01-01", 11)])),
    ("reversed-disjoint", ([("1950-01-01", 11)], [("2000-01-01", 11)]),
     ([("1850-01-01", 11)], [("1900-01-01", 11)])),
    ("multiple-witnesses", ([("1850-01-01", 11), ("1895-01-01", 11)],
                            [("1960-01-01", 11)]),
     ([("1880-01-01", 11)], [("1890-01-01", 11), ("1990-01-01", 11)])),
    ("year-precision-both", ([("1900-01-01", 9)], [("1950-01-01", 9)]),
     ([("1950-01-01", 9)], [("1990-01-01", 9)])),
]


def _oracle_interval(iso, precision):
    ts = datetime.strptime(iso, "%Y-%m-%d")
    if precision == 9:
        return datetime(ts.year, 1, 1), datetime(ts.year, 12, 31, 23, 59, 59)
    assert precision == 11
    return ts, ts + timedelta(days=1) - timedelta(seconds=1)


def _oracle_direction(starts, ends):
    """Independent recoding: some start precedes or overlaps some end."""
    if not starts or not ends:
        return True
    for b in starts:
        for e in ends:
            b_lo, b_hi = _oracle_interval(*b)
            e_lo, e_hi = _oracle_interval(*e)
            strictly_before = datetime.strptime(b[0], "%Y-%m-%d") \
                < datetime.strptime(e[0], "%Y-%m-%d")
            overlap = b_lo <= e_hi and e_lo <= b_hi
            if strictly_before or overlap:
                return True
    return False


def _contemporary_kb(subject, obj):
    lines = ["P2302(P26, Q25796498)", "P26(Q1, Q2)"]
    for qid, (births, deaths) in (("Q1", subject), ("Q2", obj)):
        for iso, prec in births:
            lines.append(f"P569({qid}, {iso}/{prec})")
        for iso, prec in deaths:
            lines.append(f"P570({qid}, {iso}/{prec})")
    return kb_from("\n".join(lines))


def test_criterion_7_contemporary_oracle():
    verdicts = []
    for name, subject, obj in _CONTEMPORARY_FIXTURES:
        kb = _contemporary_kb(subject, obj)
        engine_ok = not check(kb, select("contemporary")).unsuppressed
        oracle_ok = (_oracle_direction(subject[0], obj[1])
                     and _oracle_direction(obj[0], subject[1]))
        assert engine_ok == oracle_ok, name
        verdicts.append(oracle_ok)
    assert len(verdicts) == 12
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# Criterion 8: the two no-value readings are distinguishable
# ---------------------------------------------------------------------------


def test_criterion_8_no_value_interpretations():
    kb = kb_from(
        "no_value(P40, Q1) @ {P585: 2020-01-01}\n"
        "P40(Q1, 3)\n"
    )
    result = check(kb, select("no_value_statement", "no_value_same_qualifiers"))
    flagged = {v.template for v in result.unsuppressed}
    assert flagged == {"no_value_statement"}

    # with matching qualifier sets both readings flag the statement
    same = kb_from(
        "no_value(P40, Q1) @ {P585: 2020-01-01}\n"
        "P40(Q1, 3) @ {P585: 2020-01-01}\n"
    )
    result = check(same, select("no_value_statement", "no_value_same_qualifiers"))
    assert {v.template for v in result.unsuppressed} == \
        {"no_value_statement", "no_value_same_qualifiers"}


# ---------------------------------------------------------------------------
# Criterion 9: instance/subclass exclusivity and subclass loops
# ---------------------------------------------------------------------------


def test_criterion_9_hierarchy_conflicts():
    kb = kb_from(
        "P31(Q1, Q2)\nP279(Q1, Q2)\n"   # instance and subclass of the same item
        "P279(Q3, Q4)\nP279(Q4, Q3)\n"  # a 2-cycle
    )
    result = check(kb, select("instance_subclass_exclusivity", "subclass_loop"))
    by_template = {}
    for v in result.unsuppressed:
        by_template.setdefault(v.template, []).append(v.binding)
    assert by_template["instance_subclass_exclusivity"] == [{"i1": "Q1", "i2": "Q2"}]
    assert len(by_template["subclass_loop"]) == 1
    assert set(by_template["subclass_loop"][0].values()) == {"Q3", "Q4"}

    acyclic = kb_from("P31(Q1, Q2)\nP279(Q2, Q3)\nP279(Q3, Q4)")
    assert check(acyclic,
                 select("instance_subclass_exclusivity", "subclass_loop")).violations == []


# ---------------------------------------------------------------------------
# Criterion 10: round trips
# ---------------------------------------------------------------------------


def test_criterion_10_formula_round_trip_on_catalog():
    for tpl in builtin_templates():
        for var in tpl.variants:
            f = parse(var.text)
            printed = print_formula(f)
            assert parse(printed) == f, f"{tpl.name}/{var.name}"
            assert print_formula(parse(printed)) == printed


def test_criterion_10_native_round_trip():
    text = (
        "P26(Q1, Q2) @ {P580: 1988-06-12} rank=preferred refs=2\n"
        'P212(Q1, "978-3-16-148410-0")\n'
        "P1082(Q1, 39000[38000,40000] unit=Q11573)\n"
        "P569(Q1, 1952-03-11T10:30:00/14)\n"
        "P569(Q2, somevalue)\n"
        "P6(Q1, P31)\n"
        "no_value(P40, Q1) @ {P585: 2020-01-01} rank=preferred\n"
        'commons_ns("Douglas Adams", "Category")\n'
    )
    kb, stats = load_native(text)
    exported = export_native(kb)
    kb2, _ = load_native(exported)
    assert export_native(kb2) == exported
    keys = lambda k: sorted(map(str, (st.content_key() for st in k.statements.values())))
    assert keys(kb2) == keys(kb)
    rows = lambda k: [st for st in k.facts() if not st.id]
    assert rows(kb2) == rows(kb) and len(rows(kb)) == 2


# ---------------------------------------------------------------------------
# Criterion 11: 100-entity Wikidata JSON slice
# ---------------------------------------------------------------------------


def test_criterion_11_ingest_sanity():
    text = (FIXTURES / "wikidata_slice.json").read_text()
    kb, stats = load_wikidata_json(text)  # must not raise
    assert stats.statements > 100
    # only deliberately unsupported datatypes may be skipped
    assert {reason for reason, _ in stats.skipped} <= {"mainsnak"}
    declarations = extract_declarations(kb)
    # every P2302 statement in the input is recovered, counted independently
    # by a text scan over the raw JSON
    assert len(declarations) == text.count('"property": "P2302"')
    assert len(declarations) >= 8

"""Declaration extraction, query derivation and violation reporting."""

import json

import pytest

from conftest import kb_from
from wdcheck import catalog, evaluator
from wdcheck.catalog import (
    check,
    derive_violation_queries,
    extract_declarations,
    instantiate,
    render_json,
    render_text,
    validate_catalog,
)
from wdcheck.evaluator import check_safe_range, evaluate
from wdcheck.formula import all_constants, free_variables, print_formula
from wdcheck.labels import LabelTable
from wdcheck.model import P, PropRef, Q
from wdcheck.templates import builtin_templates, template_by_name


def violations(kb, names=None, **kwargs):
    templates = None
    if names:
        templates = [t for t in builtin_templates() if t.name in names]
    return check(kb, templates, **kwargs)


class TestDeclarations:
    def test_extraction(self):
        kb = kb_from(
            "P2302(P26, Q21510862)\n"
            "P2302(P1082, Q21510856) @ {P2306: P585, P2316: Q21502408}\n"
        )
        decls = extract_declarations(kb)
        assert len(decls) == 2
        by_prop = {d.property: d for d in decls}
        assert by_prop[P(26)].type_item == Q(21510862)
        assert by_prop[P(26)].severity == "regular"
        assert by_prop[P(1082)].severity == "mandatory"

    def test_exceptions_decoded(self):
        kb = kb_from("P2302(P26, Q19474404) @ {P2303: Q42, P2303: Q43}")
        (decl,) = extract_declarations(kb)
        assert set(decl.exceptions) == {Q(42), Q(43)}

    def test_non_property_subject_ignored(self):
        kb = kb_from("P2302(Q5, Q21510862)")
        assert extract_declarations(kb) == []


class TestQueryDerivation:
    def test_parametrized_query_is_closed_over_p_and_cq(self):
        kb = kb_from("P2302(P1082, Q21510856) @ {P2306: P585}")
        (decl,) = extract_declarations(kb)
        tpl = template_by_name("mandatory_qualifier")
        (var, query), = derive_violation_queries(tpl, decl)
        assert "p" not in free_variables(query)
        assert "CQ" not in free_variables(query)
        assert check_safe_range(query) is None

    def test_variant_applicability(self):
        tpl = template_by_name("multi_value")
        kb = kb_from(
            "P2302(P26, Q21510857)\n"
            "P2302(P40, Q21510857) @ {P90011: 3}\n"
        )
        decls = {d.property: d for d in extract_declarations(kb)}
        plain = derive_violation_queries(tpl, decls[P(26)])
        counted = derive_violation_queries(tpl, decls[P(40)])
        assert [v.name for v, _ in plain] == ["plain"]
        assert [v.name for v, _ in counted] == ["minimum_count"]
        # the <K> placeholder is replaced by the declared minimum
        assert "exists[3]" in print_formula(counted[0][1]) or \
            any(getattr(g, "min", None) == 3 for g in _walk(counted[0][1]))

    def test_global_template_needs_no_declaration(self):
        tpl = template_by_name("subclass_loop")
        queries = derive_violation_queries(tpl, None)
        assert len(queries) == 1

    def test_parse_cache_follows_the_label_table(self):
        # fresh tables are freed and allocated in turn, so a cache keyed on
        # the table's address would hand one table's parse to the other
        (decl,) = extract_declarations(kb_from("P2302(P26, Q21510862)"))
        tpl = template_by_name("symmetric")
        for i in range(200):
            remapped = i % 2 == 1
            table = LabelTable({"property_constraint": P(9999)} if remapped else None)
            (_, query), = derive_violation_queries(tpl, decl, table)
            pred = P(9999) if remapped else P(2302)
            assert PropRef(pred) in all_constants(query), i


class TestVariantPlans:
    """Each variant text is built once; its declarations bind ?p and ?CQ."""

    def test_each_variant_text_parsed_negated_and_gated_once(self, monkeypatch):
        kb = kb_from("P2302(P26, Q21510862)\nP2302(P40, Q21510862)\n"
                     "P2302(P3373, Q21510862)\nP26(Q1, Q2)\nP40(Q3, Q4)\n")
        calls = {"parse": 0, "negate": 0, "gate": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def report(problems, what, loose):
            calls["gate"] += what == "free variable(s)"  # once per gate run
            real_report(problems, what, loose)

        real_report = evaluator._report
        monkeypatch.setattr(catalog, "parse", counting("parse", catalog.parse))
        monkeypatch.setattr(catalog, "negate_to_violation_query",
                            counting("negate", catalog.negate_to_violation_query))
        monkeypatch.setattr(evaluator, "_report", report)
        tpl = template_by_name("symmetric")
        texts = {var.text for var in tpl.variants if var.enabled}
        result = check(kb, [tpl], LabelTable())
        assert len(result.violations) == 2
        assert calls == {"parse": len(texts), "negate": len(texts), "gate": len(texts)}

    def test_declarations_differing_in_pseudo_pairs_report_their_own(self):
        # one parameter set, declared three times: plain, with a rank and
        # with references; each declaration's own statement binds ?CQ
        kb = kb_from(
            "P2302(P26, Q21510856) @ {P2306: P580}\n"
            "P2302(P26, Q21510856) @ {P2306: P580} rank=preferred\n"
            "P2302(P26, Q21510856) @ {P2306: P580} refs=2\n"
            "P26(Q1, Q2) @ {P580: 1988-06-12}\nP26(Q3, Q4)\nP26(Q5, Q6) rank=preferred\n")
        instances = [inst for inst in instantiate(kb, [template_by_name("mandatory_qualifier")])
                     if inst.query is not None]
        assert len({inst.declaration.statement_id for inst in instances}) == 3
        assert len({id(inst.query) for inst in instances}) == 1
        for inst in instances:
            got = [b.as_dict() for b in evaluate(kb, inst.query, params=inst.params)]
            assert got == [b.as_dict() for b in evaluate(kb, inst.ground_query())]
            assert sorted(str(b["s"]) for b in got) == ["Q3", "Q5"]
            assert not {"p", "CQ"} & set().union(*got)
        result = check(kb, [template_by_name("mandatory_qualifier")])
        assert len(result.violations) == 6


def _walk(f):
    yield f
    for attr in ("body", "head"):
        sub = getattr(f, attr, None)
        if sub is not None and not isinstance(sub, (tuple, str)):
            yield from _walk(sub)
    for sub in getattr(f, "items", ()):
        yield from _walk(sub)


class TestCheck:
    def test_symmetric_violation(self):
        kb = kb_from("P2302(P26, Q21510862)\nP26(Q1, Q2)\nP26(Q2, Q1)\nP26(Q3, Q4)")
        result = violations(kb)
        assert [v.binding for v in result.unsuppressed] == [{"x": "Q3", "y": "Q4"}]

    def test_exception_suppression(self):
        kb = kb_from("P2302(P26, Q21510862) @ {P2303: Q3}\nP26(Q3, Q4)")
        result = violations(kb)
        assert result.unsuppressed == []
        assert len(result.violations) == 1
        assert result.violations[0].suppressed

    def test_severity_carried(self):
        kb = kb_from("P2302(P26, Q21510862) @ {P2316: Q21502408}\nP26(Q3, Q4)")
        result = violations(kb)
        assert result.unsuppressed[0].severity == "mandatory"
        assert result.summary()["by_severity"] == {"mandatory": 1}

    def test_symmetric_pair_dedup(self):
        kb = kb_from("P2302(P212, Q21502410)\n"
                     'P212(Q1, "978-3-16-148410-0")\n'
                     'P212(Q2, "978-3-16-148410-0")\n')
        result = violations(kb)
        assert len(result.unsuppressed) == 1

    def test_one_of(self):
        kb = kb_from("P2302(P21, Q21510859) @ {P2305: Q6581097, P2305: Q6581072}\n"
                     "P21(Q1, Q6581097)\nP21(Q2, Q5)\n")
        result = violations(kb)
        assert [v.binding for v in result.unsuppressed] == [{"s": "Q2", "v": "Q5"}]

    def test_format_unsupported_regex_skipped_with_note(self):
        kb = kb_from('P2302(P212, Q21502404) @ {P1793: "\\\\p{L}+"}\nP212(Q1, "x")')
        result = violations(kb)
        assert result.unsuppressed == []
        assert any("skipped format" in n for n in result.notes)

    def test_format_violation(self):
        kb = kb_from('P2302(P212, Q21502404) @ {P1793: "97[89]-.*"}\n'
                     'P212(Q1, "978-3-16")\nP212(Q2, "bogus")\n')
        result = violations(kb)
        assert [v.binding["s"] for v in result.unsuppressed] == ["Q2"]

    def test_difference_within_range(self):
        kb = kb_from("P2302(P2048, Q21510854) @ {P2306: P2049, P2312: 0, P2313: 10}\n"
                     "P2048(Q1, 5)\nP2049(Q1, 3)\n"     # 2: in range
                     "P2048(Q2, 20)\nP2049(Q2, 5)\n"    # 15: above the maximum
                     "P2048(Q3, 1)\nP2049(Q3, 4)\n")    # -3: below the minimum
        result = violations(kb)
        assert [(v.variant, v.binding) for v in result.unsuppressed] == [
            ("maximum", {"max": "10", "o1": "20", "o2": "5", "p2": "P2049", "s": "Q2"}),
            ("minimum", {"min": "0", "o1": "1", "o2": "4", "p2": "P2049", "s": "Q3"}),
        ]

    def test_max_violations_cap(self):
        kb = kb_from("P2302(P26, Q21510862)\n" +
                     "\n".join(f"P26(Q{i}, Q{i + 100})" for i in range(1, 8)))
        result = violations(kb, max_violations=3)
        assert len(result.violations) == 3

    def test_deterministic_order(self):
        kb = kb_from("P2302(P26, Q21510862)\n" +
                     "\n".join(f"P26(Q{i}, Q{i + 100})" for i in (3, 1, 2)))
        r1 = render_json(violations(kb))
        r2 = render_json(violations(kb))
        assert r1 == r2
        bindings = [v.binding["x"] for v in violations(kb).violations]
        assert bindings == sorted(bindings)


class TestReports:
    def test_json_schema(self):
        kb = kb_from("P2302(P26, Q21510862)\nP26(Q3, Q4)")
        doc = json.loads(render_json(violations(kb)))
        assert set(doc) == {"summary", "violations"}
        assert doc["summary"]["total"] == 1
        v = doc["violations"][0]
        assert v["template"] == "symmetric"
        assert v["declaration_property"] == "P26"
        assert v["binding"] == {"x": "Q3", "y": "Q4"}
        assert v["suppressed"] is False

    def test_text_report(self):
        kb = kb_from("P2302(P26, Q21510862)\nP26(Q3, Q4)")
        text = render_text(violations(kb))
        assert "symmetric on P26" in text
        assert "1 violation(s), 0 suppressed" in text


class TestCatalogSelfTest:
    def test_at_least_36_templates(self):
        assert len(builtin_templates()) >= 36

    def test_every_variant_is_sound(self):
        assert validate_catalog() == []

    def test_categories_covered(self):
        cats = {t.category for t in builtin_templates()}
        assert cats == {"existing", "proposed", "non_property"}

    def test_template_by_name_builds_the_catalog_once(self):
        assert template_by_name("symmetric") is template_by_name("symmetric")
        assert template_by_name("symmetric") == next(
            t for t in builtin_templates() if t.name == "symmetric")
        assert template_by_name("no_such_template") is None

"""Declaration extraction, query derivation and violation reporting."""

import json
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kb_from
from oracle import DomainTooLarge, all_constants, brute_force_evaluate
from wdcheck import catalog, evaluator
from wdcheck.catalog import (
    CheckResult,
    Violation,
    check,
    derive_violation_queries,
    extract_declarations,
    instantiate,
    render_json,
    render_text,
    validate_catalog,
)
from wdcheck.evaluator import check_safe_range, evaluate
from wdcheck.formula import free_variables
from wdcheck.labels import LabelTable
from wdcheck.model import P, Q, QuantityVal
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

    def test_mandatory_outranks_suggestion(self):
        # the two statuses come out of a frozenset in an order the hash seed picks
        kb = kb_from("P2302(P26, Q21510862) @ {P2316: Q21502408, P2316: Q62026391}\n"
                     "P2302(P40, Q21510862) @ {P2316: Q62026391}\nP26(Q1, Q2)\n")
        assert [d.severity for d in extract_declarations(kb)] == ["mandatory", "suggestion"]
        assert render_text(check(kb, [template_by_name("symmetric")])).splitlines()[0] == \
            "[mandatory] symmetric on P26 with ?x=Q1, ?y=Q2"

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

    # (template, declaration, facts, reporting variants): each variant that
    # reads a parameter, with the parameter absent and present
    _APPLICABILITY = [
        ("range", "P2302(P1082, Q21510860)", "P1082(Q1, 5)\nP1082(Q2, 50)", []),
        ("range", "P2302(P1082, Q21510860) @ {P2312: 10}", "P1082(Q1, 5)\nP1082(Q2, 50)",
         ["minimum_value"]),
        ("range", "P2302(P1082, Q21510860) @ {P2313: 10}", "P1082(Q1, 5)\nP1082(Q2, 50)",
         ["maximum_value"]),
        ("range", "P2302(P569, Q21510860)", "P569(Q1, 1990-01-01)\nP569(Q2, 2010-01-01)", []),
        ("range", "P2302(P569, Q21510860) @ {P2310: 2000-01-01}",
         "P569(Q1, 1990-01-01)\nP569(Q2, 2010-01-01)", ["minimum_date"]),
        ("range", "P2302(P569, Q21510860) @ {P2311: 2000-01-01}",
         "P569(Q1, 1990-01-01)\nP569(Q2, 2010-01-01)", ["maximum_date"]),
        ("difference_within_range", "P2302(P2, Q21510854) @ {P2306: P3}",
         "P2(Q1, 5)\nP3(Q1, 10)", []),
        ("difference_within_range", "P2302(P2, Q21510854) @ {P2312: 0, P2313: 0}",
         "P2(Q1, 5)\nP3(Q1, 10)", []),
        ("difference_within_range", "P2302(P2, Q21510854) @ {P2306: P3, P2312: 0}",
         "P2(Q1, 5)\nP3(Q1, 10)", ["minimum"]),
        ("difference_within_range", "P2302(P2, Q21510854) @ {P2306: P3, P2313: -10}",
         "P2(Q1, 5)\nP3(Q1, 10)", ["maximum"]),
        ("commons_link", "P2302(P18, Q21510852)",
         'P18(Q1, "x.jpg")\ncommons_ns("x.jpg", "Category")', []),
        ("commons_link", 'P2302(P18, Q21510852) @ {P2307: "File"}',
         'P18(Q1, "x.jpg")\ncommons_ns("x.jpg", "Category")', ["namespace"]),
        ("multi_value", "P2302(P40, Q21510857)", "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)",
         ["plain"]),
        # the declared minimum is the count of exists[?mc], and silences plain
        ("multi_value", "P2302(P40, Q21510857) @ {P90011: 3}",
         "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)", ["minimum_count"] * 3),
        ("multi_value", "P2302(P40, Q21510857) @ {P90011: 2}",
         "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)", ["minimum_count"]),
        # each declared minimum reports on its own: Q1 falls short of 2, Q1 and Q3 of 3
        ("multi_value", "P2302(P40, Q21510857) @ {P90011: 2, P90011: 3}",
         "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)", ["minimum_count"] * 4),
        # a minimum that is not a positive integer without a unit silences both
        ("multi_value", "P2302(P40, Q21510857) @ {P90011: 0}",
         "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)", []),
        ("multi_value", "P2302(P40, Q21510857) @ {P90011: 2.5}",
         "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)", []),
        ("multi_value", "P2302(P40, Q21510857) @ {P90011: -1}",
         "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)", []),
        ("multi_value", 'P2302(P40, Q21510857) @ {P90011: "3"}',
         "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)", []),
        ("multi_value", "P2302(P40, Q21510857) @ {P90011: 3 unit=Q11573}",
         "P40(Q1, Q2)\nP40(Q3, Q4)\nP40(Q3, Q5)", []),
    ]

    def test_variant_applicability(self):
        for template, declaration, facts, expected in self._APPLICABILITY:
            result = check(kb_from(f"{declaration}\n{facts}\n"), [template_by_name(template)])
            assert [v.variant for v in result.violations] == expected, declaration
            assert result.notes == []

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
            assert pred in all_constants(query), i


class TestVariantPlans:
    """Each variant text is built once; its declarations bind ?p and ?CQ."""

    @staticmethod
    def _count_builds(monkeypatch, kb, template: str) -> tuple:
        """(violations, {parse, negate, gate: calls}, enabled variant texts) of one check."""
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
        tpl = template_by_name(template)
        texts = {var.text for var in tpl.variants if var.enabled}
        return len(check(kb, [tpl], LabelTable()).violations), calls, len(texts)

    def test_each_variant_text_parsed_negated_and_gated_once(self, monkeypatch):
        kb = kb_from("P2302(P26, Q21510862)\nP2302(P40, Q21510862)\n"
                     "P2302(P3373, Q21510862)\nP26(Q1, Q2)\nP40(Q3, Q4)\n")
        found, calls, n = self._count_builds(monkeypatch, kb, "symmetric")
        assert found == 2
        assert calls == {"parse": n, "negate": n, "gate": n}

    def test_declared_counts_share_one_variant_query(self, monkeypatch):
        # three declared counts, one query each variant: the count is a parameter, not text
        kb = kb_from("P2302(P26, Q21510857) @ {P90011: 2}\nP2302(P40, Q21510857) @ {P90011: 3}\n"
                     "P2302(P3373, Q21510857) @ {P90011: 4}\n"
                     "P26(Q1, Q2)\nP40(Q3, Q4)\nP3373(Q5, Q6)\n")
        found, calls, n = self._count_builds(monkeypatch, kb, "multi_value")
        assert found == 3
        assert calls == {"parse": n, "negate": n, "gate": n}

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
            (_, written), = derive_violation_queries(inst.template, inst.declaration)
            assert got == [b.as_dict() for b in evaluate(kb, written)]
            assert sorted(str(b["s"]) for b in got) == ["Q3", "Q5"]
            assert not {"p", "CQ"} & set().union(*got)
        result = check(kb, [template_by_name("mandatory_qualifier")])
        assert len(result.violations) == 6

    @pytest.mark.parametrize("facts, names, compared, found", [
        ("P2302(P26, Q21510862)\nP26(Q1, Q2)\nP26(Q2, Q1)\nP26(Q3, Q4)\n", None, (8, 12),
         {"x": Q(3), "y": Q(4)}),
        ("P2302(P40, Q21510857) @ {P90011: 1, P90011: 3}\nP40(Q1, Q2)\nP40(Q1, Q3)\n",
         ["multi_value"], (2, 2), {"mc": QuantityVal(Decimal(3))}),
    ], ids=["spouses", "two-counts"])
    def test_bound_queries_agree_with_the_oracle(self, facts, names, compared, found):
        # brute force reads the one query object that check runs, ?p and ?CQ bound alike;
        # the queries whose domain is above the oracle's limit are left out
        kb = kb_from(facts)
        templates = builtin_templates() if names is None else [template_by_name(n) for n in names]
        queries = [inst for inst in instantiate(kb, templates) if inst.query is not None]
        agreed, rows = 0, []
        for inst in queries:
            try:
                want = set(brute_force_evaluate(kb, inst.query, params=inst.params))
            except DomainTooLarge:
                continue
            assert set(evaluate(kb, inst.query, params=inst.params)) == want, inst.variant.name
            agreed += 1
            rows.extend(b.as_dict() for b in want)
        assert (agreed, len(queries)) == compared
        assert any(found.items() <= row.items() for row in rows)

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

    @pytest.mark.parametrize("declaration,facts", [
        ("P2302(P569, Q19474404) @ {P2303: Q1}", "P569(Q1, 1990-01-01)\nP569(Q1, 1991-01-01)"),
        ('P2302(P569, Q21502404) @ {P2303: Q1, P1793: "[0-9]+"}', 'P569(Q1, "x")'),
    ])
    def test_subject_exception_suppresses(self, declaration, facts):
        # single value decides its exceptions as format does: neither formula names them
        result = violations(kb_from(declaration + "\n" + facts))
        assert [v.suppressed for v in result.violations] == [True]

    @pytest.mark.parametrize("exceptions,suppressed", [
        ("", False), ("Q1", False), ("Q2", False), ("Q1, P2303: Q2", True)])
    def test_pair_suppressed_when_both_subjects_exempt(self, exceptions, suppressed):
        # a pair shows on the page of each subject that is not an exception
        params = f" @ {{P2303: {exceptions}}}" if exceptions else ""
        kb = kb_from(f'P2302(P214, Q21502410){params}\nP214(Q2, "x")\nP214(Q1, "x")\n')
        (v,) = violations(kb, ["distinct_values"]).violations
        assert (v.binding["s1"], v.binding["s2"], v.suppressed) == ("Q1", "Q2", suppressed)

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

    def test_unsupported_regex_note_names_the_first_in_sorted_order(self):
        kb = kb_from('P2302(P212, Q21502404) @ {P1793: "(?R)", P1793: "\\p{L}+"}\n'
                     'P212(Q1, "x")\n')
        result = violations(kb, ["format"])
        assert result.notes == ["skipped format declaration s1 on P212: "
                                "unsupported regex construct in '(?R)'"]

    def test_each_declared_minimum_count_reports_its_own(self):
        kb = kb_from("P2302(P40, Q21510857) @ {P90011: 2, P90011: 3}\n"
                     "P40(Q1, Q2)\nP40(Q1, Q3)\n")
        assert render_text(violations(kb)) == (
            "[regular] multi_value (minimum_count) on P40 with ?mc=3, ?o1=Q2, ?s=Q1\n"
            "[regular] multi_value (minimum_count) on P40 with ?mc=3, ?o1=Q3, ?s=Q1\n"
            "2 violation(s), 0 suppressed\n"
            "  regular: 2\n")
        # a count that is no positive integer is silenced before it can leave a diagnostic
        kb = kb_from('P2302(P40, Q21510857) @ {P90011: "x", P90011: 2 unit=Q11573, '
                     "P90011: 0, P90011: 3}\nP40(Q1, Q2)\nP40(Q1, Q3)\n")
        assert [(v.binding["mc"], v.diagnostics) for v in violations(kb).violations] == \
            [("3", []), ("3", [])]

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

    @pytest.mark.parametrize("unit", ["", " unit=Q577"])
    @pytest.mark.parametrize("birth, death, variants", [
        ("1900-01-01", "1950-01-01", []),             # 50 years
        ("1700-01-01", "1900-01-01", ["maximum"]),    # 200 years
        ("1950-01-01", "1900-01-01", ["minimum"]),    # death before birth
    ])
    def test_difference_within_range_on_dates(self, unit, birth, death, variants):
        kb = kb_from(f"P2302(P570, Q21510854) @ {{P2306: P569, P2312: 0{unit}, "
                     f"P2313: 150{unit}}}\nP569(Q1, {birth})\nP570(Q1, {death})\n")
        result = violations(kb, ["difference_within_range"])
        assert [v.variant for v in result.violations] == variants
        assert all(not v.diagnostics for v in result.violations)

    def test_commons_link_reads_bound_page_by_lookup(self):
        # a page bound by ?p(?s, ?o) is looked up, not searched for among all pages
        n, missing, wrong = 4000, 17, 3001
        lines = ['P2302(P373, Q21510852) @ {P2307: "Category"}']
        for i in range(1, n + 1):
            lines.append(f'P373(Q{i}, "Page {i}")')
            if i != missing:
                ns = "Gallery" if i == wrong else "Category"
                lines.append(f'commons_ns("Page {i}", "{ns}")')
        kb = kb_from("\n".join(lines))
        start = time.perf_counter()
        result = violations(kb, ["commons_link"])
        assert time.perf_counter() - start < 5.0
        assert sorted((v.variant, v.binding["s"]) for v in result.violations) == [
            ("namespace", f"Q{missing}"), ("namespace", f"Q{wrong}"),
            ("page_exists", f"Q{missing}")]

    def test_max_violations_cap(self):
        kb = kb_from("P2302(P26, Q21510862)\n" +
                     "\n".join(f"P26(Q{i}, Q{i + 100})" for i in range(1, 8)))
        result = violations(kb, max_violations=3)
        assert len(result.violations) == 3

    def test_max_violations_keeps_every_skip_note(self):
        # the format declaration comes after the cap is reached, and is skipped
        kb = kb_from("P2302(P26, Q19474404)\nP26(Q1, Q2)\nP26(Q1, Q3)\n"
                     'P2302(P212, Q21502404) @ {P1793: "\\\\p{L}+"}\nP212(Q1, "x")\n')
        capped = check(kb, max_violations=1)
        assert len(capped.violations) == 1
        assert capped.notes == check(kb).notes
        assert any("skipped format declaration" in note for note in capped.notes)

    def test_deterministic_order(self):
        kb = kb_from("P2302(P26, Q21510862)\n" +
                     "\n".join(f"P26(Q{i}, Q{i + 100})" for i in (3, 1, 2)))
        r1 = render_json(violations(kb))
        r2 = render_json(violations(kb))
        assert r1 == r2
        bindings = [v.binding["x"] for v in violations(kb).violations]
        assert bindings == sorted(bindings)


# text with what JSON escapes: quotes, backslashes, control and non-ASCII characters
_TEXT = st.text(st.sampled_from('aZ09 "\\\n\t\x00\x1f\x7f\xe9\u2603\u2028\U0001f600')
                | st.characters(), max_size=6)
_TEXT_EXAMPLE = 'a "quoted" \\ \u2028 \xe9'


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(
        Violation, template=_TEXT, variant=_TEXT, declaration_property=st.none() | _TEXT,
        params=st.lists(st.lists(_TEXT, min_size=2, max_size=2), max_size=3),
        binding=st.dictionaries(_TEXT, _TEXT, max_size=3),
        severity=st.sampled_from(["regular", "mandatory", "suggestion", _TEXT_EXAMPLE]),
        suppressed=st.booleans(), message=_TEXT, diagnostics=st.lists(_TEXT, max_size=2),
    ), max_size=4))
    def test_json_report_is_what_json_dumps_writes(self, found):
        result = CheckResult(found)
        doc = {"summary": result.summary(), "violations": [
            {"template": v.template, "declaration_property": v.declaration_property,
             "params": v.params, "binding": v.binding, "severity": v.severity,
             "suppressed": v.suppressed, "message": v.message, "diagnostics": v.diagnostics}
            for v in found]}
        assert render_json(result) == json.dumps(doc, indent=2, sort_keys=True)

    def test_text_report(self):
        kb = kb_from("P2302(P26, Q21510862)\nP26(Q3, Q4)")
        text = render_text(violations(kb))
        assert "symmetric on P26" in text
        assert "1 violation(s), 0 suppressed" in text

    def test_text_report_notes_skipped_declarations(self):
        kb = kb_from('P2302(P212, Q21502404) @ {P1793: "\\p{L}+"}\n'
                     'P2302(P26, Q21510862)\nP26(Q3, Q4)\nP212(Q1, "x")\n')
        lines = render_text(violations(kb, ["format", "symmetric"])).splitlines()
        assert lines[1:] == [
            "note: skipped format declaration s1 on P212: "
            "unsupported regex construct in '\\\\p{L}+'",
            "1 violation(s), 0 suppressed",
            "  regular: 1",
        ]


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

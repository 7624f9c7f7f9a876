"""Command line behavior and exit-status contract."""

import gzip
import json
import os
import pathlib
import subprocess
import sys

import pytest

from wdcheck.cli import main
from wdcheck.formula import parse

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.native"
    path.write_text(
        "P2302(P26, Q21510862)\n"
        "P26(Q1, Q2)\nP26(Q2, Q1)\nP26(Q3, Q4)\n"
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_violations_exit_1(self, capsys, family_file):
        code, out, _ = run(capsys, "check", "--input", family_file, "--no-close")
        assert code == 1
        assert "symmetric" in out
        assert "1 violation(s)" in out

    def test_clean_exit_0(self, capsys, tmp_path):
        path = tmp_path / "ok.native"
        path.write_text("P2302(P26, Q21510862)\nP26(Q1, Q2)\nP26(Q2, Q1)\n")
        code, out, _ = run(capsys, "check", "--input", str(path))
        assert code == 0
        assert "0 violation(s)" in out

    def test_close_uses_symmetric_rule(self, capsys, tmp_path):
        path = tmp_path / "sym.native"
        path.write_text(
            "P2302(P26, Q21510862)\n"
            "P31(P26, Q18647518)\n"
            "P26(Q3, Q4)\n"
        )
        code, _, _ = run(capsys, "check", "--input", str(path), "--no-close",
                         "--templates", "symmetric")
        assert code == 1
        code, _, _ = run(capsys, "check", "--input", str(path), "--close",
                         "--templates", "symmetric")
        assert code == 0

    def test_close_never_adds_symmetric_violations(self, capsys, family_file):
        _, before, _ = run(capsys, "check", "--input", family_file, "--no-close",
                           "--format", "json")
        _, after, _ = run(capsys, "check", "--input", family_file, "--close",
                          "--format", "json")
        assert json.loads(after)["summary"]["total"] <= \
            json.loads(before)["summary"]["total"]

    def test_json_format(self, capsys, family_file):
        code, out, _ = run(capsys, "check", "--input", family_file,
                           "--no-close", "--format", "json")
        doc = json.loads(out)
        assert doc["summary"]["total"] == 1
        assert doc["violations"][0]["template"] == "symmetric"

    def test_byte_stable_reports(self, capsys, family_file):
        _, first, _ = run(capsys, "check", "--input", family_file, "--format", "json")
        _, second, _ = run(capsys, "check", "--input", family_file, "--format", "json")
        assert first == second

    def test_template_filter_subset(self, capsys, family_file):
        code, out, _ = run(capsys, "check", "--input", family_file,
                           "--templates", "subclass_loop", "--format", "json")
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_unknown_template_is_usage_error(self, capsys, family_file):
        code, _, err = run(capsys, "check", "--input", family_file,
                           "--templates", "nope")
        assert code == 2
        assert "unknown template" in err

    @pytest.mark.parametrize("names", ["", " , "])
    def test_templates_naming_none_is_usage_error(self, capsys, family_file, names):
        assert run(capsys, "check", "--input", family_file, "--templates", names) == \
            (2, "", "error: --templates names no template\n")

    @pytest.mark.parametrize("lines, flags, code, out", [
        (["no_value(P40, Q3) rank=deprecated", "P40(Q3, Q5)"], [], 0,
         "0 violation(s), 0 suppressed\n"),
        (["no_value(P40, Q3) rank=deprecated", "P40(Q3, Q5)"], ["--include-deprecated"], 1,
         "[regular] no_value_statement with ?p=P40, ?s=Q3\n1 violation(s), 0 suppressed\n"
         "  regular: 1\n"),
        (['P2302(P1, Q21510852) @ {P2307: "Category"}', 'P1(Q1, "Page")',
          'commons_ns("Page", "Category")', 'commons_ns("Page", "Gallery")'], [], 0,
         "0 violation(s), 0 suppressed\n"),
    ], ids=["deprecated-no-value", "deprecated-no-value-included", "page-in-two-namespaces"])
    def test_builtin_table_reports_do_not_depend_on_line_order(self, capsys, tmp_path, lines,
                                                               flags, code, out):
        # a deprecated no-value fact is matched only as a deprecated statement is; a
        # page keeps every namespace it is given
        template = "commons_link" if "P2302" in lines[0] else "no_value_statement"
        outcomes = set()
        for order in (lines, lines[::-1]):
            path = tmp_path / "kb.native"
            path.write_text("\n".join(order) + "\n")
            outcomes.add(run(capsys, "check", "--input", str(path), "--no-close",
                             "--templates", template, *flags))
        assert outcomes == {(code, out, "")}

    def test_infer_writes_every_namespace_of_a_page(self, capsys, tmp_path):
        path = tmp_path / "kb.native"
        path.write_text('commons_ns("Page", "Gallery")\nP1(Q1, "Page")\n'
                        'commons_ns("Page", "Category")\n')
        code, out, _ = run(capsys, "infer", "--input", str(path))
        assert code == 0
        assert out.endswith('commons_ns("Page", "Category")\ncommons_ns("Page", "Gallery")\n')

    def test_non_property_only(self, capsys, family_file):
        code, out, _ = run(capsys, "check", "--input", family_file,
                           "--non-property", "--format", "json")
        assert code == 0  # the symmetric declaration is out of scope here

    def test_oracle_is_a_usage_error(self, capsys, family_file):
        # the brute-force cross-check is a test reference, not an option of check
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", family_file, "--oracle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err

    def test_max_violations(self, capsys, tmp_path):
        path = tmp_path / "many.native"
        path.write_text("P2302(P26, Q21510862)\n" +
                        "\n".join(f"P26(Q{i}, Q{i + 50})" for i in range(1, 6)))
        code, out, _ = run(capsys, "check", "--input", str(path), "--no-close",
                           "--max-violations", "2", "--format", "json")
        assert len(json.loads(out)["violations"]) == 2

    def test_max_violations_keeps_every_skip_note(self, capsys, tmp_path):
        path = tmp_path / "notes.native"
        path.write_text("P2302(P26, Q19474404)\nP26(Q1, Q2)\nP26(Q1, Q3)\n"
                        'P2302(P212, Q21502404) @ {P1793: "\\\\p{L}+"}\nP212(Q1, "x")\n')
        code, out, _ = run(capsys, "check", "--input", str(path), "--no-close",
                           "--max-violations", "1")
        assert code == 1
        assert out == ("[regular] single_value on P26 with ?o1=Q2, ?o2=Q3, ?s=Q1\n"
                       "note: skipped format declaration s4 on P212: "
                       "unsupported regex construct in '\\\\p{L}+'\n"
                       "1 violation(s), 0 suppressed\n  regular: 1\n")

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_max_violations_caps_global_templates(self, capsys, tmp_path, cap):
        # two instance/subclass clashes and one subclass loop, no declarations
        path = tmp_path / "global.native"
        path.write_text("P31(Q3, Q4)\nP279(Q3, Q4)\nP31(Q5, Q6)\nP279(Q5, Q6)\n"
                        "P279(Q1, Q2)\nP279(Q2, Q1)\n")
        code, out, _ = run(capsys, "check", "--input", str(path), "--no-close",
                           "--max-violations", str(cap), "--format", "json")
        assert code == 1
        assert len(json.loads(out)["violations"]) == cap

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_max_violations_must_be_positive(self, capsys, family_file, value):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", family_file, "--max-violations", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--max-violations" in err
        assert "positive integer" in err

    def test_json_detected_from_content(self, capsys, tmp_path):
        dump = tmp_path / "slice.txt"
        dump.write_text((FIXTURES / "wikidata_slice.json").read_text())
        code, out, err = run(capsys, "check", "--input", str(dump), "--format", "json")
        assert code in (0, 1), err
        _, expected, _ = run(capsys, "check", "--input", str(dump) + ":json",
                             "--format", "json")
        assert out == expected

    def test_multiple_inputs_merged(self, capsys, tmp_path):
        a = tmp_path / "a.native"
        a.write_text("P2302(P26, Q21510862)\n")
        b = tmp_path / "b.native"
        b.write_text("P26(Q3, Q4)\n")
        code, out, _ = run(capsys, "check", "--input", str(a), "--input", str(b),
                           "--no-close", "--format", "json")
        assert json.loads(out)["summary"]["total"] == 1

    def test_include_deprecated(self, capsys, tmp_path):
        path = tmp_path / "dep.native"
        path.write_text("P2302(P26, Q21510862)\nP26(Q3, Q4) rank=deprecated\n")
        code, _, _ = run(capsys, "check", "--input", str(path), "--no-close")
        assert code == 0
        code, _, _ = run(capsys, "check", "--input", str(path), "--no-close",
                         "--include-deprecated")
        assert code == 1

    @pytest.mark.parametrize("datavalue", [
        {"type": "quantity", "value": "5"},
        {"type": "time", "value": "+2020-01-01T00:00:00Z"},
        {"type": "time", "value": {"time": 20200101, "precision": 11}},
        {"type": "time", "value": {"time": "+2020-01-01T00:00:00Z", "precision": "x"}},
    ], ids=["quantity-value-not-an-object", "time-value-not-an-object",
            "time-not-a-string", "precision-not-an-integer"])
    def test_malformed_datavalue_skipped(self, capsys, tmp_path, datavalue):
        snak = {"snaktype": "value", "property": "P585", "datavalue": datavalue}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "Q1", "claims": {"P585": [
            {"mainsnak": snak, "rank": "normal", "type": "statement"}]}}]))
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (0, "0 violation(s), 0 suppressed\n")
        assert err == f"note: {path}: skipped 1 claim(s) (mainsnak: 1)\n"


class TestMultipleInputs:
    """Several --input files load into one KB, as if they were one file."""

    A = ("P2302(P26, Q21510862)\n"
         "P1(Q1, somevalue) @ {P2: somevalue, P3: Q7}\n"
         "P26(Q1, somevalue) @ {P580: somevalue}\n")
    B = "P26(Q3, Q4)\nP1(Q2, somevalue)\nno_value(P40, Q3)\n"

    @pytest.mark.parametrize("argv", [
        ["check", "--format", "json"],
        ["check", "--no-close"],
        ["query", "--no-close", "P1(?s, ?o)@?Q"],
        ["query", "?p(?s, ?o)@?Q"],
        ["infer", "--explain"],
    ], ids=["check-json", "check-text", "query-open", "query-closed", "infer"])
    def test_inputs_read_as_one_file(self, capsys, tmp_path, argv):
        a, b, ab = tmp_path / "a.native", tmp_path / "b.native", tmp_path / "ab.native"
        a.write_text(self.A)
        b.write_text(self.B)
        ab.write_text(self.A + self.B)
        joined = run(capsys, *argv, "--input", str(ab))
        assert joined[2] == ""
        assert run(capsys, *argv, "--input", str(a), "--input", str(b)) == joined

    @pytest.mark.parametrize("extra", [[], ["P26(Q3, Q4)\n"]], ids=["alone", "with-native"])
    def test_declaration_keeps_its_claim_id(self, capsys, tmp_path, extra):
        regex = {"snaktype": "value", "property": "P1793",
                 "datavalue": {"type": "string", "value": "\\p{L}+"}}
        decl = {"id": "P212$abc", "rank": "normal", "type": "statement",
                "mainsnak": {"snaktype": "value", "property": "P2302", "datavalue": {
                    "type": "wikibase-entityid", "value": {"id": "Q21502404"}}},
                "qualifiers": {"P1793": [regex]}}
        path = tmp_path / "fmt.json"
        path.write_text(json.dumps([{"id": "P212", "claims": {"P2302": [decl]}}]))
        argv = ["check", "--input", str(path)]
        for i, text in enumerate(extra):
            other = tmp_path / f"other{i}.native"
            other.write_text(text)
            argv += ["--input", str(other)]
        code, out, _ = run(capsys, *argv)
        assert out.splitlines()[0] == ("note: skipped format declaration P212$abc on P212: "
                                       "unsupported regex construct in '\\\\p{L}+'")


class TestQuery:
    def test_bindings_printed(self, capsys, family_file):
        code, out, _ = run(capsys, "query", "--input", family_file, "--no-close",
                           "P26(?x, ?y) & !P26(?y, ?x)")
        assert code == 0
        assert "?x=Q3" in out and "?y=Q4" in out

    @pytest.mark.parametrize("atoms,code", [(200, 0), (1000, 2)])
    def test_chain_nesting_limit(self, capsys, tmp_path, atoms, code):
        # a conjunct's plan runs the rest of the conjunction inside it
        path = tmp_path / "kb.native"
        path.write_text("P26(Q1, Q2)\nP26(Q2, Q1)\n")
        chain = " & ".join(f"P26(?x{i}, ?x{i + 1})" for i in range(atoms))
        got = run(capsys, "query", "--input", str(path), "--no-close", "--max-bindings", "1",
                  chain)
        assert got[0] == code
        if code == 0:
            assert got[1].startswith("?x0=Q1, ?x1=Q2, ") and got[2] == ""
        else:
            assert got[1:] == ("", "error: cannot evaluate a formula nested 1000 levels deep: "
                                   "its plan exceeds Python's recursion limit\n")

    def test_formula_too_deep_to_parse(self, capsys, family_file):
        got = run(capsys, "query", "--input", family_file, "--no-close",
                  "(" * 1000 + "P26(?x, ?y)" + ")" * 1000)
        assert got == (2, "", "error: input nests deeper than Python's recursion limit allows\n")

    def test_json_bindings(self, capsys, family_file):
        code, out, _ = run(capsys, "query", "--input", family_file, "--no-close",
                           "--format", "json", "P26(?x, ?y) & !P26(?y, ?x)")
        assert json.loads(out) == [{"x": "Q3", "y": "Q4"}]

    def test_function_term_in_ground_set_literal(self, capsys, family_file):
        code, out, err = run(capsys, "query", "--input", family_file, "--no-close",
                             "P26(?x, ?y)@{P580: difference(2020-01-01, 2019-01-01)}")
        assert (code, out, err) == (0, "no bindings\n", "")

    @pytest.mark.parametrize("query", [
        "P1(?x, difference(?y, 1))",
        "(P1 : difference(?y, 1)) in {P1: 1} & P2(Q1, ?z)",
    ])
    def test_function_term_binds_nothing(self, capsys, tmp_path, query):
        # ?y occurs only inside difference(...), so no atom binds it
        path = tmp_path / "kb.native"
        path.write_text("P1(Q1, 1)\nP2(Q1, 2)\n")
        code, out, err = run(capsys, "query", "--input", str(path), "--no-close", query)
        assert (code, out, err) == (2, "", "error: free variable(s) not range-restricted: y\n")

    @pytest.mark.parametrize("query,rows", [
        ("P1(?y, difference(?y, 1))", "no bindings\n"),  # the subject binds ?y
        ("P1(?x, ?v) & P2(?x, ?y) & P1(?x, difference(?y, 1))", "?v=1, ?x=Q1, ?y=2\n"),
        ("P3(?x, ?o)@{P1: difference(?y, 1), P2: ?y}", "?o=Q2, ?x=Q1, ?y=2\n"),
    ])
    def test_function_term_reads_bare_variables(self, capsys, tmp_path, query, rows):
        path = tmp_path / "kb.native"
        path.write_text("P1(Q1, 1)\nP2(Q1, 2)\nP3(Q1, Q2) @ {P1: 1, P2: 2}\n")
        code, out, err = run(capsys, "query", "--input", str(path), "--no-close", query)
        assert (code, out, err) == (0, rows, "")

    @pytest.mark.parametrize("fmt, shown", [("text", "no bindings\n"), ("json", "[]\n")])
    def test_datatype_diagnostics_noted(self, capsys, tmp_path, fmt, shown):
        # the bad pattern makes the atom false: stdout and the exit code are as without a note
        path = tmp_path / "kb.native"
        path.write_text('P212(Q1, "x")\nP212(Q2, "y")\n')
        code, out, err = run(capsys, "query", "--input", str(path), "--no-close",
                             "--format", fmt, 'P212(?x, ?y) & matches_regex(?y, "[")')
        assert (code, out) == (0, shown)
        assert err == ("note: 2 datatype diagnostic(s); first: cannot compile '[': "
                       "unterminated character set at position 0\n")

    def test_undefined_function_argument_is_false(self, capsys, tmp_path):
        # difference(5, "x") is undefined: geq is false and says why, and nothing is unbound
        path = tmp_path / "kb.native"
        path.write_text('P1(Q1, 5)\nP2(Q1, "x")\n')
        code, out, err = run(capsys, "query", "--input", str(path), "--no-close",
                             "P1(?s, ?a) & P2(?s, ?b) & geq(difference(?a, ?b), 1)")
        assert (code, out) == (0, "no bindings\n")
        assert err == ('note: 1 datatype diagnostic(s); first: difference expects two '
                       'quantities or two times, got 5, "x"\n')

    @pytest.mark.parametrize("facts", ["P31(Q1, Q5)\n", "P31(Q1, Q5)\nP26(Q1, Q2)\n"])
    @pytest.mark.parametrize("query,var", [
        ("P26(?x, ?y) & exists ?z . !P31(?z, ?y)", "z"),
        ("P26(?x, ?y) & forall ?z . P31(?z, ?y)", "z"),
        ("P26(?x, ?y) & exists ?x . !P31(?x, ?y)", "x"),  # the name written, not a renamed one
    ])
    def test_quantified_variable_its_body_cannot_bind(self, capsys, tmp_path, facts, query, var):
        # refused by the gate, whether or not a P26 statement reaches the quantifier
        path = tmp_path / "kb.native"
        path.write_text(facts)
        code, out, err = run(capsys, "query", "--input", str(path), "--no-close", query)
        assert (code, out, err) == (2, "", f"error: quantified variable not range-restricted: {var}\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_bindings_must_be_positive(self, capsys, family_file, value):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--input", family_file, "--max-bindings", value, "P26(?x, ?y)"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "positive integer" in err
        assert "internal error" not in err

    def test_unsafe_query_is_error(self, capsys, family_file):
        code, _, err = run(capsys, "query", "--input", family_file, "!P26(?x, ?y)")
        assert code == 2
        assert "error:" in err

    def test_invalid_date_in_formula(self, capsys, family_file):
        code, out, err = run(capsys, "query", "--input", family_file, "P569(Q1, 2020-02-30)")
        assert (code, out) == (2, "")
        assert err == "error: 1:10: invalid date '2020-02-30': day is out of range for month\n"

    @pytest.mark.parametrize("query", ["P1(?x, ?a) & ?z = difference(?a, 1)",
                                       "P1(?x, ?a) & difference(?a, 1) = ?z"])
    def test_undefined_function_term_equals_nothing(self, capsys, tmp_path, query):
        path = tmp_path / "kb.native"
        path.write_text("P1(Q1, Q9)\nP1(Q2, 5)\n")
        code, out, err = run(capsys, "query", "--input", str(path), "--no-close", query)
        assert (code, out, err) == (0, "?a=5, ?x=Q2, ?z=4\n", "")

    def test_include_deprecated(self, capsys, tmp_path):
        path = tmp_path / "dep.native"
        path.write_text("P26(Q3, Q4) rank=deprecated\n")
        code, out, _ = run(capsys, "query", "--input", str(path), "P26(?x, ?y)")
        assert (code, out) == (0, "no bindings\n")
        code, out, _ = run(capsys, "query", "--input", str(path), "--include-deprecated",
                           "P26(?x, ?y)")
        assert (code, out) == (0, "?x=Q3, ?y=Q4\n")

    def test_equality_binds_only_a_bare_variable(self, capsys, tmp_path):
        # the literal's ?d is bound by nothing, so the gate rejects the query
        path = tmp_path / "kb.native"
        path.write_text("P26(Q1, Q2) @ {P580: 1990-01-01}\n")
        code, out, err = run(capsys, "query", "--input", str(path), "--no-close",
                             "P26(?x,?y)@?S & ?S = {P580: ?d}")
        assert (code, out) == (2, "")
        assert err == ("error: equality variable(s) not range-restricted: d; "
                       "free variable(s) not range-restricted: d\n")

    @pytest.mark.parametrize("literal,rows", [
        # set equality counts the mirrored rank pair, as the oracle does
        ("{P580: ?d}", "no bindings\n"),
        ("{P580: ?d, rank: normal}",
         '?S={P580: 1990-01-01T00:00:00/11, rank: "normal"}, '
         "?d=1990-01-01T00:00:00/11, ?x=Q1, ?y=Q2\n"),
    ])
    def test_equality_after_the_set_atom_that_binds_it(self, capsys, tmp_path, literal, rows):
        path = tmp_path / "kb.native"
        path.write_text("P26(Q1, Q2) @ {P580: 1990-01-01}\n")
        code, out, err = run(capsys, "query", "--input", str(path), "--no-close",
                             f"P26(?x,?y)@?S & (P580 : ?d) in ?S & ?S = {literal}")
        assert (code, out, err) == (0, rows, "")


class TestInfer:
    def test_derived_only_with_explain(self, capsys, tmp_path):
        path = tmp_path / "chain.native"
        path.write_text("P279(Q1, Q2)\nP279(Q2, Q3)\n")
        code, out, _ = run(capsys, "infer", "--input", str(path),
                           "--derived-only", "--explain")
        assert code == 0
        assert "subclass-transitivity" in out
        assert "P279(Q1, Q3)" in out

    def test_fixpoint_stable_export(self, capsys, tmp_path):
        path = tmp_path / "chain.native"
        path.write_text("P31(Q1, Q2)\nP279(Q2, Q3)\n")
        code, once, _ = run(capsys, "infer", "--input", str(path))
        closed = tmp_path / "closed.native"
        closed.write_text(once)
        code, twice, _ = run(capsys, "infer", "--input", str(closed))
        assert once == twice

    def test_include_deprecated_is_a_usage_error(self, capsys, tmp_path):
        # the closure never uses a deprecated statement, so the flag would do nothing
        path = tmp_path / "kb.native"
        path.write_text("P279(Q1, Q2) rank=deprecated\nP279(Q2, Q3)\n")
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--input", str(path), "--include-deprecated"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --include-deprecated" in capsys.readouterr().err

    def test_rule_body_must_be_safe_range(self, capsys, tmp_path):
        rules = tmp_path / "bad.rules"
        rules.write_text("name: loose\nkind: rule\nP1(?x, ?y) & ?z = ?w -> P2(?x, ?z)\n")
        kb = tmp_path / "kb.native"
        kb.write_text('P1(Q1, "a")\nP3(Q2, Q3)\n')
        code, out, err = run(capsys, "infer", "--input", str(kb), "--rules", str(rules))
        assert (code, out) == (2, "")
        assert "not range-restricted" in err

    @pytest.mark.parametrize("command", [["infer"], ["check"], ["query", "P1(?x, ?y)"]])
    def test_rule_head_with_function_term_refused(self, capsys, tmp_path, command):
        rules = tmp_path / "inc.rules"
        rules.write_text("name: inc\nkind: rule\nP1(?x, ?y) -> P1(?x, difference(?y, 1))\n")
        kb = tmp_path / "kb.native"
        kb.write_text("P1(Q1, 5)\n")
        code, out, err = run(capsys, *command, "--input", str(kb), "--rules", str(rules))
        assert (code, out) == (2, "")
        assert err == "error: rule 'inc' head may not hold a function term\n"

    def test_rules_block_without_rule_header_refused(self, capsys, tmp_path):
        rules = tmp_path / "forgot.rules"
        rules.write_text("name: forgot-kind\nP1(?x, ?y) -> P2(?x, ?y)\n")
        kb = tmp_path / "kb.native"
        kb.write_text("P1(Q1, Q2)\n")
        code, out, err = run(capsys, "infer", "--derived-only", "--input", str(kb),
                             "--rules", str(rules))
        assert (code, out) == (2, "")
        assert "block 'forgot-kind' is not a rule" in err

    def test_non_string_string_value_skipped(self, capsys, tmp_path):
        snak = {"snaktype": "value", "property": "P212",
                "datavalue": {"type": "string", "value": 5}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "Q1", "claims": {"P212": [
            {"mainsnak": snak, "rank": "normal", "type": "statement"}]}}]))
        code, out, err = run(capsys, "infer", "--input", str(path))
        assert (code, out) == (0, "")
        assert f"note: {path}: skipped 1 claim(s) (mainsnak: 1)" in err


class TestSliceFixture:
    """Reports on the Wikidata slice, pinned byte for byte."""

    SLICE = str(FIXTURES / "wikidata_slice.json")

    def test_check_json_report(self, capsys):
        code, out, _ = run(capsys, "check", "--format", "json", "--input", self.SLICE)
        assert code == 1
        assert out == (FIXTURES / "slice_check.json").read_text(encoding="utf-8")

    def test_infer_explain(self, capsys):
        code, out, _ = run(capsys, "infer", "--explain", "--input", self.SLICE)
        assert code == 0
        assert out == (FIXTURES / "slice_infer.txt").read_text(encoding="utf-8")

    # the rows come out in search order, so these pin the plans' conjunct order
    @pytest.mark.parametrize("fixture,formula", [
        ("slice_query_spouses.txt",
         "P26(?x, ?y)@?SQ & (P580 : ?t) in ?SQ & P31(?x, ?c) & P569(?y, ?b)"),
        ("slice_query_qualified.txt",
         "?p(?s, ?o)@?SQ & (P585 : ?t) in ?SQ & P31(?s, ?c) & P1082(?s, ?n)"),
    ])
    def test_query_rows_in_search_order(self, capsys, fixture, formula):
        code, out, _ = run(capsys, "query", "--input", self.SLICE, formula)
        assert code == 0
        assert out == (FIXTURES / fixture).read_text(encoding="utf-8")

    def test_max_violations_keeps_the_first_found(self, capsys):
        code, out, _ = run(capsys, "check", "--input", self.SLICE, "--max-violations", "3")
        assert code == 1
        assert out == (FIXTURES / "slice_check_max3.txt").read_text(encoding="utf-8")

    def test_skipped_claims_noted_on_stderr(self, capsys):
        code, _, err = run(capsys, "check", "--input", self.SLICE)
        assert code == 1
        assert f"note: {self.SLICE}: skipped 5 claim(s) (mainsnak: 5)" in err


class TestClosureOrderFixtures:
    """Reports on small bench inputs, pinned byte for byte.

    The inputs are ``bench/gen.py``'s ``family(1, 0.2)`` and ``taxonomy(1,
    0.3)``.  ``infer --explain`` pins the closure's derivation order and ``d``
    ids for the symmetric rule and the three chain rules.
    """

    @pytest.mark.parametrize("name", ["family_s1", "taxonomy_s1"])
    def test_infer_explain(self, capsys, name):
        code, out, err = run(capsys, "infer", "--explain", "--input",
                             str(FIXTURES / f"{name}.native"))
        assert (code, err) == (0, "")
        assert out == (FIXTURES / f"{name}_infer.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", ["family_s1", "taxonomy_s1"])
    def test_check_json_report(self, capsys, name):
        code, out, err = run(capsys, "check", "--format", "json", "--input",
                             str(FIXTURES / f"{name}.native"))
        assert (code, err) == (1, "")
        assert out == (FIXTURES / f"{name}_check.json").read_text(encoding="utf-8")


class TestCatalog:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "symmetric constraint (Q21510862)" in out
        assert out.count("[existing]") >= 25

    def test_self_test(self, capsys):
        code, _, err = run(capsys, "catalog", "--self-test")
        assert code == 0
        assert err == ""

    def test_runs_as_module(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "wdcheck", "catalog", "--self-test"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "symmetric constraint (Q21510862)" in proc.stdout

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "json")
        doc = json.loads(out)
        assert len(doc) >= 36
        assert all({"name", "variants", "category"} <= set(t) for t in doc)

    def test_json_listing_formulas_parse(self, capsys):
        # each listed formula is the text check parses: nothing is filled in first
        code, out, _ = run(capsys, "catalog", "--format", "json")
        for t in json.loads(out):
            for v in t["variants"]:
                parse(v["formula"])  # raises a ParseError on a placeholder

    def test_json_listing_pinned(self, capsys):
        # a variant's formula is the whole constraint, so the listing shows it all
        code, out, err = run(capsys, "catalog", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (FIXTURES / "catalog.json").read_text(encoding="utf-8")


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--input", "/nonexistent.native")
        assert code == 2
        assert "error:" in err

    def test_bad_json_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("command, name, data, offset", [
        (["check", "--input"], "kb.native.gz", gzip.compress(b"P26(Q1, Q2)\n", mtime=0), 1),
        (["infer", "--input"], "kb.native", 'P1(Q1, "caf\u00e9")\n'.encode("latin-1"), 11),
        (["check", "--input", "kb.native", "--rules"], "bad.rules",
         b"name: r\nkind: rule\n\xff\n", 19),
    ], ids=["gzip-input", "latin1-input", "rules-file"])
    def test_file_not_utf8(self, capsys, tmp_path, monkeypatch, command, name, data, offset):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kb.native").write_text("P26(Q1, Q2)\n")
        (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, *command, name)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {name}: not UTF-8 at byte offset {offset}\n"

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2

    def test_invalid_native_date(self, capsys, tmp_path):
        path = tmp_path / "kb.native"
        path.write_text("P31(Q1, Q5)\nP569(Q1, 2020-02-30)\n")
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: line 2: 1:10: invalid date '2020-02-30': "
                       "day is out of range for month\n")

    def test_load_error_names_the_input_that_has_it(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.native").write_text("P1(Q1, Q2)\n")
        (tmp_path / "bad.native").write_text("P1(Q1, 2020-02-30)\n")
        code, out, err = run(capsys, "check", "--no-close",
                             "--input", "a.native", "--input", "bad.native")
        assert (code, out) == (2, "")
        assert err == ("error: bad.native: line 1: 1:8: invalid date '2020-02-30': "
                       "day is out of range for month\n")

    def test_json_syntax_error_names_the_input(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.native").write_text("P1(Q1, Q2)\n")
        (tmp_path / "bad.json").write_text('[{"id": "Q1" "claims": {}}]')
        code, out, err = run(capsys, "check", "--no-close",
                             "--input", "a.native", "--input", "bad.json")
        assert (code, out) == (2, "")
        assert err == ("error: bad.json: Expecting ',' delimiter: "
                       "line 1 column 14 (char 13)\n")

    def test_crash_exits_2_not_1(self, capsys, family_file, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("wdcheck.cli.check", crash)
        code, out, err = run(capsys, "check", "--input", family_file)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "boom" in err


    @pytest.mark.parametrize("where", ["mainsnak", "qualifier"])
    def test_quantity_with_one_bound_is_skipped(self, capsys, tmp_path, where):
        snak = {"snaktype": "value", "property": "P1082", "datavalue": {
            "type": "quantity", "value": {"amount": "+5", "unit": "1", "lowerBound": "+4"}}}
        plain = {"snaktype": "value", "property": "P1082", "datavalue": {
            "type": "quantity", "value": {"amount": "+5", "unit": "1"}}}
        claim = {"mainsnak": snak, "rank": "normal"} if where == "mainsnak" else \
            {"mainsnak": plain, "rank": "normal", "qualifiers": {"P1107": [snak]}}
        path = tmp_path / "kb.json"
        path.write_text(json.dumps([{"id": "Q1", "claims": {"P1082": [claim]}}]))
        for argv in (("infer",), ("query", "P1082(?x, ?v)")):
            code, out, err = run(capsys, *argv[:1], "--input", str(path), *argv[1:])
            assert code == 0, err
            assert err == f"note: {path}: skipped 1 claim(s) ({where}: 1)\n"
        assert out == "no bindings\n"

    @pytest.mark.parametrize("where", ["mainsnak", "qualifier"])
    @pytest.mark.parametrize("field, raw", [
        ("amount", "NaN"), ("amount", "sNaN"), ("amount", None),
        ("lowerBound", "x"), ("lowerBound", "-Infinity")])
    def test_malformed_quantity_number_is_skipped(self, capsys, tmp_path, where, field, raw):
        def snak(number):
            return {"snaktype": "value", "property": "P1082", "datavalue": {
                "type": "quantity", "value": {"amount": number, "unit": "1"}}}

        bad = snak("+5")
        bad["datavalue"]["value"].update({"lowerBound": "+4", "upperBound": "+6", field: raw})
        claim = {"mainsnak": bad, "rank": "normal"} if where == "mainsnak" else \
            {"mainsnak": snak("+5"), "rank": "normal", "qualifiers": {"P1107": [bad]}}
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps([{"id": "Q1", "claims": {"P1082": [claim]}},
                                  {"id": "Q2", "claims": {"P1082": [
                                      {"mainsnak": snak("+20"), "rank": "normal"}]}}]))
        decl = tmp_path / "decl.native"
        decl.write_text("P2302(P1082, Q21510860) @ {P2312: 0, P2313: 10}\n")
        code, out, err = run(capsys, "check", "--input", str(decl), "--input", str(kb))
        assert code == 1, err
        assert err == f"note: {kb}: skipped 1 claim(s) ({where}: 1)\n"
        assert out == ("[regular] range (maximum_value) on P1082 with ?max=10, ?o=20, ?s=Q2\n"
                       "1 violation(s), 0 suppressed\n  regular: 1\n")


class TestLabelEnvironment:
    def test_extra_labels_from_env(self, capsys, tmp_path, monkeypatch):
        table = tmp_path / "labels.json"
        table.write_text(json.dumps({"married_to": "P26"}))
        monkeypatch.setenv("MARSHAL_LABELS", str(table))
        kbfile = tmp_path / "kb.native"
        kbfile.write_text("married_to(Q1, Q2)\n")
        code, out, _ = run(capsys, "query", "--input", str(kbfile), "--no-close",
                           "married_to(?x, ?y)")
        assert code == 0
        assert "?x=Q1" in out

    @pytest.mark.parametrize("content,message", [
        ('["P26"]', "expected a JSON object of label: entity id, found list"),
        ('{"foo": 5}', "label 'foo': expected an entity id, found 5"),
        ('{"married_to": "Q0"}', "label 'married_to': not an entity id: 'Q0'"),
        ('{"married_to": P26}', None),  # the JSON decoder's words vary across Python versions
    ])
    def test_malformed_labels_file(self, capsys, tmp_path, monkeypatch, content, message):
        table = tmp_path / "labels.json"
        table.write_text(content)
        monkeypatch.setenv("MARSHAL_LABELS", str(table))
        code, out, err = run(capsys, "catalog")
        if message is None:
            message = err.removeprefix(f"error: MARSHAL_LABELS file {table}: ")[:-1]
            assert "line 1 column 16" in message
        assert (code, out, err) == (2, "", f"error: MARSHAL_LABELS file {table}: {message}\n")

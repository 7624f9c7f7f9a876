"""Command line behavior and exit-status contract."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from wdcheck.cli import main

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

    def test_non_property_only(self, capsys, family_file):
        code, out, _ = run(capsys, "check", "--input", family_file,
                           "--non-property", "--format", "json")
        assert code == 0  # the symmetric declaration is out of scope here

    def test_oracle_crosscheck(self, capsys, family_file):
        code, _, err = run(capsys, "check", "--input", family_file,
                           "--no-close", "--oracle")
        assert code == 1
        assert "mismatch" not in err

    def test_max_violations(self, capsys, tmp_path):
        path = tmp_path / "many.native"
        path.write_text("P2302(P26, Q21510862)\n" +
                        "\n".join(f"P26(Q{i}, Q{i + 50})" for i in range(1, 6)))
        code, out, _ = run(capsys, "check", "--input", str(path), "--no-close",
                           "--max-violations", "2", "--format", "json")
        assert len(json.loads(out)["violations"]) == 2

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


class TestQuery:
    def test_bindings_printed(self, capsys, family_file):
        code, out, _ = run(capsys, "query", "--input", family_file, "--no-close",
                           "P26(?x, ?y) & !P26(?y, ?x)")
        assert code == 0
        assert "?x=Q3" in out and "?y=Q4" in out

    def test_json_bindings(self, capsys, family_file):
        code, out, _ = run(capsys, "query", "--input", family_file, "--no-close",
                           "--format", "json", "P26(?x, ?y) & !P26(?y, ?x)")
        assert json.loads(out) == [{"x": "Q3", "y": "Q4"}]

    def test_function_term_in_ground_set_literal(self, capsys, family_file):
        code, out, err = run(capsys, "query", "--input", family_file, "--no-close",
                             "P26(?x, ?y)@{P580: difference(2020-01-01, 2019-01-01)}")
        assert (code, out, err) == (0, "no bindings\n", "")

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

    def test_rule_body_must_be_safe_range(self, capsys, tmp_path):
        rules = tmp_path / "bad.rules"
        rules.write_text("name: loose\nkind: rule\nP1(?x, ?y) & ?z = ?w -> P2(?x, ?z)\n")
        kb = tmp_path / "kb.native"
        kb.write_text('P1(Q1, "a")\nP3(Q2, Q3)\n')
        code, out, err = run(capsys, "infer", "--input", str(kb), "--rules", str(rules))
        assert (code, out) == (2, "")
        assert "not range-restricted" in err

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

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2

    def test_crash_exits_2_not_1(self, capsys, family_file, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("wdcheck.cli.check", crash)
        code, out, err = run(capsys, "check", "--input", family_file)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "boom" in err


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

"""Tests for `repro.lint`: rule fixtures, suppressions, CLI, live-tree meta.

Each rule has a deliberately-broken fixture and a clean counterpart under
``src/repro/lint/fixtures/``; the bad one must produce exactly its expected
findings and the good one none.  The meta-test pins the repo's own contract:
the live tree lints clean.
"""

import json
import os

import pytest

from repro.lint import Finding, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.engine import iter_python_files, load_module
from repro.lint.registry import LintConfigError, registered_rules, rule_by_id

FIXTURES = os.path.join("src", "repro", "lint", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def lint_fixture(name, **kwargs):
    return run_lint([fixture(name)], **kwargs)


def rule_lines(findings, rule_id):
    return [f.line for f in findings if f.rule_id == rule_id]


# ------------------------------------------------------------------ fixtures


BAD_EXPECTATIONS = [
    ("det001_bad.py", "DET001", [8, 12, 16, 20]),
    ("det002_bad.py", "DET002", [4, 5, 6, 11]),
    ("det001_seedless_bad.py", "DET001", [11]),
    ("conc001_bad.py", "CONC001", [14, 17]),
    ("sec001_bad.py", "SEC001", [7, 11]),
    ("res001_bad.py", "RES001", [7, 12]),
    ("obs001_bad.py", "OBS001", [8]),
    ("wire001_bad.py", "WIRE001", [12]),
    ("lint000_bad.py", "LINT000", [3]),
]


@pytest.mark.parametrize("name,rule_id,lines", BAD_EXPECTATIONS)
def test_bad_fixture_produces_expected_findings(name, rule_id, lines):
    findings = lint_fixture(name)
    assert [f.rule_id for f in findings] == [rule_id] * len(lines)
    assert rule_lines(findings, rule_id) == lines


@pytest.mark.parametrize(
    "name",
    [
        "det001_good.py",
        "det002_good.py",
        "conc001_good.py",
        "sec001_good.py",
        "res001_good.py",
        "obs001_good.py",
        "wire001_good.py",
        "lint000_good.py",
    ],
)
def test_good_fixture_is_clean(name):
    assert lint_fixture(name) == []


def test_wire001_names_the_missing_field():
    (finding,) = lint_fixture("wire001_bad.py")
    assert "encode_ping" in finding.message
    assert "payload" in finding.message


# -------------------------------------------------------------- suppressions


def test_allow_silences_exactly_the_named_rule_on_that_line():
    # The fixture line violates both DET001 and DET002; allow[DET001] must
    # silence only DET001, and — being used — must not surface as LINT000.
    findings = lint_fixture("suppression_partial.py")
    assert [f.rule_id for f in findings] == ["DET002"]
    assert findings[0].line == 8


def test_unused_allow_is_itself_a_finding():
    (finding,) = lint_fixture("lint000_bad.py")
    assert finding.rule_id == "LINT000"
    assert "allow[DET001]" in finding.message


def test_used_allow_produces_no_findings_at_all():
    assert lint_fixture("lint000_good.py") == []


def test_directive_prose_in_docstrings_is_not_a_directive():
    # suppressions.py documents its own syntax; quoting `allow[RULE]` or
    # `path=` in a docstring must neither register a suppression nor re-home
    # the module.
    module = load_module(os.path.join("src", "repro", "lint", "suppressions.py"))
    assert module.logical == "repro/lint/suppressions.py"


# ------------------------------------------------------------ select/ignore


def test_select_restricts_to_named_rules():
    findings = lint_fixture("det001_bad.py", select=["SEC001"])
    assert findings == []


def test_ignore_drops_named_rules():
    findings = lint_fixture("det001_bad.py", ignore=["DET001"])
    assert findings == []


def test_unknown_rule_id_is_a_config_error():
    with pytest.raises(LintConfigError):
        lint_fixture("det001_bad.py", select=["NOPE999"])
    with pytest.raises(LintConfigError):
        rule_by_id("NOPE999")


# ------------------------------------------------------------------ registry


def test_registry_contains_the_full_rule_pack():
    ids = [rule.rule_id for rule in registered_rules()]
    assert ids == sorted(ids)
    for expected in (
        "LINT000",
        "DET001",
        "DET002",
        "CONC001",
        "SEC001",
        "RES001",
        "OBS001",
        "WIRE001",
    ):
        assert expected in ids
        rule = rule_by_id(expected)
        assert rule.title and rule.rationale


def test_finding_render_and_dict():
    finding = Finding(
        rule_id="DET001", path="a.py", line=3, col=7, message="boom", hint="fix"
    )
    assert finding.render() == "a.py:3:7: DET001 boom (fix: fix)"
    assert finding.to_dict() == {
        "rule": "DET001",
        "path": "a.py",
        "line": 3,
        "col": 7,
        "message": "boom",
        "hint": "fix",
    }


# -------------------------------------------------------------------- engine


def test_directory_walk_skips_fixtures():
    files = iter_python_files([os.path.join("src", "repro", "lint")])
    assert files
    assert not any("fixtures" in path for path in files)


def test_explicit_fixture_path_is_still_linted():
    assert iter_python_files([fixture("det001_bad.py")]) == [
        fixture("det001_bad.py")
    ]


# ----------------------------------------------------------------------- CLI


def test_cli_json_format(capsys):
    code = lint_main([fixture("sec001_bad.py"), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert {f["rule"] for f in payload["findings"]} == {"SEC001"}


def test_cli_clean_run_exits_zero(capsys):
    code = lint_main([fixture("sec001_good.py")])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_select_and_ignore(capsys):
    code = lint_main(
        [fixture("det001_bad.py"), "--select", "DET001", "--ignore", "DET001"]
    )
    assert code == 0
    code = lint_main([fixture("det001_bad.py"), "--select", "BOGUS123"])
    assert code == 2
    capsys.readouterr()


def test_cli_explain_prints_rule_and_examples(capsys):
    code = lint_main(["--explain", "DET001"])
    assert code == 0
    output = capsys.readouterr().out
    assert "DET001" in output
    assert "Bad example" in output
    assert "Good example" in output
    assert "random.Random()" in output  # pulled from the bad fixture


def test_cli_explain_unknown_rule(capsys):
    assert lint_main(["--explain", "XYZ987"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in registered_rules():
        assert rule.rule_id in output


# ------------------------------------------------------------------ meta


def test_live_tree_is_lint_clean():
    """The repo's own contracts hold: `python -m repro.lint src` finds nothing.

    This is the acceptance gate for every rule's false-positive rate, and it
    keeps the suppression inventory at zero for the security/concurrency
    rules (an allow would surface as a finding here unless it was used, and
    used allows are inspected in review).
    """
    assert run_lint([os.path.join("src", "repro")]) == []

"""SARIF emission: shape, fingerprints, baselines, validation."""

import json

import pytest

from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.sarif import (FINGERPRINT_KEY, SARIF_VERSION,
                              finding_fingerprint, load_baseline,
                              new_results, to_sarif, validate_sarif,
                              write_baseline)


def _diag(rule="net.dead-cone", severity=Severity.WARNING,
          message="node proven unobservable", circuit="tiny",
          location="node:n1", hint=""):
    return Diagnostic(rule=rule, severity=severity, message=message,
                      circuit=circuit, location=location, hint=hint)


def _report():
    return LintReport(diagnostics=[
        _diag(),
        _diag(rule="net.const-node", severity=Severity.INFO,
              message="node is constant 0", location="node:n2",
              hint="fold it away"),
        _diag(rule="pair.unproven-po", severity=Severity.ERROR,
              message="implication not proved", location="po:y"),
    ])


def test_fingerprint_is_stable_and_content_sensitive():
    a = finding_fingerprint("r", "c", "node:n", "msg")
    assert a == finding_fingerprint("r", "c", "node:n", "msg")
    assert a != finding_fingerprint("r", "c", "node:n", "other msg")
    assert a != finding_fingerprint("r", "c", "node:m", "msg")
    assert len(a) == 32 and int(a, 16) >= 0


def test_to_sarif_shape_is_valid_and_complete():
    doc = to_sarif(_report())
    assert validate_sarif(doc) == []
    assert doc["version"] == SARIF_VERSION
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    results = run["results"]
    assert len(results) == 3
    rules = run["tool"]["driver"]["rules"]
    for result in results:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
        assert result["partialFingerprints"][FINGERPRINT_KEY]
        fqn = result["locations"][0]["logicalLocations"][0][
            "fullyQualifiedName"]
        assert fqn.startswith("tiny:")
    # Severity mapping: info renders as SARIF "note".
    levels = {r["ruleId"]: r["level"] for r in results}
    assert levels["net.const-node"] == "note"
    assert levels["net.dead-cone"] == "warning"
    assert levels["pair.unproven-po"] == "error"
    # The hint rides along as markdown.
    noted = next(r for r in results
                 if r["ruleId"] == "net.const-node")
    assert "fold it away" in noted["message"]["markdown"]


def test_emission_order_is_independent_of_insertion_order():
    report = _report()
    shuffled = LintReport(diagnostics=list(reversed(
        report.diagnostics)))
    assert to_sarif(report) == to_sarif(shuffled)


def test_baseline_round_trip_suppresses_known_findings(tmp_path):
    path = tmp_path / "baseline.txt"
    assert write_baseline([_report(), _report()], path) == 3
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == 4
    assert lines[1:] == sorted(lines[1:])
    baseline = load_baseline(path)
    sarif = to_sarif(_report())
    assert baseline == {r["partialFingerprints"][FINGERPRINT_KEY]
                        for r in sarif["runs"][0]["results"]}

    unchanged = to_sarif(_report(), baseline=baseline)
    assert validate_sarif(unchanged) == []
    assert new_results(unchanged) == []
    assert all(r["baselineState"] == "unchanged"
               for r in unchanged["runs"][0]["results"])

    grown = _report()
    grown.diagnostics.append(_diag(message="a brand new finding"))
    doc = to_sarif(grown, baseline=baseline)
    fresh = new_results(doc)
    assert len(fresh) == 1
    assert fresh[0]["message"]["text"] == "a brand new finding"


def test_new_results_without_baseline_reports_everything():
    assert len(new_results(to_sarif(_report()))) == 3


def test_load_baseline_rejects_malformed_documents(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ["{not json",
                 json.dumps({"version": "2.1.0", "runs": []}),
                 "net.dead-cone",
                 "net.dead-cone 0123",
                 "net.dead-cone " + "g" * 32,
                 "net.dead-cone " + "0" * 32 + " extra",
                 ""]:
        path.write_text(f"# header\nnet.const-node {'a' * 32}\n{text}\n")
        with pytest.raises(ValueError,
                           match=r"invalid lint baseline .*:3:"):
            load_baseline(path)


def _valid_doc():
    return to_sarif(_report())


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.update(version="9.9"), "version"),
    (lambda d: d.update(runs=[]), "runs"),
    (lambda d: d["runs"][0]["tool"]["driver"].pop("name"),
     "driver.name"),
    (lambda d: d["runs"][0]["results"][0].update(level="fatal"),
     "level"),
    (lambda d: d["runs"][0]["results"][0].update(ruleIndex=99),
     "ruleIndex"),
    (lambda d: d["runs"][0]["results"][0].update(
        partialFingerprints={"k": 7}), "partialFingerprints"),
    (lambda d: d["runs"][0]["results"][0].pop("message"),
     "message.text"),
    (lambda d: d["runs"][0]["results"][0].update(
        baselineState="stale"), "baselineState"),
], ids=["version", "empty-runs", "driver-name", "level", "rule-index",
        "fingerprint-type", "message", "baseline-state"])
def test_validate_sarif_flags_each_defect(mutate, needle):
    doc = _valid_doc()
    assert validate_sarif(doc) == []
    mutate(doc)
    problems = validate_sarif(doc)
    assert problems, f"defect not caught: {needle}"
    assert any(needle in p for p in problems), problems


def test_validate_sarif_rejects_non_object():
    assert validate_sarif([1, 2]) \
        == ["document is list, expected object"]


def test_committed_baseline_covers_bundled_findings():
    from pathlib import Path

    from repro.bench.suite import load_benchmark, tiny_benchmark
    from repro.lint import lint_network
    from repro.lint.sarif import diagnostic_fingerprint

    path = Path(__file__).resolve().parents[2] / "benchmarks" \
        / "lint_baseline.txt"
    baseline = load_baseline(path)
    for name, network in (("tiny", tiny_benchmark()),
                          ("cmb", load_benchmark("cmb"))):
        report = lint_network(network, circuit=name)
        assert report.diagnostics
        assert {diagnostic_fingerprint(d)
                for d in report.diagnostics} <= baseline, name

"""SARIF 2.1.0 emission for lint reports, with fingerprint baselines.

:func:`to_sarif` renders a :class:`~repro.lint.diagnostics.LintReport`
as a SARIF log (the Static Analysis Results Interchange Format, OASIS
standard v2.1.0) so CI systems and code-review UIs can ingest the
findings.  Every result carries a *stable fingerprint* — a content hash
of (rule, circuit, location, message) under ``partialFingerprints`` —
which survives reordering and unrelated edits.

A *baseline* is a plain-text file with one ``<ruleId> <fingerprint>``
line per known finding (:func:`write_baseline` / :func:`load_baseline`);
results matching it are marked ``baselineState: unchanged`` so only
``new`` findings gate a run.

:func:`validate_sarif` is a hand-rolled structural check against the
parts of the 2.1.0 schema this emitter uses (the environment has no
``jsonschema`` package, and the full 10k-line schema would be overkill
for a format we produce ourselves).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from .diagnostics import LintReport
from .registry import all_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

#: Versioned partialFingerprints key; bump when the hashed fields or
#: the hash recipe change (old baselines then simply stop matching).
FINGERPRINT_KEY = "reproLint/v1"

_LEVELS = {"error": "error", "warning": "warning", "info": "note"}
_VALID_LEVELS = ("none", "note", "warning", "error")

#: One baseline line: a rule id and a :func:`finding_fingerprint`.
_BASELINE_LINE = re.compile(r"(\S+) ([0-9a-f]{32})")


def finding_fingerprint(rule: str, circuit: str, location: str,
                        message: str) -> str:
    """Stable content hash of one finding.

    Deliberately excludes severity (a rule re-classification should not
    re-open baselined findings) and any positional information beyond
    the logical location string.
    """
    body = "|".join(("v1", rule, circuit, location, message))
    return hashlib.sha256(body.encode()).hexdigest()[:32]


def diagnostic_fingerprint(diag) -> str:
    return finding_fingerprint(diag.rule, diag.circuit, diag.location,
                               diag.message)


def to_sarif(report: LintReport,
             baseline: set[str] | None = None) -> dict:
    """Render a lint report as a SARIF 2.1.0 log dict.

    With ``baseline`` (a set of fingerprints from
    :func:`load_baseline`), each result gets a ``baselineState`` of
    ``"unchanged"`` or ``"new"``.
    """
    diagnostics = report.sorted()
    rule_ids = sorted({d.rule for d in diagnostics})
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    titles = {r.rule_id: r.title for r in all_rules()}
    rules = [{
        "id": rule_id,
        "shortDescription": {
            "text": titles.get(rule_id, rule_id)},
    } for rule_id in rule_ids]

    results = []
    for diag in diagnostics:
        result = {
            "ruleId": diag.rule,
            "ruleIndex": rule_index[diag.rule],
            "level": _LEVELS[diag.severity.value],
            "message": {"text": diag.message},
            "locations": [{
                "logicalLocations": [{
                    "fullyQualifiedName": ":".join(
                        p for p in (diag.circuit, diag.location) if p)
                    or diag.rule,
                }],
            }],
            "partialFingerprints": {
                FINGERPRINT_KEY: diagnostic_fingerprint(diag),
            },
        }
        if diag.hint:
            result["message"]["markdown"] = \
                f"{diag.message}\n\n**hint:** {diag.hint}"
        if baseline is not None:
            seen = result["partialFingerprints"][FINGERPRINT_KEY] \
                in baseline
            result["baselineState"] = "unchanged" if seen else "new"
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.lint",
                    "informationUri":
                        "https://example.invalid/repro-lint",
                    "rules": rules,
                },
            },
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


def write_sarif(report: LintReport, path: str | Path,
                baseline: set[str] | None = None) -> dict:
    """Write the SARIF log to ``path``; returns the document."""
    doc = to_sarif(report, baseline=baseline)
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def write_baseline(reports, path: str | Path) -> int:
    """Write the baseline of every finding in ``reports``.

    One ``<ruleId> <fingerprint>`` line per distinct finding, sorted so
    that regenerating an unchanged baseline leaves the file unchanged.
    Returns the number of findings written.
    """
    lines = sorted({f"{d.rule} {diagnostic_fingerprint(d)}"
                    for report in reports for d in report.diagnostics})
    Path(path).write_text(f"# repro.lint baseline ({FINGERPRINT_KEY}): "
                          "<ruleId> <fingerprint> per line\n"
                          + "".join(line + "\n" for line in lines))
    return len(lines)


def load_baseline(path: str | Path) -> set[str]:
    """Fingerprints of every finding in a baseline file.

    Lines starting with ``#`` are comments.  Unreadable or malformed
    baselines raise — silently treating a broken baseline as empty
    would resurface every suppressed finding and fail CI for the wrong
    reason.
    """
    fingerprints: set[str] = set()
    for number, line in enumerate(
            Path(path).read_text().splitlines(), 1):
        if line.startswith("#"):
            continue
        match = _BASELINE_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"invalid lint baseline {path}:{number}: "
                             f"expected '<ruleId> <fingerprint>', got "
                             f"{line[:60]!r}")
        fingerprints.add(match.group(2))
    return fingerprints


def new_results(doc: dict) -> list[dict]:
    """Results not suppressed by the baseline the log was built with.

    On a log built without a baseline every result is new.
    """
    out = []
    for run in doc.get("runs", []):
        for result in run.get("results", []):
            if result.get("baselineState", "new") == "new":
                out.append(result)
    return out


def validate_sarif(doc) -> list[str]:
    """Structural problems against SARIF 2.1.0 (empty list = valid).

    Checks the subset of the schema this emitter produces: top-level
    version/runs, tool.driver identity, per-result ruleId/level/message
    shape, ruleIndex consistency with the driver rule table, location
    and fingerprint shapes.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    if doc.get("version") != SARIF_VERSION:
        errors.append(f"version is {doc.get('version')!r}, expected "
                      f"{SARIF_VERSION!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return errors + ["runs missing, not a list, or empty"]
    for ri, run in enumerate(runs):
        where = f"runs[{ri}]"
        if not isinstance(run, dict):
            errors.append(f"{where} is not an object")
            continue
        driver = (run.get("tool") or {}).get("driver") \
            if isinstance(run.get("tool"), dict) else None
        if not isinstance(driver, dict) \
                or not isinstance(driver.get("name"), str) \
                or not driver["name"]:
            errors.append(f"{where}.tool.driver.name missing")
            rules = []
        else:
            rules = driver.get("rules", [])
            if not isinstance(rules, list):
                errors.append(f"{where}.tool.driver.rules is not "
                              f"a list")
                rules = []
            for i, rule in enumerate(rules):
                if not isinstance(rule, dict) \
                        or not isinstance(rule.get("id"), str):
                    errors.append(f"{where}.tool.driver.rules[{i}]: "
                                  f"missing string id")
        results = run.get("results")
        if not isinstance(results, list):
            errors.append(f"{where}.results missing or not a list")
            continue
        for i, result in enumerate(results):
            rwhere = f"{where}.results[{i}]"
            if not isinstance(result, dict):
                errors.append(f"{rwhere} is not an object")
                continue
            if not isinstance(result.get("ruleId"), str):
                errors.append(f"{rwhere}.ruleId missing")
            if result.get("level") not in _VALID_LEVELS:
                errors.append(f"{rwhere}.level is "
                              f"{result.get('level')!r}, expected one "
                              f"of {_VALID_LEVELS}")
            message = result.get("message")
            if not isinstance(message, dict) \
                    or not isinstance(message.get("text"), str):
                errors.append(f"{rwhere}.message.text missing")
            index = result.get("ruleIndex")
            if index is not None:
                ok = isinstance(index, int) \
                    and 0 <= index < len(rules) \
                    and rules[index].get("id") == result.get("ruleId")
                if not ok:
                    errors.append(f"{rwhere}.ruleIndex does not match "
                                  f"the driver rule table")
            locations = result.get("locations")
            if locations is not None:
                if not isinstance(locations, list):
                    errors.append(f"{rwhere}.locations is not a list")
                else:
                    for j, loc in enumerate(locations):
                        if not isinstance(loc, dict):
                            errors.append(
                                f"{rwhere}.locations[{j}] is not an "
                                f"object")
            fingerprints = result.get("partialFingerprints")
            if fingerprints is not None and (
                    not isinstance(fingerprints, dict)
                    or not all(isinstance(k, str) and isinstance(v, str)
                               for k, v in fingerprints.items())):
                errors.append(f"{rwhere}.partialFingerprints must map "
                              f"strings to strings")
            state = result.get("baselineState")
            if state is not None and state not in (
                    "new", "unchanged", "updated", "absent"):
                errors.append(f"{rwhere}.baselineState is {state!r}")
    return errors

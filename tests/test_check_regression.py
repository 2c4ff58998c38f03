"""Tests for the benchmark regression gate's table of records.

Every gate row is exercised on synthetic payloads built from the
committed record's cases, with the digest set to the current sources,
so the tests hold whether or not the committed records are fresh.
"""

import copy
import json

import pytest

from benchmarks import check_regression
from benchmarks.check_regression import (
    RECORDS,
    Gate,
    Record,
    check_record,
    refresh_command,
    sources_digest,
)

GATES = [
    pytest.param(record, gate, id=f"{record[6:-5]}-{gate.field}")
    for record, entry in RECORDS.items()
    for gate in entry.gates
]


def _matches(case, gate):
    return all(case.get(key) == value for key, value in gate.select.items())


def _at_bound(record):
    """The committed record's cases with every gated field at its bound."""
    cases = copy.deepcopy(
        json.loads((check_regression.REPO_ROOT / record).read_text())["cases"]
    )
    for gate in RECORDS[record].gates:
        if not any(_matches(case, gate) for case in cases):
            cases.append(dict(gate.select))
        for case in cases:
            if _matches(case, gate):
                case[gate.field] = gate.bound
    return {"sources_digest": sources_digest(record), "cases": cases}


@pytest.mark.parametrize("record,gate", GATES)
def test_value_at_bound_passes(record, gate, capsys):
    payload = _at_bound(record)
    assert check_record(record, payload) == []
    passed = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  PASS  ") and f": {gate.field} " in line
        and line.endswith(f"{gate.op} {gate.bound:g}")
    ]
    matching = [case for case in payload["cases"] if _matches(case, gate)]
    assert len(passed) == len(matching)


@pytest.mark.parametrize("record,gate", GATES)
def test_value_past_bound_fails_naming_record_and_claim(record, gate):
    payload = _at_bound(record)
    past = gate.bound * (0.99 if gate.op == ">=" else 1.01)
    matching = [case for case in payload["cases"] if _matches(case, gate)]
    for case in matching:
        case[gate.field] = past
    errors = check_record(record, payload, verbose=False)
    assert len(errors) == len(matching)
    for error in errors:
        assert error.startswith(f"{record}: ")
        assert gate.claim in error
        assert f"is not {gate.op}" in error


@pytest.mark.parametrize("record,gate", GATES)
def test_missing_field_fails(record, gate):
    payload = _at_bound(record)
    for case in payload["cases"]:
        if _matches(case, gate):
            del case[gate.field]
    errors = check_record(record, payload, verbose=False)
    assert errors and all(gate.claim in error for error in errors)


@pytest.mark.parametrize("record,gate", GATES)
def test_removing_the_cases_fails_as_unmeasured(record, gate):
    payload = _at_bound(record)
    payload["cases"] = [
        case for case in payload["cases"] if not _matches(case, gate)
    ]
    errors = check_record(record, payload, verbose=False)
    unmeasured = [error for error in errors if gate.claim in error]
    assert len(unmeasured) == 1
    assert unmeasured[0].startswith(f"{record}: ")
    assert "unmeasured" in unmeasured[0]


@pytest.mark.parametrize(
    "record", [record for record, entry in RECORDS.items() if entry.sources]
)
@pytest.mark.parametrize("digest", ["0" * 64, None])
def test_wrong_sources_digest_fails_as_stale(record, digest):
    payload = _at_bound(record)
    payload["sources_digest"] = digest
    errors = check_record(record, payload, verbose=False)
    assert len(errors) == 1
    assert errors[0].startswith(f"{record}: stale")
    assert refresh_command(record) in errors[0]


def test_refresh_command_names_the_records_own_benchmark():
    for record, entry in RECORDS.items():
        command = refresh_command(record)
        assert f"pytest benchmarks/{entry.bench} " in command
        assert (check_regression.REPO_ROOT / "benchmarks" / entry.bench).is_file()


def test_too_few_topology_families_fails():
    record = check_regression.TOPOLOGY
    payload = _at_bound(record)
    payload["cases"] = [
        case for case in payload["cases"] if case.get("case") != "sf_vs_hybrid"
    ] + [
        {"case": "sf_vs_hybrid", "family": family, "sf_success": 1.0,
         "hybrid_success": 1.0}
        for family in ("complete", "grid")
    ]
    errors = check_record(record, payload, verbose=False)
    assert len(errors) == 1 and "graph families" in errors[0]


class TestMissingRecord:
    """A missing record is one failure; the other records are still checked."""

    @pytest.fixture
    def records(self, tmp_path, monkeypatch):
        gate = Gate("x", {"case": "x"}, "rate", ">=", 1.0, "x stays fast")
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_regression, "RECORDS", {
            "BENCH_missing.json": Record("bench_missing.py", [], [gate]),
            "BENCH_ungated.json": Record("bench_ungated.py", None),
            "BENCH_slow.json": Record("bench_slow.py", [], [gate]),
        })
        (tmp_path / "BENCH_slow.json").write_text(json.dumps({
            "sources_digest": check_regression.sources_digest("BENCH_slow.json"),
            "cases": [{"case": "x", "rate": 0.5}],
        }))

    def test_check_reports_it_beside_the_other_failures(self, records):
        errors = check_regression.check(verbose=False)
        assert len(errors) == 2
        assert errors[0].startswith("BENCH_missing.json is missing")
        assert "pytest benchmarks/bench_missing.py" in errors[0]
        assert errors[1].startswith("BENCH_slow.json: x: rate 0.5")
        assert "x stays fast" in errors[1]

    def test_main_prints_every_failure(self, records, capsys):
        assert check_regression.main() == 1
        out = capsys.readouterr().out
        assert out.count("  FAIL  ") == 2
        assert out.rstrip().endswith("gate: FAIL")

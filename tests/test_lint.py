"""Tests for the reprolint static-analysis suite.

Each rule gets one positive assertion (the seeded violation in
``tests/lint_fixtures/badrepo`` is flagged) and one negative (the clean
counterpart in ``tests/lint_fixtures/cleanrepo`` passes).  The fixture
trees mirror the package layout so path-scoped rules apply via the
suffix matching in :func:`repro.lint.framework._match`.
"""

import json
import os

import pytest

import repro
from repro.lint import fingerprint
from repro.lint.framework import LintReport, Violation, all_rules
from repro.lint.runner import collect_files, main, run_lint

HERE = os.path.dirname(os.path.abspath(__file__))
BAD = os.path.join(HERE, "lint_fixtures", "badrepo")
CLEAN = os.path.join(HERE, "lint_fixtures", "cleanrepo")


def lint_one(root, rel, rule_id):
    path = os.path.join(root, *rel.split("/"))
    assert os.path.isfile(path), path
    return run_lint([path], rule_ids=frozenset({rule_id}))


# ----------------------------------------------------------------------
# File-scoped rules: positive + negative per rule
# ----------------------------------------------------------------------

FILE_RULE_CASES = [
    ("unseeded-random", "repro/core/determinism.py"),
    ("wall-clock", "repro/core/determinism.py"),
    ("set-iteration", "repro/core/determinism.py"),
    ("id-keyed-dict", "repro/core/determinism.py"),
    ("repr-key", "repro/api/cache.py"),
    ("float-dict-key", "repro/api/cache.py"),
    ("hot-path-slots", "repro/timing/hot.py"),
    ("slotted-attr-creation", "repro/timing/hot.py"),
    ("wake-site-discipline", "repro/core/wake.py"),
    ("errstate-in-plan", "repro/functional/compiled.py"),
    ("alloc-in-plan", "repro/functional/compiled.py"),
    ("observer-vocabulary", "repro/core/schedulers.py"),
    ("observer-vocabulary", "repro/analytics/aggregator.py"),
    ("protocol-vocabulary", "repro/service/daemon.py"),
    ("fault-vocabulary", "repro/service/daemon.py"),
    ("service-retry-bounded", "repro/service/retry.py"),
    ("registry-discipline", "repro/core/schedulers.py"),
]


@pytest.mark.parametrize("rule_id,rel", FILE_RULE_CASES)
def test_rule_flags_seeded_violation(rule_id, rel):
    report = lint_one(BAD, rel, rule_id)
    hits = [v for v in report.violations if v.rule == rule_id]
    assert hits, "expected %s finding in %s" % (rule_id, rel)
    assert not report.ok
    for v in hits:
        assert v.line > 0
        assert v.message


@pytest.mark.parametrize("rule_id,rel", FILE_RULE_CASES)
def test_rule_passes_clean_counterpart(rule_id, rel):
    report = lint_one(CLEAN, rel, rule_id)
    assert [v for v in report.violations if v.rule == rule_id] == []


def test_alloc_in_plan_ignores_compile_time_allocation():
    # np.zeros at function depth 1 (compile time) must not be flagged;
    # only the allocation inside the nested plan closure is.
    report = lint_one(BAD, "repro/functional/compiled.py", "alloc-in-plan")
    assert len(report.violations) == 1
    assert report.violations[0].line == 11


def test_observer_vocabulary_reads_what_the_live_emit_sites_are_handed():
    # The bare compare, then the origin a scheduler hands ``sm.issue``
    # / an aggregator hands ``IssueEvent`` — the calls production makes.
    report = lint_one(BAD, "repro/core/schedulers.py", "observer-vocabulary")
    assert [v.line for v in report.violations] == [7, 8]
    report = lint_one(BAD, "repro/analytics/aggregator.py", "observer-vocabulary")
    assert [v.line for v in report.violations] == [8, 13]


def test_wake_site_discipline_flags_each_seeded_write():
    report = lint_one(BAD, "repro/core/wake.py", "wake-site-discipline")
    # Also: a `tick` outside any scheduler, the retired `_probe` site, and a
    # scheduler `tick` that wakes instead of only dropping its candidate.
    assert [v.line for v in report.violations] == [8, 9, 12, 13, 16, 20, 27, 31]


def test_registry_discipline_allows_registry_module_itself(tmp_path):
    pkg = tmp_path / "repro" / "core" / "policy"
    pkg.mkdir(parents=True)
    target = pkg / "registry.py"
    target.write_text("class Registry:\n    def register(self, n, v):\n        self._entries[n] = v\n")
    report = run_lint([str(target)], rule_ids=frozenset({"registry-discipline"}))
    assert report.ok


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------


def test_inline_suppression_same_line_line_above_and_all():
    report = lint_one(BAD, "repro/core/suppressed.py", "wall-clock")
    assert report.violations == []
    assert report.suppressed == 2  # same-line + line-above forms
    report = lint_one(BAD, "repro/core/suppressed.py", "id-keyed-dict")
    assert report.violations == []
    assert report.suppressed == 1  # disable=all on the line above


# ----------------------------------------------------------------------
# Project rules: cache-key-fields and config-fingerprint
# ----------------------------------------------------------------------


def test_cache_key_fields_clean_on_live_configs():
    report = run_lint([], rule_ids=frozenset({"cache-key-fields"}))
    assert report.ok, report.format()


def test_cache_key_fields_detects_key_blind_to_mutation(monkeypatch):
    import repro.api.cache as cache

    monkeypatch.setattr(cache, "config_hash", lambda cfg: "constant")
    report = run_lint([], rule_ids=frozenset({"cache-key-fields"}))
    assert not report.ok
    assert any("does not flow into the cache key" in v.message for v in report.violations)


def test_config_fingerprint_committed_and_current():
    report = run_lint([], rule_ids=frozenset({"config-fingerprint"}))
    assert report.ok, report.format()


def test_config_fingerprint_missing(monkeypatch):
    monkeypatch.setattr(fingerprint, "load_committed", lambda path=None: None)
    report = run_lint([], rule_ids=frozenset({"config-fingerprint"}))
    assert not report.ok
    assert "no committed config fingerprint" in report.violations[0].message


def test_config_fingerprint_drift_without_version_bump(monkeypatch):
    committed = fingerprint.load_committed()
    assert committed is not None
    tampered = dict(committed)
    tampered["digest"] = "0" * 64
    monkeypatch.setattr(fingerprint, "load_committed", lambda path=None: tampered)
    report = run_lint([], rule_ids=frozenset({"config-fingerprint"}))
    assert not report.ok
    assert "CACHE_VERSION is still" in report.violations[0].message


def test_config_fingerprint_stale_version(monkeypatch):
    committed = fingerprint.load_committed()
    tampered = dict(committed)
    tampered["digest"] = "0" * 64
    tampered["cache_version"] = -1
    monkeypatch.setattr(fingerprint, "load_committed", lambda path=None: tampered)
    report = run_lint([], rule_ids=frozenset({"config-fingerprint"}))
    assert not report.ok
    assert "stale" in report.violations[0].message


def test_update_fingerprint_regenerates(monkeypatch):
    written = []
    monkeypatch.setattr(
        fingerprint, "write_committed", lambda path=fingerprint.DATA_FILE: written.append(path) or {}
    )
    report = run_lint(
        [], update_fingerprint=True, rule_ids=frozenset({"config-fingerprint"})
    )
    assert report.ok
    assert written == [fingerprint.DATA_FILE]


def test_write_committed_round_trips(tmp_path):
    target = str(tmp_path / "fp.json")
    payload = fingerprint.write_committed(target)
    loaded = fingerprint.load_committed(target)
    assert loaded == payload
    assert loaded["digest"] == fingerprint.digest(loaded)
    # ... and the checked-in fingerprint matches the live schema.
    committed = fingerprint.load_committed()
    assert committed["digest"] == payload["digest"]
    assert committed["cache_version"] == payload["cache_version"]


# ----------------------------------------------------------------------
# Runner, report and CLI plumbing
# ----------------------------------------------------------------------


def test_syntax_error_reported_not_fatal(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    report = run_lint([str(broken)], rule_ids=frozenset({"wall-clock"}))
    assert [v.rule for v in report.violations] == ["syntax-error"]


def test_collect_files_sorted_and_deduped(tmp_path):
    (tmp_path / "b.py").write_text("")
    (tmp_path / "a.py").write_text("")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "a.py").write_text("")
    files = collect_files([str(tmp_path), str(tmp_path / "a.py")])
    assert files == [str(tmp_path / "a.py"), str(tmp_path / "b.py")]


def test_report_to_dict_shape():
    report = lint_one(BAD, "repro/core/determinism.py", "wall-clock")
    data = report.to_dict()
    assert data["ok"] is False
    assert data["files_checked"] == 1
    assert data["counts"].get("wall-clock", 0) >= 1
    assert "wall-clock" in data["rules"]
    v = data["violations"][0]
    assert set(v) == {"rule", "path", "line", "col", "message", "hint"}
    json.dumps(data)  # machine-readable means JSON-serialisable


def test_report_format_mentions_counts():
    report = LintReport(
        violations=[
            Violation(rule="wall-clock", path="x.py", line=3, col=1, message="m", hint="h")
        ],
        files_checked=1,
    )
    text = report.format()
    assert "x.py:3:1: [wall-clock] m" in text
    assert "hint: h" in text
    assert "1 file checked: 1 violation (0 suppressed)" in text


def test_every_rule_has_metadata():
    rules = all_rules()
    assert len(rules) >= 14
    for rule in rules:
        assert rule.id and rule.category and rule.description
        assert rule.hint, "rule %s has no fix-it hint" % rule.id


def test_cli_exit_codes(tmp_path, capsys):
    clean = os.path.join(CLEAN, "repro", "core", "determinism.py")
    bad = os.path.join(BAD, "repro", "core", "determinism.py")
    assert main([clean, "--rule", "wall-clock"]) == 0
    assert main([bad, "--rule", "wall-clock"]) == 1
    assert main([bad, "--rule", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err


def test_cli_json_output(capsys):
    bad = os.path.join(BAD, "repro", "core", "determinism.py")
    assert main([bad, "--rule", "wall-clock", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["counts"]["wall-clock"] >= 1


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


def test_repro_cli_exposes_lint(capsys):
    from repro.cli import main as repro_main

    clean = os.path.join(CLEAN, "repro", "core", "determinism.py")
    assert repro_main(["lint", clean, "--rule", "wall-clock"]) == 0
    assert repro_main(["lint", clean, "--rule", "bogus"]) == 2
    capsys.readouterr()


def test_installed_package_is_lint_clean():
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    report = run_lint([pkg])
    assert report.ok, report.format()

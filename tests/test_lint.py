"""Tests for the reprolint static-analysis suite.

Each rule gets one positive assertion (the seeded violation in
``tests/lint_fixtures/badrepo`` is flagged) and one negative (the clean
counterpart in ``tests/lint_fixtures/cleanrepo`` passes).  The fixture
trees mirror the package layout so path-scoped rules apply via the
suffix matching in :func:`repro.lint.framework._match`.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.lint.framework import LintReport, Violation
from repro.lint.runner import RULES, collect_files, run_lint

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
    ("float-dict-key", "repro/api/cache.py"),
    ("hot-path-slots", "repro/timing/hot.py"),
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
    # Also: a `tick` outside any scheduler, the retired `_probe` site, a
    # scheduler `tick` that wakes instead of only dropping its candidate,
    # and a fetch engine's `tick` that wakes as well as lowering its flag.
    assert [v.line for v in report.violations] == [8, 9, 12, 13, 16, 20, 27, 31, 39]


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
# A report is a function of the files it was given
# ----------------------------------------------------------------------


def test_report_depends_on_the_given_files_alone(monkeypatch):
    # The deleted cache-key rules imported the installed package and
    # reported on its live SMConfig whatever path they were handed.
    import dataclasses

    import repro.timing.config as config

    @dataclasses.dataclass
    class Grown(config.SMConfig):
        subwarp_width: int = 8

    before = run_lint([CLEAN]).to_dict()
    monkeypatch.setattr(config, "SMConfig", Grown)
    after = run_lint([CLEAN])
    assert after.violations == []
    assert after.files_checked == len(collect_files([CLEAN])) > 0
    assert after.to_dict() == before


def test_building_the_parser_loads_no_rule_module():
    # `repro sweep` must not pay for lint: the rule modules (and the
    # service constants the vocabulary rules read) load in `repro lint`.
    code = (
        "import sys, repro.cli; repro.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.lint.r', 'repro.service'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


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
    assert sorted(rule.id for rule in RULES) == [
        "alloc-in-plan",
        "errstate-in-plan",
        "fault-vocabulary",
        "float-dict-key",
        "hot-path-slots",
        "id-keyed-dict",
        "observer-vocabulary",
        "protocol-vocabulary",
        "registry-discipline",
        "service-retry-bounded",
        "set-iteration",
        "unseeded-random",
        "wake-site-discipline",
        "wall-clock",
    ]
    for rule in RULES:
        assert rule.id and rule.category and rule.description
        assert rule.hint, "rule %s has no fix-it hint" % rule.id


def test_cli_exit_codes(tmp_path, capsys):
    clean = os.path.join(CLEAN, "repro", "core", "determinism.py")
    bad = os.path.join(BAD, "repro", "core", "determinism.py")
    assert main(["lint", clean, "--rule", "wall-clock"]) == 0
    assert main(["lint", bad, "--rule", "wall-clock"]) == 1
    assert main(["lint", bad, "--rule", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err


def test_cli_json_output(capsys):
    bad = os.path.join(BAD, "repro", "core", "determinism.py")
    assert main(["lint", bad, "--rule", "wall-clock", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["counts"]["wall-clock"] >= 1


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.id in out


def test_installed_package_is_lint_clean():
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    report = run_lint([pkg])
    assert report.ok, report.format()

"""Tests for the reprolint static-analysis suite.

Each rule gets one positive assertion (the seeded violation in
``tests/lint_fixtures/badrepo`` is flagged) and one negative (the clean
counterpart in ``tests/lint_fixtures/cleanrepo`` passes).  The fixture
trees mirror the package layout so path-scoped rules apply via the
suffix matching in :func:`repro.lint.framework._match`.  Per-site
tables then pin each kind of site a rule flags or lets pass (and each
scope edge), one small source per case, so a branch of a rule cannot
go dead without a named case failing.
"""

import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cli import main
from repro.lint.framework import LintError, LintReport, Violation
from repro.lint.runner import RULES, collect_files, run_lint

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
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
    ("hot-path-slots", "repro/timing/hot.py"),
    ("wake-site-discipline", "repro/core/wake.py"),
    ("alloc-in-plan", "repro/functional/compiled.py"),
    ("registry-discipline", "repro/core/schedulers.py"),
]


def test_every_rule_has_a_fixture():
    # A rule lands with its seeded and its clean fixture, or not at all.
    assert {rule for rule, _ in FILE_RULE_CASES} == {rule.id for rule in RULES}


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
    assert report.violations[0].line == 10


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
# Each kind of site a rule flags or lets pass, one source per case
# ----------------------------------------------------------------------


def lint_source(tmp_path, rel, source, rule_id):
    """Lines ``rule_id`` flags in ``source`` written at ``rel``."""
    path = tmp_path.joinpath(*rel.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    report = run_lint([str(path)], rule_ids=frozenset({rule_id}))
    return [v.line for v in report.violations]


HOT_PATH_SLOTS_SITES = {
    "plain-class": ("repro/core/sm.py", "class A:\n    pass\n", [1]),
    "slots-tuple": ("repro/core/sm.py", "class A:\n    __slots__ = ('x',)\n", []),
    "annotated-slots": ("repro/timing/l2.py", "class A:\n    __slots__: tuple = ()\n", []),
    "dataclass-without-slots": (
        "repro/timing/lsu.py",
        """\
        import dataclasses


        @dataclasses.dataclass(frozen=True)
        class A:
            x: int = 0
        """,
        [5],
    ),
    "dataclass-slots-false": (
        "repro/timing/lsu.py",
        "@dataclass(slots=False)\nclass A:\n    x: int = 0\n",
        [2],
    ),
    "dataclass-slots-true": (
        "repro/timing/lsu.py",
        "@dataclass(slots=True)\nclass A:\n    x: int = 0\n",
        [],
    ),
    "exception-subclass": ("repro/core/sm.py", "class Stall(RuntimeError):\n    pass\n", []),
    "error-suffix-base": ("repro/core/sm.py", "class Bad(errors.SimError):\n    pass\n", []),
    "enum-subclass": ("repro/core/warp.py", "class Kind(enum.IntEnum):\n    A = 1\n", []),
    "nested-class": (
        "repro/core/warp.py",
        "class A:\n    __slots__ = ()\n\n    class B:\n        pass\n",
        [4],
    ),
    "outside-the-engine-core": ("repro/core/schedulers.py", "class A:\n    pass\n", []),
}


@pytest.mark.parametrize("case", sorted(HOT_PATH_SLOTS_SITES))
def test_hot_path_slots_site(tmp_path, case):
    rel, source, lines = HOT_PATH_SLOTS_SITES[case]
    assert lint_source(tmp_path, rel, source, "hot-path-slots") == lines


ALLOC_IN_PLAN_SITES = {
    "module-level": ("repro/functional/compiled.py", "BUF = np.zeros(4)\n", []),
    "plan-closure": (
        "repro/functional/compiled.py",
        """\
        def compile_op(width):
            def plan(fw):
                return np.empty(width)
            return plan
        """,
        [3],
    ),
    "numpy-spelled-out": (
        "repro/functional/compiled.py",
        """\
        def compile_op(width):
            def plan(fw):
                return numpy.full(width, 1)
            return plan
        """,
        [3],
    ),
    "lambda-plan": (
        "repro/functional/compiled.py",
        "def compile_op(width):\n    return lambda fw: np.arange(width)\n",
        [2],
    ),
    "in-place-call": (
        "repro/functional/compiled.py",
        """\
        def compile_op(width):
            out = np.zeros(width)
            def plan(fw):
                return np.add(fw, 1, out=out)
            return plan
        """,
        [],
    ),
    "outside-compiled": (
        "repro/functional/ops.py",
        """\
        def compile_op(width):
            def plan(fw):
                return np.zeros(width)
            return plan
        """,
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(ALLOC_IN_PLAN_SITES))
def test_alloc_in_plan_site(tmp_path, case):
    rel, source, lines = ALLOC_IN_PLAN_SITES[case]
    assert lint_source(tmp_path, rel, source, "alloc-in-plan") == lines


WAKE_SITE_SITES = {
    "timing-warp-helpers": (
        "repro/core/warp.py",
        """\
        class TimingWarp:
            def wake_at(self, cycle):
                self.timer = cycle
                self.issue_woken = self.fetch_woken = True
        """,
        [],
    ),
    "class-nested-in-timing-warp": (
        "repro/core/warp.py",
        """\
        class TimingWarp:
            class Probe:
                def poke(self, warp):
                    warp.timer = 0
        """,
        [4],
    ),
    "scheduler-refresh-verdicts": (
        "repro/core/schedulers.py",
        """\
        class GTOScheduler:
            def _refresh(self, warp):
                warp.cand0 = warp.cand1 = None
                warp.suspended = False
                warp.issue_woken = False
                warp.timer = 0
        """,
        [6],
    ),
    "annotated-write": ("repro/timing/lsu.py", "def fill(warp):\n    warp.timer: int = 0\n", [2]),
    "other-field": ("repro/timing/lsu.py", "def fill(warp):\n    warp.pc = 0\n", []),
    "outside-core-and-timing": ("repro/api/engine.py", "def fill(warp):\n    warp.timer = 0\n", []),
}


@pytest.mark.parametrize("case", sorted(WAKE_SITE_SITES))
def test_wake_site_discipline_site(tmp_path, case):
    rel, source, lines = WAKE_SITE_SITES[case]
    assert lint_source(tmp_path, rel, source, "wake-site-discipline") == lines


REGISTRY_SITES = {
    "delete": "del POLICIES['x']\n",
    "augmented-write": "SCHEDULERS['x'] += 1\n",
    "dotted-singleton": "policy.OBSERVERS['x'] = o\n",
    "read": "spec = DIVERGENCE['stack']\n",
    "other-dict": "table['x'] = 1\n",
}


@pytest.mark.parametrize("case", sorted(REGISTRY_SITES))
def test_registry_discipline_site(tmp_path, case):
    lines = lint_source(tmp_path, "repro/plugin.py", REGISTRY_SITES[case], "registry-discipline")
    assert lines == ([] if case in ("read", "other-dict") else [1])


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------


def test_inline_suppression_same_line_line_above_and_all():
    report = lint_one(BAD, "repro/core/suppressed.py", "registry-discipline")
    assert report.violations == []
    assert report.suppressed == 3  # same-line, line-above and disable=all


SUPPRESSION_CASES = {
    "other-rule": ("x = POLICIES._entries  # repro-lint: disable=hot-path-slots\n", [1], 0),
    "id-list": (
        "x = POLICIES._entries  # repro-lint: disable=hot-path-slots, registry-discipline\n",
        [],
        1,
    ),
    "two-lines-above": (
        "# repro-lint: disable=registry-discipline\n\nx = POLICIES._entries\n",
        [3],
        0,
    ),
}


@pytest.mark.parametrize("case", sorted(SUPPRESSION_CASES))
def test_suppression_names_the_rule_and_covers_one_line_below(tmp_path, case):
    source, lines, suppressed = SUPPRESSION_CASES[case]
    path = tmp_path / "plugin.py"
    path.write_text(source)
    report = run_lint([str(path)], rule_ids=frozenset({"registry-discipline"}))
    assert [v.line for v in report.violations] == lines
    assert report.suppressed == suppressed


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
    report = run_lint([str(broken)], rule_ids=frozenset({"hot-path-slots"}))
    assert [v.rule for v in report.violations] == ["syntax-error"]


def test_collect_files_sorted_and_deduped(tmp_path):
    (tmp_path / "b.py").write_text("")
    (tmp_path / "a.py").write_text("")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "a.py").write_text("")
    files = collect_files([str(tmp_path), str(tmp_path / "a.py")])
    assert files == [str(tmp_path / "a.py"), str(tmp_path / "b.py")]


def test_collect_files_refuses_a_missing_path(tmp_path, capsys):
    missing = str(tmp_path / "gone")
    with pytest.raises(LintError, match="no such file or directory"):
        collect_files([missing])
    assert main(["lint", missing]) == 2
    assert "no such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path,applies",
    [
        ("src/repro/core/sm.py", True),
        ("/site-packages/repro/timing/dram.py", True),
        ("src\\repro\\timing\\dram.py", True),
        ("src/repro/core/schedulers.py", False),
        ("src/repro/timing/sub/dram.py", True),
    ],
)
def test_scope_matches_any_suffix_of_the_path(path, applies):
    # `repro/timing/*.py` reaches a nested file too: fnmatch's `*`
    # crosses `/`, so the scope is a suffix glob, not a directory list.
    rule = next(r for r in RULES if r.id == "hot-path-slots")
    assert rule.applies_to(path) is applies


def test_report_to_dict_shape():
    report = lint_one(BAD, "repro/timing/hot.py", "hot-path-slots")
    data = report.to_dict()
    assert data["ok"] is False
    assert data["files_checked"] == 1
    assert data["counts"].get("hot-path-slots", 0) >= 1
    assert "hot-path-slots" in data["rules"]
    v = data["violations"][0]
    assert set(v) == {"rule", "path", "line", "col", "message", "hint"}
    json.dumps(data)  # machine-readable means JSON-serialisable


def test_report_format_mentions_counts():
    report = LintReport(
        violations=[
            Violation(rule="hot-path-slots", path="x.py", line=3, col=1, message="m", hint="h")
        ],
        files_checked=1,
    )
    text = report.format()
    assert "x.py:3:1: [hot-path-slots] m" in text
    assert "hint: h" in text
    assert "1 file checked: 1 violation (0 suppressed)" in text


def test_every_rule_has_metadata():
    assert sorted(rule.id for rule in RULES) == [
        "alloc-in-plan",
        "hot-path-slots",
        "registry-discipline",
        "wake-site-discipline",
    ]
    for rule in RULES:
        assert rule.id and rule.category and rule.description
        assert rule.hint, "rule %s has no fix-it hint" % rule.id


def _doc_section(name, heading):
    """The text of ``heading``'s section of ``name``, fenced code cut."""
    with open(os.path.join(ROOT, name), encoding="utf-8") as f:
        text = f.read()
    start = text.index("\n%s\n" % heading)
    end = text.find("\n## ", start + 1)
    section = text[start:end if end != -1 else None]
    return re.sub(r"^```.*?^```", "", section, flags=re.S | re.M)


def _rule_ids(text):
    spans = re.findall(r"`([^`\n]+)`", text)
    return {span for span in spans if re.fullmatch(r"[a-z]+(?:-[a-z]+)+", span)}


def test_docs_name_exactly_the_live_rules():
    # README names the rules once and links CONTRIBUTING's table, which
    # has one row per rule: a deleted rule or a missing one fails here.
    live = {rule.id for rule in RULES}
    assert _rule_ids(_doc_section("README.md", "## Static analysis")) == live
    section = _doc_section("CONTRIBUTING.md", "## When `repro lint` fires on your change")
    rows = re.findall(r"^\| (`[^`\n]+`) \|", section, flags=re.M)
    assert len(rows) == len(live)
    assert _rule_ids(" ".join(rows)) == live


def test_cli_exit_codes(tmp_path, capsys):
    clean = os.path.join(CLEAN, "repro", "timing", "hot.py")
    bad = os.path.join(BAD, "repro", "timing", "hot.py")
    assert main(["lint", clean, "--rule", "hot-path-slots"]) == 0
    assert main(["lint", bad, "--rule", "hot-path-slots"]) == 1
    assert main(["lint", bad, "--rule", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err


def test_cli_json_output(capsys):
    bad = os.path.join(BAD, "repro", "timing", "hot.py")
    assert main(["lint", bad, "--rule", "hot-path-slots", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["counts"]["hot-path-slots"] >= 1


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.id in out


def test_installed_package_is_lint_clean():
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    report = run_lint([pkg])
    assert report.ok, report.format()

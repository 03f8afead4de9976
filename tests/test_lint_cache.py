"""Tests for the incremental lint cache, ``--exclude`` and SARIF.

The cache soundness contract: a warm run is byte-identical to a cold
run; editing one file re-analyses exactly that file plus its call-graph
dependents; an untouched project is served entirely from cache with
zero parsing.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import (
    lint_paths,
    render_sarif,
    rule_catalogue,
    run_lint,
)
from repro.lint.framework import iter_python_files

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _package(root: Path, name: str, modules: dict) -> Path:
    pkg = root / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for mod, source in modules.items():
        (pkg / f"{mod}.py").write_text(textwrap.dedent(source))
    return pkg


def _chain_project(root: Path) -> Path:
    """a -> b -> c call chain, plus an unrelated module d."""
    return _package(
        root,
        "pkg",
        {
            "a": """
            from pkg.b import middle

            def top():
                return middle()
            """,
            "b": """
            from pkg.c import bottom

            def middle():
                return bottom()
            """,
            "c": """
            def bottom():
                return 1
            """,
            "d": """
            def unrelated():
                return 2
            """,
        },
    )


def _summary(findings):
    return [(f.path, f.rule, f.line, f.col, f.message) for f in findings]


class TestIncrementalCache:
    def test_warm_run_is_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        cold = run_lint([FIXTURES / "bad"], cache_dir=cache)
        warm = run_lint([FIXTURES / "bad"], cache_dir=cache)
        assert _summary(cold.findings) == _summary(warm.findings)
        assert cold.files_checked == warm.files_checked
        assert warm.analyzed == ()  # nothing re-analysed
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.files_checked

    def test_edit_reanalyses_only_file_and_dependents(self, tmp_path):
        pkg = _chain_project(tmp_path)
        cache = tmp_path / "cache"
        run_lint([pkg], cache_dir=cache)
        # Touch the bottom of the chain: a and b depend on c through
        # the call graph; d and __init__ must stay cached.
        (pkg / "c.py").write_text("def bottom():\n    return 3\n")
        warm = run_lint([pkg], cache_dir=cache)
        analyzed = {Path(p).name for p in warm.analyzed}
        cached = {Path(p).name for p in warm.cached}
        assert analyzed == {"a.py", "b.py", "c.py"}
        assert cached == {"__init__.py", "d.py"}

    def test_edit_leaf_does_not_reanalyse_dependencies(self, tmp_path):
        pkg = _chain_project(tmp_path)
        cache = tmp_path / "cache"
        run_lint([pkg], cache_dir=cache)
        # a.py is the top of the chain: nothing depends on it, so the
        # dirty closure is just a.py itself.
        (pkg / "a.py").write_text(
            "from pkg.b import middle\n\ndef top():\n    return middle() + 1\n"
        )
        warm = run_lint([pkg], cache_dir=cache)
        assert {Path(p).name for p in warm.analyzed} == {"a.py"}

    def test_new_file_invalidates_new_dependents(self, tmp_path):
        pkg = _chain_project(tmp_path)
        cache = tmp_path / "cache"
        run_lint([pkg], cache_dir=cache)
        # A new module that c.py could call does not exist yet; now add
        # e.py and rewrite c.py to call it — both must be analysed.
        (pkg / "e.py").write_text("def leaf():\n    return 4\n")
        (pkg / "c.py").write_text(
            "from pkg.e import leaf\n\ndef bottom():\n    return leaf()\n"
        )
        warm = run_lint([pkg], cache_dir=cache)
        analyzed = {Path(p).name for p in warm.analyzed}
        assert {"c.py", "e.py"} <= analyzed

    def test_cache_findings_survive_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        pkg = _package(
            tmp_path,
            "app",
            {
                "rng": """
                import numpy as np

                def bad():
                    return np.random.default_rng()
                """,
            },
        )
        cold = run_lint([pkg], cache_dir=cache)
        warm = run_lint([pkg], cache_dir=cache)
        assert _summary(cold.findings) == _summary(warm.findings)
        assert {f.rule for f in warm.findings} == {"R101"}
        assert warm.analyzed == ()

    def test_select_ignore_apply_to_cached_findings(self, tmp_path):
        cache = tmp_path / "cache"
        run_lint([FIXTURES / "bad"], cache_dir=cache)
        warm = run_lint([FIXTURES / "bad"], cache_dir=cache, select=["R101"])
        assert warm.analyzed == ()
        assert {f.rule for f in warm.findings} == {"R101"}


class TestLookupFingerprint:
    """C302 checks the first ``repro/service/protocol.py`` in the lint set.

    Linting ``good_c302 bad_c302`` picks the good file, so bad_c302's
    protocol has no findings; linting ``bad_c302`` alone picks it and
    gives four.  The pick is part of the matching files' fingerprints,
    so a warm run after a run over a different set equals a cold one.
    """

    BOTH = [FIXTURES / "good_c302", FIXTURES / "bad_c302"]
    BAD = [FIXTURES / "bad_c302"]

    def test_narrower_set_after_wider(self, tmp_path):
        cache = tmp_path / "cache"
        assert run_lint(self.BOTH, cache_dir=cache).findings == []
        warm = run_lint(self.BAD, cache_dir=cache)
        assert [f.rule for f in warm.findings] == ["C302"] * 4
        assert _summary(warm.findings) == _summary(run_lint(self.BAD).findings)

    def test_wider_set_after_narrower(self, tmp_path):
        cache = tmp_path / "cache"
        assert len(run_lint(self.BAD, cache_dir=cache).findings) == 4
        assert run_lint(self.BOTH, cache_dir=cache).findings == []
        assert len(run_lint(self.BAD, cache_dir=cache).findings) == 4
        # An unchanged pick is still served from the cache.
        warm = run_lint(self.BAD, cache_dir=cache)
        assert warm.analyzed == () and len(warm.findings) == 4


class TestJobs:
    """Separate ``repro lint`` invocations sharing one ``--cache-dir``."""

    def test_jobs_with_cache(self, tmp_path):
        cache = tmp_path / "cache"
        argv = ["lint", str(FIXTURES / "bad"), "--format=json",
                "--cache-dir", str(cache)]
        reports = []
        for _ in range(2):
            out = io.StringIO()
            assert main(argv, out=out) == 1
            reports.append(out.getvalue())
        assert reports[0] == reports[1]
        warm = run_lint([FIXTURES / "bad"], cache_dir=cache)
        assert [
            (d["path"], d["rule"], d["line"], d["col"], d["message"])
            for d in json.loads(reports[0])["findings"]
        ] == _summary(warm.findings)
        assert warm.analyzed == ()


class TestExclude:
    def test_iter_python_files_exclude_subtree(self):
        everything = iter_python_files([FIXTURES])
        pruned = iter_python_files([FIXTURES], exclude=[FIXTURES / "bad"])
        names = {p.name for p in pruned}
        assert "r101.py" not in names
        assert "flow_rng.py" in names  # good/ untouched
        assert len(pruned) < len(everything)

    def test_run_lint_exclude(self, tmp_path):
        run = run_lint([FIXTURES], exclude=[FIXTURES / "bad", FIXTURES / "bad_c302"])
        assert {f.rule for f in run.findings} <= {"X000", "X001"}
        assert not run.findings  # good trees are clean


class TestSarif:
    def test_sarif_payload_structure(self):
        findings = lint_paths([FIXTURES / "bad" / "r101.py"])
        text = render_sarif(findings, rule_catalogue(), "1.2.3")
        payload = json.loads(text)
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert driver["version"] == "1.2.3"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert {"R101", "F601", "D203", "K404", "S501"} <= set(rule_ids)
        for result in run["results"]:
            assert result["ruleId"] == "R101"
            assert rule_ids[result["ruleIndex"]] == "R101"
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith("r101.py")
            assert loc["region"]["startLine"] > 0

    def test_sarif_is_deterministic_and_warm_identical(self, tmp_path):
        cache = tmp_path / "cache"
        cold = run_lint([FIXTURES / "bad"], cache_dir=cache)
        warm = run_lint([FIXTURES / "bad"], cache_dir=cache)
        catalogue = rule_catalogue()
        assert render_sarif(cold.findings, catalogue, "0") == render_sarif(
            warm.findings, catalogue, "0"
        )

    def test_empty_findings_is_valid_sarif(self):
        payload = json.loads(render_sarif([], rule_catalogue(), "0"))
        assert payload["runs"][0]["results"] == []

"""Tests for the reprolint static-analysis subsystem.

Three layers: the fixture corpus (every known-bad file trips exactly
the rule its name advertises, every known-good file lints clean), the
filtering machinery (pragmas, ``--select``/``--ignore``, unknown ids),
and the CLI surface (exit codes, text and JSON reports).  The
self-hosted check — ``repro lint src/`` finds nothing at HEAD — is the
repo's own gate and lives here too.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    RULES,
    RULE_MODULES,
    UnknownRuleError,
    lint_paths,
    rule_catalogue,
)
from repro.lint.framework import known_rule_ids

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

BAD_EXPECTATIONS = {
    "a501.py": "A501",
    "r101.py": "R101",
    "r102.py": "R102",
    "r103.py": "R103",
    "d201.py": "D203",
    "d202.py": "D203",
    "k401.py": "K401",
    "k402.py": "K402",
    "k403.py": "K403",
    "c301.py": "C301",
    "c303.py": "D203",
    "f601.py": "F601",
    "d203.py": "D203",
    "k404.py": "K404",
    "s501.py": "S501",
    "x000.py": "X000",
    "x001.py": "X001",
}


def _rules(findings):
    return {f.rule for f in findings}


class TestBadFixtures:
    @pytest.mark.parametrize("filename", sorted(BAD_EXPECTATIONS))
    def test_fixture_trips_exactly_its_rule(self, filename):
        findings = lint_paths([FIXTURES / "bad" / filename])
        assert findings, f"{filename} produced no findings"
        assert _rules(findings) == {BAD_EXPECTATIONS[filename]}

    @pytest.mark.parametrize(
        "filename, lines",
        [
            ("d201.py", [7, 11]),
            ("d202.py", [8]),
            ("c303.py", [17, 21, 25, 29, 33]),
        ],
    )
    def test_folded_fixtures_keep_their_lines(self, filename, lines):
        # D201, D202 and C303 were folded into D203: every site they
        # reported is still reported, on the same line.
        findings = lint_paths([FIXTURES / "bad" / filename])
        assert [f.line for f in findings] == lines

    def test_every_bad_fixture_has_an_expectation(self):
        present = {p.name for p in (FIXTURES / "bad").glob("*.py")}
        assert present == set(BAD_EXPECTATIONS)

    def test_c302_project_fixture(self):
        findings = lint_paths([FIXTURES / "bad_c302"])
        assert _rules(findings) == {"C302"}
        messages = " ".join(f.message for f in findings)
        assert "_build_orphan" in messages  # unregistered builder
        assert "PhantomMech" in messages  # unknown class construction
        assert "_build_missing" in messages  # dangling registry value

    def test_findings_carry_location_and_severity(self):
        finding = lint_paths([FIXTURES / "bad" / "r101.py"])[0]
        assert finding.path.endswith("r101.py")
        assert finding.line > 0 and finding.col > 0
        assert finding.severity == "error"
        assert f"{finding.line}:{finding.col}: R101" in finding.format()


class TestGoodFixtures:
    def test_good_dir_is_clean(self):
        assert lint_paths([FIXTURES / "good"]) == []

    def test_good_c302_project_is_clean(self):
        assert lint_paths([FIXTURES / "good_c302"]) == []


class TestSelfHosted:
    def test_src_is_clean_at_head(self):
        assert lint_paths([REPO_ROOT / "src"]) == []


class TestSuppression:
    def _lint_source(self, tmp_path, source, **kwargs):
        path = tmp_path / "snippet.py"
        path.write_text(source)
        return lint_paths([path], **kwargs)

    def test_same_line_pragma_silences(self, tmp_path):
        findings = self._lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()  # reprolint: disable=R101\n",
        )
        assert findings == []

    def test_line_above_pragma_silences(self, tmp_path):
        findings = self._lint_source(
            tmp_path,
            "import numpy as np\n"
            "# reprolint: disable=R101\n"
            "rng = np.random.default_rng()\n",
        )
        assert findings == []

    def test_pragma_scopes_to_named_rule_only(self, tmp_path):
        findings = self._lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()  # reprolint: disable=R102\n",
        )
        assert _rules(findings) == {"R101"}

    def test_multi_id_pragma(self, tmp_path):
        findings = self._lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f(seed):\n"
            "    # reprolint: disable=R101, R103\n"
            "    return np.random.default_rng() or seed + 1\n",
        )
        assert findings == []

    def test_unknown_id_in_pragma_is_a_finding(self, tmp_path):
        findings = self._lint_source(
            tmp_path, "x = 1  # reprolint: disable=R999\n"
        )
        assert _rules(findings) == {"X001"}
        assert "R999" in findings[0].message

    def test_pragma_text_in_a_string_does_not_silence(self, tmp_path):
        # Pragmas come from comments only: pragma-shaped text inside a
        # string literal on the finding's line must not suppress it.
        findings = self._lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng, note = np.random.default_rng(), "
            "'# reprolint: disable=R101'\n",
        )
        assert _rules(findings) == {"R101"}

    def test_unknown_id_in_a_string_is_not_a_pragma(self, tmp_path):
        findings = self._lint_source(
            tmp_path, "NOTE = '# reprolint: disable=R999'\n"
        )
        assert findings == []

    def test_pragma_on_unrelated_line_does_not_silence(self, tmp_path):
        findings = self._lint_source(
            tmp_path,
            "import numpy as np\n"
            "# reprolint: disable=R101\n"
            "x = 1\n"
            "rng = np.random.default_rng()\n",
        )
        assert _rules(findings) == {"R101"}


class TestSelectIgnore:
    def test_select_keeps_only_named_rules(self):
        findings = lint_paths([FIXTURES / "bad"], select=["R101"])
        assert findings and _rules(findings) == {"R101"}

    def test_ignore_drops_named_rules(self):
        findings = lint_paths([FIXTURES / "bad"], ignore=["R101", "X000"])
        rules = _rules(findings)
        assert "R101" not in rules and "X000" not in rules
        assert rules  # everything else still reported

    def test_ignore_applies_after_select(self):
        findings = lint_paths(
            [FIXTURES / "bad"], select=["R101"], ignore=["R101"]
        )
        assert findings == []

    def test_unknown_select_id_is_a_hard_error(self):
        with pytest.raises(UnknownRuleError, match="BOGUS"):
            lint_paths([FIXTURES / "bad"], select=["BOGUS"])

    def test_unknown_ignore_id_is_a_hard_error(self):
        with pytest.raises(UnknownRuleError, match="NOPE"):
            lint_paths([FIXTURES / "bad"], ignore=["NOPE"])

    def test_pseudo_ids_are_selectable(self):
        findings = lint_paths([FIXTURES / "bad"], select=["X000"])
        assert _rules(findings) == {"X000"}


class TestRegistry:
    def test_catalogue_covers_all_registered_rules(self):
        catalogue = {entry["id"]: entry for entry in rule_catalogue()}
        assert set(catalogue) == set(RULES)
        for entry in catalogue.values():
            assert entry["name"] and entry["description"]

    def test_folded_rules_are_gone(self):
        # D201/D202 (digest hygiene) and C303 (shard routing) live on as
        # D203 sources and sinks.
        assert not {"D201", "D202", "C303"} & known_rule_ids()

    def test_known_ids_include_pseudo_rules(self):
        ids = known_rule_ids()
        assert {"X000", "X001"} <= ids
        assert set(RULES) <= ids

    def test_rule_modules_are_auto_discovered(self):
        # pkgutil discovery must have picked up every rules_* module in
        # the package directory, and each must register at least one
        # rule under an id present in the live registry.
        import importlib

        package_dir = Path(
            importlib.import_module("repro.lint").__file__
        ).parent
        on_disk = {
            p.stem for p in package_dir.glob("rules_*.py")
        }
        assert set(RULE_MODULES) == on_disk and on_disk
        registered_by = {}
        for rule_cls in RULES.values():
            registered_by.setdefault(rule_cls.__module__, []).append(
                rule_cls.id
            )
        for name in RULE_MODULES:
            ids = registered_by.get(f"repro.lint.{name}", [])
            assert ids, f"{name} registers no rules"


class TestCli:
    def _run(self, *argv):
        out = io.StringIO()
        code = main(["lint", *argv], out=out)
        return code, out.getvalue()

    def test_clean_path_exits_zero(self):
        code, text = self._run(str(FIXTURES / "good"))
        assert code == 0
        assert "0 findings" in text

    def test_findings_exit_one(self):
        code, text = self._run(str(FIXTURES / "bad" / "r101.py"))
        assert code == 1
        assert "R101" in text

    def test_json_report(self):
        code, text = self._run(str(FIXTURES / "bad" / "r101.py"), "--format=json")
        assert code == 1
        payload = json.loads(text)
        assert payload["schema"] == 2
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"R101": 2}
        assert all(f["rule"] == "R101" for f in payload["findings"])

    @pytest.mark.parametrize(
        "flag", ["--jobs=2", "--baseline=b.json", "--write-baseline=b.json"]
    )
    def test_removed_options_are_rejected(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            self._run(str(FIXTURES / "good"), flag)
        assert excinfo.value.code == 2

    def test_select_filter(self):
        code, text = self._run(str(FIXTURES / "bad"), "--select", "R103")
        assert code == 1
        assert "R103" in text and "R101" not in text

    def test_ignore_filter(self):
        code, text = self._run(
            str(FIXTURES / "bad" / "r101.py"), "--ignore", "R101"
        )
        assert code == 0

    def test_unknown_rule_id_exits_two(self, capsys):
        code, _ = self._run(str(FIXTURES / "good"), "--select", "BOGUS")
        assert code == 2
        assert "BOGUS" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        code, _ = self._run("does/not/exist")
        assert code == 2
        assert "no such path" in capsys.readouterr().err

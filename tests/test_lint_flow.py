"""Tests for the flow-sensitive lint engine (call graph + dataflow).

Covers the project call graph (module naming, call resolution through
aliases / methods / local bindings, file-dependency edges), genuinely
cross-file taint flows for every flow-rule family, the pragma contract
when the finding's anchor line sits in a *different file* than the
cause, and the sanctioned ``repro.cache`` seed-tokenisation boundary
that F601 must never flag.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import ProjectContext, lint_paths, parse_file
from repro.lint.callgraph import CallGraph, module_name


def _write(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _package(root: Path, name: str, modules: dict) -> Path:
    pkg = root / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for mod, source in modules.items():
        _write(root, f"{name}/{mod}.py", source)
    return pkg


def _graph(*paths: Path) -> CallGraph:
    project = ProjectContext(files=[parse_file(p) for p in sorted(paths)])
    return project.callgraph()


def _rules(findings):
    return {f.rule for f in findings}


class TestModuleName:
    def test_package_walk(self, tmp_path):
        pkg = _package(tmp_path, "pkg", {})
        sub = pkg / "sub"
        sub.mkdir()
        (sub / "__init__.py").write_text("")
        mod = _write(tmp_path, "pkg/sub/mod.py", "")
        assert module_name(mod) == "pkg.sub.mod"
        assert module_name(pkg / "__init__.py") == "pkg"

    def test_bare_script_maps_to_stem(self, tmp_path):
        script = _write(tmp_path, "snippet.py", "")
        assert module_name(script) == "snippet"


class TestCallResolution:
    def test_module_function_and_method_calls(self, tmp_path):
        path = _write(
            tmp_path,
            "app.py",
            """
            class Worker:
                def __init__(self):
                    self.count = 0

                def step(self):
                    return helper()

            def helper():
                return 1

            def run():
                w = Worker()
                return w.step()
            """,
        )
        graph = _graph(path)
        by_name = {fi.name: fi for fi in graph.functions_in_order()}
        assert set(by_name) == {"__init__", "step", "helper", "run"}
        step_targets = set(graph.call_targets(by_name["step"]).values())
        assert step_targets == {"app.helper"}
        # run() resolves both the constructor and the local-binding
        # method call w.step().
        run_targets = set(graph.call_targets(by_name["run"]).values())
        assert run_targets == {"app.Worker.__init__", "app.Worker.step"}

    def test_cross_module_alias_resolution(self, tmp_path):
        _package(
            tmp_path,
            "pkg",
            {
                "gen": """
                def make():
                    return 1
                """,
                "use": """
                from pkg.gen import make

                def caller():
                    return make()
                """,
            },
        )
        graph = _graph(*tmp_path.rglob("*.py"))
        caller = next(
            fi for fi in graph.functions_in_order() if fi.name == "caller"
        )
        assert set(graph.call_targets(caller).values()) == {"pkg.gen.make"}
        assert graph.callers()["pkg.gen.make"] == ("pkg.use.caller",)

    def test_file_dependencies_follow_call_edges(self, tmp_path):
        _package(
            tmp_path,
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
            },
        )
        graph = _graph(*tmp_path.rglob("*.py"))
        deps = graph.transitive_dependencies()
        a = str(tmp_path / "pkg" / "a.py")
        b = str(tmp_path / "pkg" / "b.py")
        c = str(tmp_path / "pkg" / "c.py")
        assert b in deps[a] and c in deps[a]
        assert c in deps[b]
        assert deps[c] <= {c}


class TestCrossFileFlows:
    """One genuinely cross-file taint flow per flow-rule family."""

    def test_f601_rng_made_in_one_file_hashed_in_another(self, tmp_path):
        _package(
            tmp_path,
            "pkg",
            {
                "gen": """
                import numpy as np

                def make_generator():
                    return np.random.default_rng(0)
                """,
                "use": """
                import hashlib

                from pkg.gen import make_generator

                def fingerprint():
                    gen = make_generator()
                    draw = gen.standard_normal(4)
                    return hashlib.sha256(draw.tobytes()).hexdigest()
                """,
            },
        )
        findings = lint_paths([tmp_path])
        assert _rules(findings) == {"F601"}
        # The anchor is the sink file, not the file that made the rng.
        assert all(f.path.endswith("use.py") for f in findings)

    def test_d203_clock_crosses_a_module_boundary(self, tmp_path):
        _package(
            tmp_path,
            "pkg",
            {
                "clock": """
                import time

                def stamp():
                    return time.time()
                """,
                "keys": """
                import hashlib

                from pkg.clock import stamp

                def payload_sha():
                    return hashlib.sha256(str(stamp()).encode()).hexdigest()
                """,
            },
        )
        findings = lint_paths([tmp_path])
        assert _rules(findings) == {"D203"}
        assert all(f.path.endswith("keys.py") for f in findings)

    def test_s501_blocking_callee_lives_in_another_file(self, tmp_path):
        _package(
            tmp_path,
            "pkg",
            {
                "worker": """
                import time

                def warm():
                    time.sleep(1.0)
                """,
                "service": """
                from pkg.worker import warm

                async def refresh():
                    warm()
                """,
            },
        )
        findings = lint_paths([tmp_path])
        assert _rules(findings) == {"S501"}
        (finding,) = findings
        assert finding.path.endswith("worker.py")
        assert "refresh" in finding.message and "warm" in finding.message


class TestCrossFilePragmas:
    """Satellite: pragma interaction with project-wide rules — the
    suppression must act at the finding's anchor line even when the
    *cause* (the taint source) is in a different file."""

    GEN = """
    import numpy as np

    def make_generator():
        return np.random.default_rng(0)
    """

    def test_pragma_at_sink_silences_cross_file_finding(self, tmp_path):
        _package(
            tmp_path,
            "pkg",
            {
                "gen": self.GEN,
                "use": """
                import hashlib

                from pkg.gen import make_generator

                def fingerprint():
                    gen = make_generator()
                    # reprolint: disable=F601
                    return hashlib.sha256(gen.standard_normal(4).tobytes()).hexdigest()
                """,
            },
        )
        assert lint_paths([tmp_path]) == []

    def test_pragma_in_cause_file_does_not_silence_sink(self, tmp_path):
        _package(
            tmp_path,
            "pkg",
            {
                "gen": """
                import numpy as np

                def make_generator():
                    # reprolint: disable=F601
                    return np.random.default_rng(0)
                """,
                "use": """
                import hashlib

                from pkg.gen import make_generator

                def fingerprint():
                    gen = make_generator()
                    return hashlib.sha256(gen.standard_normal(4).tobytes()).hexdigest()
                """,
            },
        )
        findings = lint_paths([tmp_path])
        # Suppressing at the source does nothing: the finding anchors
        # at the sink, and X001 flags the pragma as unused?  No — the
        # pragma names a real rule, so it is simply inert.
        assert _rules(findings) == {"F601"}
        assert all(f.path.endswith("use.py") for f in findings)

    def test_unknown_id_in_multi_rule_disable_is_x001(self, tmp_path):
        _package(
            tmp_path,
            "pkg",
            {
                "gen": self.GEN,
                "use": """
                import hashlib

                from pkg.gen import make_generator

                def fingerprint():
                    gen = make_generator()
                    # reprolint: disable=F601, R999
                    return hashlib.sha256(gen.standard_normal(4).tobytes()).hexdigest()
                """,
            },
        )
        findings = lint_paths([tmp_path])
        # The known id still suppresses its finding; the unknown one is
        # its own X001 finding rather than a silent no-op.
        assert _rules(findings) == {"X001"}
        assert "R999" in findings[0].message


class TestSanctionedTokeniserBoundary:
    """Regression pin for the audited ``repro.cache`` boundary.

    ``seed_token`` identifies a live Generator by its bit-generator
    state on purpose (the estimate cache fast-forwards the generator on
    a hit), so generators flowing into ``seed_token``/``estimate_digest``
    are the sanctioned key path — F601 must stay quiet there, while the
    same flow into any *other* key-suffixed call is still flagged.
    """

    def test_generator_into_estimate_digest_is_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "sanctioned.py",
            """
            import numpy as np

            from repro.cache import estimate_digest, seed_token

            def describe(instance, mechanism, params):
                gen = np.random.default_rng(instance)
                token = seed_token(gen)
                return estimate_digest(instance, mechanism, seed=gen, params=params)
            """,
        )
        assert lint_paths([path]) == []

    def test_same_flow_into_other_key_call_still_fires(self, tmp_path):
        path = _write(
            tmp_path,
            "unsanctioned.py",
            """
            import numpy as np

            def payload_digest(value):
                return str(value)

            def describe(instance):
                gen = np.random.default_rng(instance)
                return payload_digest(gen)
            """,
        )
        findings = lint_paths([path])
        assert _rules(findings) == {"F601"}
        assert "payload_digest" in findings[0].message


class TestDigestPuritySourcesAndSinks:
    """The checks D201, D202 and C303 made at one call site, as D203
    sources and sinks that follow values across statements and files."""

    def _lint(self, tmp_path, source):
        return lint_paths([_write(tmp_path, "snippet.py", source)])

    def test_key_function_returning_a_helper_clock(self, tmp_path):
        _package(
            tmp_path,
            "pkg",
            {
                "clock": """
                import time

                def stamp():
                    return time.time()
                """,
                "keys": """
                from pkg.clock import stamp

                def request_key(payload):
                    label = f"{payload}:{stamp()}"
                    return label
                """,
            },
        )
        findings = lint_paths([tmp_path])
        assert _rules(findings) == {"D203"}
        assert "return of request_key" in findings[0].message

    def test_routing_function_with_salted_hash(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            def pick_shard(key, n_shards):
                slot = hash(key)
                return slot % n_shards
            """,
        )
        assert _rules(findings) == {"D203"}
        assert "salted-hash" in findings[0].message
        assert "shard-routing decision" in findings[0].message

    def test_entropy_sources_reach_routing(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import os
            import random
            import secrets
            import uuid

            def route_a(n):
                return random.randrange(n)

            def route_b(n):
                return secrets.randbelow(n)

            def route_c(n):
                return uuid.uuid1().int % n

            def route_d(n):
                return os.getppid() % n
            """,
        )
        d203 = [f.line for f in findings if f.rule == "D203"]
        assert d203 == [8, 11, 14, 17]
        # The stdlib draw is also a legacy global-state call.
        assert _rules(findings) == {"D203", "R102"}

    def test_content_uuids_and_routine_names_are_clean(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import time
            import uuid

            NS = uuid.UUID("6ba7b810-9dad-11d1-80b4-00c04fd430c8")

            def request_key(payload):
                return uuid.uuid5(NS, payload).hex

            def subroutine():
                return time.time()
            """,
        )
        assert findings == []

    def test_unsorted_json_reaches_hash_across_statements(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import hashlib
            import json

            def fingerprint(payload):
                text = json.dumps(payload)
                data = text.encode()
                return hashlib.sha256(data).hexdigest()

            def canonical_fingerprint(payload):
                text = json.dumps(payload, sort_keys=True)
                return hashlib.sha256(text.encode()).hexdigest()
            """,
        )
        assert [f.line for f in findings] == [8]
        assert "dict-order" in findings[0].message

    def test_caller_taint_reports_once_at_the_call(self, tmp_path):
        # A key function returning its own parameter is clean; the
        # caller handing it a clock reading is the one finding.
        findings = self._lint(
            tmp_path,
            """
            import time

            def coalesce_key(payload):
                return payload

            def submit():
                return coalesce_key(time.time())
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("D203", 8)]

    def test_helper_sorting_its_argument_launders_the_callers_set(self, tmp_path):
        fixture = Path(__file__).parent / "lint_fixtures" / "good" / "flow_launder.py"
        assert lint_paths([fixture]) == []
        unsorted = fixture.read_text().replace(
            "return sorted(values)", "return list(values)"
        )
        path = tmp_path / "flow_launder.py"
        path.write_text(unsorted)
        findings = lint_paths([path])
        assert [(f.rule, f.line) for f in findings] == [("D203", 20)]
        assert "unordered-set" in findings[0].message

    def test_helper_sink_after_sorting_is_clean_for_a_set(self, tmp_path):
        # The placeholder reaching the sink carries the kill too.
        findings = self._lint(
            tmp_path,
            """
            import hashlib

            def digest_of(values):
                return hashlib.sha256(str(sorted(values)).encode()).hexdigest()

            def digest_of_list(values):
                return hashlib.sha256(str(list(values)).encode()).hexdigest()

            def caller(a, b):
                return digest_of({a, b}), digest_of_list({a, b})
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("D203", 11)]
        assert "through digest_of_list()" in findings[0].message

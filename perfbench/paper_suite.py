"""``paper_suite``: every registered experiment, in registry order.

Each operation is one ``repro run all`` pass through the public CLI
entry point with its defaults (serial engine, no cache, one job).  Pass
``j`` uses experiment seed ``derive(seed, j)``: how long a pass takes
depends on its seed by about a tenth, so a run averages over several.
Passes run at ``--scale smoke``: a ``--scale default``
pass takes about 70 s on a 2-core machine, more than one benchmark run
may take.  The default-scale golden tables are checked instead, as a
gate, whenever the seed is 0.  Set-up is a CLI cold start: a fresh
interpreter importing the package and listing the registry.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from typing import Optional

from harness import Measurement, check_table, closed_loop, derive, golden_diff, parse_tables

SCALE = "smoke"
SETUP_REPEATS = 5
GOLDEN = "experiment_results_default.txt"
ROOT = os.getcwd()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def setup(seed: int, tracer=None):
    subprocess.run(
        [sys.executable, "-m", "repro", "list"], cwd=ROOT, env=_env(),
        check=True, capture_output=True, timeout=120,
    )
    with open(os.path.join(ROOT, GOLDEN)) as handle:
        golden = handle.read()
    return {"golden": golden, "tables": parse_tables(golden)}


def teardown(state) -> None:
    pass


def measure(state, seed: int, seconds: float,
            ops: Optional[int] = None, tracer=None) -> Measurement:
    from repro.cli import main
    from repro.experiments import list_experiments

    experiments = len(list_experiments())
    out = Measurement()

    def one_pass(k: int):
        buffer = io.StringIO()
        pass_seed = derive(seed, k)
        code = main(["run", "all", "--scale", SCALE, "--seed", str(pass_seed)], out=buffer)
        tables = parse_tables(buffer.getvalue())
        out.attempted += experiments
        if code != 0:
            out.failures.append(f"repro run all --seed {pass_seed} exited {code}")
        for eid, golden in state["tables"].items():
            if eid not in tables:
                out.failures.append(f"{eid}: no table in the pass output")
                continue
            out.failures.extend(check_table(eid, tables[eid], golden))
        return experiments, None

    closed_loop(out, seconds, ops, one_pass)
    out.named["suite_s"] = (out.p50_ms(False) / 1000, "s", out.ops)
    return out


def gates(state, seed: int, result: Measurement) -> None:
    """At seed 0, a default-scale pass must reproduce the golden file."""
    if seed != 0:
        return
    run = subprocess.run(
        [sys.executable, "-m", "repro", "run", "all", "--scale", "default", "--seed", "0"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=150,
    )
    result.attempted += 1
    diffs = golden_diff(state["golden"], run.stdout)
    if run.returncode != 0 or diffs:
        result.failures.append(
            f"default-scale tables differ from {GOLDEN}: "
            + "; ".join(diffs[:3] or [run.stderr.strip()[-200:]])
        )

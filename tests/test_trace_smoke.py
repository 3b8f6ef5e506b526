"""The benchmark's traced runs still work against the current program.

perfbench/tracer.py wraps the program's modules from outside: every public
function, IncrementalSpan.insert, and the state constructor.  These tests run
perfbench/child.py in trace mode in a fresh process and read the counts it
writes, so a change that breaks that contract fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def traced_run(tmp_path, *cli_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    timing, trace = tmp_path / "timing.json", tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(timing), "trace", str(trace), "--",
         *cli_args, "--json"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(timing.read_text())["rc"] == 0
    return json.loads(trace.read_text())


def assert_spanned(trace, names):
    """Each named layer, which perfbench/run.py:layer_metrics reads, has a
    span; a renamed function would otherwise zero its metric silently."""
    missing = [name for name in names
               if trace["layers"].get(name, {}).get("calls", 0) == 0]
    assert missing == []


def test_traced_diag_roots(tmp_path):
    trace = traced_run(tmp_path, "roots", str(
        ROOT / "perfbench" / "scenarios" / "diag_roots.json"))
    assert trace["counts"]["engine.states_built"] == 32
    # phi(N) > 1 blocks are still eliminated by IncrementalSpan.insert
    assert_spanned(trace, [
        "groupoid.reflect", "groupoid.l_j_max", "groupoid.real_roots",
        "groupoid.explore_groupoid", "ydmodule.check_axioms",
        "ydmodule.fingerprint", "linalg.insert"])
    assert trace["counts"]["groupoid.nodes"] == 44
    assert trace["counts"]["groupoid.edges"] == 112
    # only the 7 input blocks run the axiom sweep; the top chain modules
    # hold the axioms by construction (tests/test_derived_certification.py)
    assert trace["layers"]["ydmodule.check_axioms"]["calls"] == 7
    # the groupoid and its reflections ask for 447 fingerprints; a module
    # computes its own once and caches it
    assert trace["layers"]["ydmodule.fingerprint"]["calls"] == 447


def test_traced_dn_derive(tmp_path):
    trace = traced_run(tmp_path, "derive", str(
        ROOT / "src" / "nichols" / "scenarios" / "dn_obstruction.json"))
    assert trace["counts"]["engine.states_built"] == 2
    assert_spanned(trace, [
        "cli.build_blocks", "derivations.ad_c", "derivations.evaluate_expr",
        "engine.action_columns", "engine.extend_degree",
        "groupoid.cartan_entry"])

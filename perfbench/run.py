"""Benchmark of the ``nichols`` CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is the CLI commands of one round: ``dn-verify`` runs the D9
``derive`` and then ``verify-paper``, and each command is also a workload
of its own.  Every operation is one CLI command in a fresh single-threaded
process, run one at a time (a closed loop with one client).  The seed picks
an isomorphic relabelling of each command's input, so every seed does the
same work on different labels.  Every output is checked against a
computation in ``reference.py`` or against a result of the paper, never
against stored program output.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (per command a median over the run's operations, summed
over the round's commands); with ``--trace 1`` each round runs every
command once untraced and once under ``tracer.py``, and the object holds
the per-layer metrics of the traced runs.  A results file for each run goes
to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import cartan_from_diagonal, hilbert_product, root_closure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# set-up-only processes before each operation; the set-up inside each
# operation is a further sample.  Spreading them over the run makes their
# median steadier than a burst at the start would.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# the paper's witness for the D9 pair (Theorem theorem:dn, proof): the
# iterated derivative is -v5, so the adjoint chain is alive at degree 3
D9_WITNESS = "-v5"
D9_PROBE_VERDICT = "a[1,2] <= -2"
# Hilbert series of the S5 transposition algebra: [4]^4 [5]^2 [6]^4
FK5_FACTORS = [4] * 4 + [5] * 2 + [6] * 4
# the verify-paper matrix has eleven checks
VERIFY_CHECKS = 11

DEGREES = range(1, 7)
CONDUCTORS = (1, 3, 8, 12)
VERIFY_NAMES = (
    "fk3-dimension", "s4-dimensions", "s3-pair-obstruction",
    "d9-pair-obstruction", "s4-mixed-pair-obstruction",
    "multiplication-table", "symmetrizer-oracle",
    "duality-and-inverse-braiding", "reflection-invariance",
    "finite-type-recognition", "zero-cartan-factorization")


# -- inputs: one isomorphic relabelling per seed


def _dihedral_input(rng, workdir):
    """The bundled D9 pair under the automorphism x^a y^b -> x^a y^(aj+kb)."""
    scenario = json.loads((SRC / "nichols/scenarios/dn_obstruction.json")
                          .read_text())
    n = 9
    k = rng.choice([u for u in range(1, n) if u % 3])
    j = rng.randrange(n)

    def image(elem):
        a, b = elem
        return [a, (a * j + k * b) % n]

    for case in scenario["cases"]:
        for spec in case["modules"]:
            spec["class_rep"] = image(spec["class_rep"])
            spec["numeration"] = {
                key: [image(e) for e in spec["numeration"][key]]
                for key in ("members", "reps")}
            spec["rho"]["values"] = {
                ",".join(map(str, image([int(x) for x in key.split(",")]))): v
                for key, v in spec["rho"]["values"].items()}
    return _write(workdir, "dn_obstruction.json", scenario)


def _compose(a, b):
    return tuple(a[b[i] - 1] for i in range(len(a)))


def _inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x - 1] = i + 1
    return tuple(out)


def _fk5_input(rng, workdir):
    """The S5 scenario conjugated by a seeded permutation, with a pinned
    numeration of the transposition class carried along."""
    scenario = json.loads((HERE / "scenarios/fk5_hilbert.json").read_text())
    sigma = list(range(1, 6))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    sigma_inv = _inverse(sigma)

    def conj(p):
        return list(_compose(_compose(sigma, tuple(p)), sigma_inv))

    pairs = [(1, 2)] + [(a, b) for a in range(1, 6) for b in range(a + 1, 6)
                        if (a, b) != (1, 2)]
    members, reps = [], []
    for a, b in pairs:
        t = list(range(1, 6))
        t[a - 1], t[b - 1] = b, a
        rest = [x for x in range(1, 6) if x not in (a, b)]
        members.append(conj(t))
        reps.append(conj([a, b] + rest))
    for case in scenario["cases"]:
        for spec in case["modules"]:
            spec["class_rep"] = conj(spec["class_rep"])
            spec["numeration"] = {"members": members, "reps": reps}
            spec["rho"]["values"] = {
                ",".join(map(str, conj([int(x) for x in key.split(",")]))): v
                for key, v in spec["rho"]["values"].items()}
    return _write(workdir, "fk5_hilbert.json", scenario)


def _diag_input(rng, workdir):
    """The diagonal cases in a seeded order, each with its nodes permuted."""
    scenario = json.loads((HERE / "scenarios/diag_roots.json").read_text())
    cases = scenario["cases"]
    rng.shuffle(cases)
    for case in cases:
        q = case["diagonal"]
        perm = list(range(len(q)))
        rng.shuffle(perm)
        case["diagonal"] = [[q[pi][pj] for pj in perm] for pi in perm]
    return _write(workdir, "diag_roots.json", scenario)


def _write(workdir, name, scenario):
    path = Path(workdir) / name
    path.write_text(json.dumps(scenario, indent=1))
    return path


# -- output checks; each returns a list of mismatches


def _check_derive(report, rc, scenario):
    if rc != 0:
        return [f"exit code {rc}"]
    bad = []
    for res in report["results"]:
        if res["value"] != D9_WITNESS:
            bad.append(f"{res['label']}: value {res['value']}")
        probe = res.get("cartan_probe", {})
        if probe.get("verdict") != D9_PROBE_VERDICT or probe.get("entry") != \
                {"unbounded_at_cap": 3, "chain_reached": 3}:
            bad.append(f"{res['label']}: probe {probe}")
    return bad


def _check_hilbert(report, rc, scenario):
    if rc != 0:
        return [f"exit code {rc}"]
    want = hilbert_product(FK5_FACTORS)[:report["cap"] + 1]
    bad = []
    for res in report["results"]:
        if res["dims"] != want:
            bad.append(f"{res['label']}: dims {res['dims']} != {want}")
        if res["finished"] is not False or res["total"] is not None:
            bad.append(f"{res['label']}: claims to be finished")
    return bad


def _check_roots(report, rc, scenario):
    if rc != 0:
        return [f"exit code {rc}"]
    cases = {c["label"]: c for c in json.loads(scenario.read_text())["cases"]}
    bad = []
    if [r["label"] for r in report["results"]] != list(cases):
        bad.append("case labels or order differ from the scenario")
    for res in report["results"]:
        want = root_closure(cartan_from_diagonal(
            cases[res["label"]]["diagonal"]))
        got = {tuple(r) for r in res["roots"]}
        if got != want or res["count"] != len(want):
            bad.append(f"{res['label']}: {len(got)} roots, want {len(want)}")
        if res["partial"] is not False:
            bad.append(f"{res['label']}: partial")
    return bad


def _check_verify(report, rc, scenario):
    rows = report["results"]
    bad = [f"{row['check']}: {row['status']}" for row in rows
           if row["status"] != "PASS"]
    if len(rows) != VERIFY_CHECKS or report["passed"] != VERIFY_CHECKS:
        bad.append(f"{report['passed']} of {len(rows)} checks passed")
    if rc != 0:
        bad.append(f"exit code {rc}")
    return bad


COMMANDS = {
    "dn-derive": ("derive", _dihedral_input, _check_derive),
    "fk5-hilbert": ("hilbert", _fk5_input, _check_hilbert),
    "diag-roots": ("roots", _diag_input, _check_roots),
    "verify-paper": ("verify-paper", None, _check_verify),
}

# a workload is the commands of one round; each command alone is one too
WORKLOADS = {name: (name,) for name in COMMANDS}
WORKLOADS["dn-verify"] = ("dn-derive", "verify-paper")


# -- processes


class Op:
    """One finished child process."""

    def __init__(self, rc, t_spawn, total_s, timing, stdout, stderr):
        self.rc = rc
        self.t_spawn = t_spawn
        self.total_s = total_s
        self.timing = timing
        self.stdout = stdout
        self.stderr = stderr

    @property
    def setup_s(self):
        """Interpreter start and imports, then scenario parsing and module
        construction, which the child timed in place."""
        return self.timing["t_ready"] - self.t_spawn + \
            self.timing["setup_parts_s"]

    @property
    def solve_s(self):
        return self.total_s - self.setup_s - self.timing.get("dump_s", 0.0)


def spawn(mode, cli_args, workdir, trace_path=None):
    timing_path = Path(workdir) / "timing.json"
    if timing_path.exists():
        timing_path.unlink()
    cmd = [sys.executable, str(HERE / "child.py"), str(timing_path), mode]
    if trace_path is not None:
        cmd.append(str(trace_path))
    cmd += ["--"] + cli_args
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    total = time.perf_counter() - t_spawn
    timing = json.loads(timing_path.read_text()) if timing_path.exists() \
        else None
    return Op(proc.returncode, t_spawn, total, timing, proc.stdout,
              proc.stderr)


def setup_sample(cli_args, workdir):
    op = spawn("setup", cli_args, workdir)
    if op.rc != 0 or op.timing is None:
        raise RuntimeError(f"set-up failed: {op.stderr[-2000:]}")
    return op.setup_s


def run_op(command, cli_args, scenario, workdir, trace_path=None):
    """Run the command; returns (op, failed, mismatches)."""
    mode = "full" if trace_path is None else "trace"
    op = spawn(mode, cli_args, workdir, trace_path)
    if op.timing is None or op.rc not in (0, 1):
        return op, True, []
    try:
        report = json.loads(op.stdout)
    except json.JSONDecodeError:
        return op, True, []
    if not isinstance(report, dict) or "results" not in report:
        return op, True, []
    check = COMMANDS[command][2]
    return op, False, check(report, op.rc, scenario)


# -- per-layer metrics from a trace file


def layer_metrics(trace):
    layers, counts, sums = trace["layers"], trace["counts"], trace["sums"]

    def incl(name):
        return layers.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    inserts = calls("linalg.insert")
    m = {
        "cli.build_blocks_s": incl("cli.build_blocks"),
        "ydmodule.check_axioms_s": incl("ydmodule.check_axioms"),
        "ydmodule.check_axioms_calls": calls("ydmodule.check_axioms"),
        "ydmodule.fingerprint_s": incl("ydmodule.fingerprint"),
        "ydmodule.fingerprint_calls": calls("ydmodule.fingerprint"),
        "groups.mul_calls": counts.get("groups.mul_calls", 0),
    }
    for n in CONDUCTORS:
        for op in ("mul", "inv"):
            key = f"cyclotomic.{op}_calls.n{n}"
            m[key] = counts.get(key, 0)
    m.update({
        "linalg.insert_calls": inserts,
        "linalg.insert_s": incl("linalg.insert"),
        "linalg.pivot_ratio": counts.get("linalg.insert_pivots", 0)
        / inserts if inserts else 0.0,
        "linalg.insert_width": sums.get("linalg.insert_cols", 0.0)
        / inserts if inserts else 0.0,
        "linalg.insert_density": sums.get("linalg.insert_density_sum", 0.0)
        / inserts if inserts else 0.0,
        "engine.states_built": counts.get("engine.states_built", 0),
    })
    per_degree = trace["per_degree"]
    for d in DEGREES:
        row = per_degree.get(str(d), {})
        m[f"engine.extend_degree_s.d{d}"] = row.get("extend_degree_s", 0.0)
        m[f"engine.pass1_s.d{d}"] = row.get("pass1_s", 0.0)
        m[f"engine.pass2_s.d{d}"] = row.get("pass2_s", 0.0)
        m[f"engine.candidates.d{d}"] = counts.get(f"engine.candidates.d{d}", 0)
        m[f"engine.pivots.d{d}"] = counts.get(f"engine.pivots.d{d}", 0)
    for name in ("engine.action_columns", "engine.symmetrizer_rank",
                 "derivations.ad_c", "groupoid.cartan_entry"):
        m[name + "_s"] = incl(name)
        m[name + "_calls"] = calls(name)
    for name in ("derivations.evaluate_expr", "groupoid.reflect",
                 "groupoid.l_j_max", "groupoid.real_roots"):
        m[name + "_s"] = incl(name)
    m["groupoid.nodes"] = counts.get("groupoid.nodes", 0)
    m["groupoid.edges"] = counts.get("groupoid.edges", 0)
    for check in VERIFY_NAMES:
        m[f"verify.{check}_s"] = incl(f"verify.{check}")
    return m


def layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name in ("linalg.pivot_ratio", "linalg.insert_density"):
        return "ratio"
    if name == "linalg.insert_width":
        return "columns"
    return "count"


# -- environment record


def environment():
    sha = None
    git = ROOT / ".git"
    if git.is_dir():
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                sha = (git / ref).read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        sha = line.split()[0]
        else:
            sha = head
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "nichols").glob("*.py")))
    return {"interpreter": f"{sys.implementation.name} "
                           f"{sys.version.split()[0]}",
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha,
            "source_lines": lines}


# -- the run


def measure(workload, seed, seconds, trace):
    commands = WORKLOADS[workload]
    RESULTS.mkdir(exist_ok=True)
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as workdir:
        inputs = {}
        for name in commands:
            task, make_input, _ = COMMANDS[name]
            scenario, cli_args = None, ["verify-paper", "--json"]
            if make_input is not None:
                scenario = make_input(rng, workdir)
                cli_args = [task, str(scenario), "--json"]
            inputs[name] = (cli_args, scenario)
            # untimed: compiles bytecode and warms the file cache
            spawn("setup", cli_args, workdir)
        t_begin = time.perf_counter()
        setups = {name: [] for name in commands}
        ops = {name: [] for name in commands}
        traced = {name: [] for name in commands}
        mismatches = []
        attempted = failed = 0
        backend = None
        round_s = []
        while True:
            t_round = time.perf_counter()
            for name in commands:
                cli_args, scenario = inputs[name]
                for _ in range(SETUP_SAMPLES):
                    setups[name].append(setup_sample(cli_args, workdir))
                op, bad, wrong = run_op(name, cli_args, scenario, workdir)
                attempted += 1
                failed += bad
                mismatches += wrong
                if not bad:
                    ops[name].append(op)
                    setups[name].append(op.setup_s)
                    backend = op.timing["backend"]
            if trace:
                for name in commands:
                    cli_args, scenario = inputs[name]
                    trace_path = Path(workdir) / f"trace-{name}.json"
                    top, tbad, twrong = run_op(name, cli_args, scenario,
                                               workdir, trace_path)
                    attempted += 1
                    failed += tbad
                    mismatches += twrong
                    if not tbad:
                        traced[name].append(
                            (top, json.loads(trace_path.read_text())))
            round_s.append(time.perf_counter() - t_round)
            elapsed = time.perf_counter() - t_begin
            if elapsed + statistics.median(round_s) > seconds:
                break
        # the time left is too short for another round: spend it on set-up
        # samples, so that every run measures for about the same time
        while time.perf_counter() - t_begin < seconds:
            for name in commands:
                setups[name].append(setup_sample(inputs[name][0], workdir))
        trace_files = []
        for name in commands:
            if traced[name]:
                kept = RESULTS / f"trace-{name}-seed{seed}.json"
                os.replace(Path(workdir) / f"trace-{name}.json", kept)
                trace_files.append(str(kept.relative_to(ROOT)))
    return {
        "setups": setups, "ops": ops, "traced": traced,
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "backend": backend, "trace_files": trace_files,
        "measured_s": time.perf_counter() - t_begin,
    }


def _median_sum(samples):
    """Sum over a round's commands of each command's median."""
    return sum(statistics.median(v) for v in samples.values())


def end_to_end(run):
    ops = run["ops"]
    return {
        "solve_s": {"value": _median_sum(
            {k: [o.solve_s for o in v] for k, v in ops.items()}), "unit": "s"},
        "setup_s": {"value": _median_sum(run["setups"]), "unit": "s"},
        "peak_rss_mib": {
            "value": max(statistics.median(o.timing["maxrss_kib"] for o in v)
                         for v in ops.values()) / 1024, "unit": "MiB"},
    }


def merge_traces(traces):
    """One trace of a round from the traces of its commands: every span
    table, count and per-degree figure is a sum."""
    merged = {"layers": {}, "counts": {}, "sums": {}, "per_degree": {}}
    for t in traces:
        for key in ("counts", "sums"):
            for name, v in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + v
        for key in ("layers", "per_degree"):
            for name, row in t[key].items():
                into = merged[key].setdefault(name, dict.fromkeys(row, 0))
                for field, v in row.items():
                    into[field] += v
    return merged


def per_layer(run):
    traced = run["traced"]
    rounds = [merge_traces(ts) for ts in
              zip(*([t for _, t in v] for v in traced.values()))]
    layers = [layer_metrics(t) for t in rounds]
    metrics = {name: {"value": statistics.median(l[name] for l in layers),
                      "unit": layer_unit(name)} for name in layers[0]}
    plain = _median_sum({k: [o.solve_s for o in v]
                         for k, v in run["ops"].items()})
    slow = _median_sum({k: [o.solve_s for o, _ in v]
                        for k, v in traced.items()})
    metrics["trace.solve_s"] = {"value": plain, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": slow - plain, "unit": "s"}
    return metrics, rounds[-1]["layers"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nichols" / "cli.py").is_file():
        print(f"no program source at {SRC / 'nichols'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, args.trace)
    ops = run["ops"]
    done = all(ops.values())
    layers = None
    if args.trace:
        traced = done and all(run["traced"].values())
        metrics, layers = per_layer(run) if traced else ({}, None)
    else:
        metrics = end_to_end(run) if done else {}
    correct = not run["mismatches"] and done
    record = {
        "workload": args.workload, "commands": list(WORKLOADS[args.workload]),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {**environment(), "scalar_backend": run["backend"]},
        "attempted": run["attempted"], "failed": run["failed"],
        "correct": correct, "mismatches": run["mismatches"],
        "measured_s": run["measured_s"],
        "setup_samples_s": run["setups"],
        "solve_samples_s": {k: [o.solve_s for o in v]
                            for k, v in ops.items()},
        "traced_solve_samples_s": {k: [o.solve_s for o, _ in v]
                                   for k, v in run["traced"].items()},
        "trace_files": run["trace_files"],
        "metrics": metrics,
    }
    if layers is not None:
        # calls, inclusive and self seconds per span name, last traced round
        record["layers"] = layers
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for mismatch in run["mismatches"]:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

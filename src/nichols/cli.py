"""Command-line front end: scenario files in, deterministic reports out.

A scenario is a JSON object naming a task plus one or more cases; each case
describes a braided vector space either as a diagonal braiding matrix or as
a group with a list of module specs.  Reports are emitted as JSON with
sorted keys so identical scenarios produce byte-identical output; human
summaries and logging go to stderr or plain stdout, never into the report.

Exit codes: 0 success, 2 structured refusal (bad input, uncertified
reflection, resource guard), 1 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

from . import SPEC_VERSION
from .cyclotomic import CycloField
from .derivations import element_is_zero, evaluate_expr, format_element
from .engine import GradedNicholsState
from .errors import ScenarioError, WorkbenchError
from .groupoid import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_NODE_LIMIT,
    FamilyM,
    UnboundedAtCap,
    cartan_entry,
    cartan_matrix,
    explore_groupoid,
    gcm_finite_type,
    is_standard,
    real_roots,
    reflect,
    s_matrix,
)
from .groups import group_from_spec
from .verify import run_checks
from .ydmodule import diagonal_modules, direct_sum, module_from_spec

CASE_KEYS = {"label", "group", "modules", "diagonal", "field_conductor",
             "name", "index", "expression", "cartan_probe"}
SCENARIO_KEYS = CASE_KEYS | {"task", "description", "cap", "node_limit",
                             "cases"}
DEFAULT_BLOCK_NAMES = "xyzuvw"

log = logging.getLogger("nichols")


def _int_field(value, message, low=None, high=None, **context):
    """value if it is an integer in [low, high]; JSON true and false are not."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)
            or (high is not None and value > high)):
        raise ScenarioError(message, **context)
    return value


def _check_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise ScenarioError("unknown scenario field", field=key,
                                where=where, allowed=sorted(allowed))


def _read_json(path: str, what: str):
    """(parsed JSON, file bytes) of the what file at path."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ScenarioError(f"cannot read {what} file", path=path,
                            reason=str(err))
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{what} file is not valid JSON", path=path,
                            line=err.lineno, column=err.colno, reason=err.msg)
    except ValueError as err:  # not UTF-8, or more digits than int() takes
        raise ScenarioError(f"{what} file is not valid JSON", path=path,
                            reason=str(err))


def load_scenario(path: str) -> tuple[dict, str]:
    """Parse a scenario file; returns (scenario, sha256 of the file bytes)."""
    scenario, raw = _read_json(path, "scenario")
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object", path=path)
    _check_keys(scenario, SCENARIO_KEYS, "scenario")
    return scenario, hashlib.sha256(raw).hexdigest()


def _cases_of(scenario: dict) -> list[dict]:
    if "cases" in scenario:
        cases = scenario["cases"]
        if not isinstance(cases, list) or not cases:
            raise ScenarioError("'cases' must be a nonempty list")
        for pos, case in enumerate(cases):
            if not isinstance(case, dict):
                raise ScenarioError("each case must be an object", case=pos + 1)
            _check_keys(case, CASE_KEYS, f"case {pos + 1}")
        return cases
    inline = {k: v for k, v in scenario.items() if k in CASE_KEYS}
    if not inline:
        raise ScenarioError("scenario has neither 'cases' nor inline case "
                            "fields ('diagonal' or 'group' plus 'modules')")
    return [inline]


def _apply_numeration(case: dict, overrides) -> dict:
    if overrides is None or "modules" not in case:
        return case
    specs = [dict(spec) for spec in case["modules"]]
    if len(overrides) > len(specs):
        raise ScenarioError("numeration override has more entries than the "
                            "case has modules", case=case.get("label"),
                            modules=len(specs), entries=len(overrides))
    for pos, numeration in enumerate(overrides):
        if numeration is not None:
            specs[pos]["numeration"] = numeration
    out = dict(case)
    out["modules"] = specs
    return out


def build_blocks(case: dict, pos: int):
    """Realize one case as (label, [irreducible blocks])."""
    label = case.get("label", f"case{pos + 1}")
    if not isinstance(label, str):
        raise ScenarioError("case 'label' must be a string", case=pos + 1,
                            got=label)
    if "diagonal" in case:
        if "group" in case or "modules" in case:
            raise ScenarioError("'diagonal' excludes 'group' and 'modules'",
                                case=label)
        _, _, blocks = diagonal_modules(case["diagonal"],
                                        name=case.get("name", "v"))
        return label, blocks
    if "group" not in case or "modules" not in case:
        raise ScenarioError("case needs either 'diagonal' or 'group' plus "
                            "'modules'", case=label)
    group = group_from_spec(case["group"])
    conductor = case.get("field_conductor", group.exponent)
    field = CycloField(_int_field(conductor, "'field_conductor' must be an "
                                  "integer", case=label, got=conductor))
    specs = case["modules"]
    if not isinstance(specs, list) or not specs:
        raise ScenarioError("'modules' must be a nonempty list", case=label)
    blocks = []
    for p, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ScenarioError("module spec must be an object", case=label,
                                module=p + 1)
        name = spec.get("name", DEFAULT_BLOCK_NAMES[p]
                        if p < len(DEFAULT_BLOCK_NAMES) else f"b{p + 1}_")
        blocks.append(module_from_spec(group, spec, field, name=name))
    return label, blocks


# -- task runners; each returns a JSON-able payload for one case


def run_hilbert(blocks, case, cap):
    state = GradedNicholsState(direct_sum(blocks))
    state.extend_to(cap)
    series = state.series()
    return {"block_dims": [b.dim for b in blocks],
            "dims": list(series.coeffs),
            "finished": series.finished,
            "total": series.total,
            "multidegree_table": state.multidegree_table()}


def run_cartan(blocks, case, cap):
    data = cartan_matrix(FamilyM(blocks), cap)
    return {"block_dims": [b.dim for b in blocks],
            "cartan": data.to_jsonable(),
            "exact": data.is_exact(),
            "cap": data.cap}


def run_reflect(blocks, case, cap):
    index = case.get("index", 1)
    _int_field(index, "'index' must name a block position", low=1,
               high=len(blocks), index=index, theta=len(blocks))
    fam = FamilyM(blocks)
    image = reflect(fam, index - 1, cap)
    s = s_matrix(fam, index - 1, cap)
    return {"index": index,
            "block_dims": [b.dim for b in blocks],
            "reflected_block_dims": [b.dim for b in image.blocks],
            "fingerprints": [str(f) for f in fam.fingerprints],
            "reflected_fingerprints": [str(f) for f in image.fingerprints],
            "s_matrix": [list(row) for row in s]}


def run_groupoid(blocks, case, cap, node_limit):
    graph = explore_groupoid(FamilyM(blocks), cap, node_limit=node_limit)
    payload = graph.to_jsonable()
    verdict = is_standard(graph)
    payload["standard"] = {"status": verdict.status, "witness": verdict.witness}
    payload["finite_type"] = None
    base = graph.nodes[graph.base_key].cartan
    if verdict.status == "standard" and base.is_exact():
        finite = gcm_finite_type(base)
        payload["finite_type"] = {"finite": finite.finite,
                                  "label": finite.label}
    return payload


def run_roots(blocks, case, cap, node_limit):
    graph = explore_groupoid(FamilyM(blocks), cap, node_limit=node_limit)
    roots = real_roots(graph)
    return {"roots": [list(r) for r in roots.sorted_roots()],
            "count": len(roots.roots),
            "partial": roots.partial}


def run_derive(blocks, case, cap):
    if "expression" not in case:
        raise ScenarioError("derive case needs an 'expression'",
                            case=case.get("label"))
    state = GradedNicholsState(direct_sum(blocks))
    value = evaluate_expr(state, case["expression"], cap)
    payload = {"expression": case["expression"],
               "degree": value[0],
               "value": format_element(state, value),
               "is_zero": element_is_zero(value)}
    probe = case.get("cartan_probe")
    if probe is not None:
        message = "'cartan_probe' must be [row, col, cap]"
        if not isinstance(probe, list) or len(probe) != 3:
            raise ScenarioError(message, got=probe)
        row, col, probe_cap = (_int_field(x, message, got=probe)
                               for x in probe)
        entry = cartan_entry(FamilyM(blocks), row - 1, col - 1, cap=probe_cap)
        if isinstance(entry, UnboundedAtCap):
            verdict = f"a[{row},{col}] <= -{entry.cap - 1}"
            entry_json = entry.to_jsonable()
        else:
            verdict = f"a[{row},{col}] = {entry}"
            entry_json = entry
        payload["cartan_probe"] = {"row": row, "col": col, "cap": probe_cap,
                                   "entry": entry_json, "verdict": verdict}
    return payload


# -- per-task summaries for the terminal and CSV rows for --out


def _hilbert_summary(result):
    dims = ",".join(str(d) for d in result["dims"])
    total = result["total"]
    return (f"{result['label']}: dims {dims} total "
            f"{'unfinished at cap' if total is None else total}")


def _hilbert_csv(results):
    rows = [["label", "degree", "dim"]]
    for result in results:
        for degree, dim in enumerate(result["dims"]):
            rows.append([result["label"], str(degree), str(dim)])
        total = result["total"]
        rows.append([result["label"], "total",
                     "" if total is None else str(total)])
    return rows


def _cartan_summary(result):
    return (f"{result['label']}: cartan {result['cartan']} "
            f"exact={result['exact']}")


def _cartan_csv(results):
    rows = [["label", "row", "col", "entry"]]
    for result in results:
        for i, row in enumerate(result["cartan"]):
            for j, entry in enumerate(row):
                text = str(entry) if isinstance(entry, int) else \
                    f"unbounded-at-cap-{entry['unbounded_at_cap']}"
                rows.append([result["label"], str(i + 1), str(j + 1), text])
    return rows


def _reflect_summary(result):
    return (f"{result['label']}: reflected at {result['index']}, block "
            f"dims {result['reflected_block_dims']}, "
            f"s={result['s_matrix']}")


def _groupoid_summary(result):
    return (f"{result['label']}: nodes={len(result['nodes'])} "
            f"edges={len(result['edges'])} "
            f"partial={result['partial']} "
            f"standard={result['standard']['status']} "
            f"finite_type={result['finite_type']}")


def _roots_summary(result):
    return (f"{result['label']}: {result['count']} real roots "
            f"partial={result['partial']}")


def _derive_summary(result):
    text = f"{result['label']}: {result['expression']} = {result['value']}"
    if "cartan_probe" in result:
        text += f"\n{result['label']}: {result['cartan_probe']['verdict']}"
    return text


class Task(NamedTuple):
    """What the CLI knows of one task, all but its runner run_<task>."""

    help: str
    summary: Callable  # one result -> its human summary
    default_cap: int = DEFAULT_DEGREE_CAP
    takes_node_limit: bool = False
    csv: Callable | None = None  # all results -> CSV rows, header first


TASKS = {
    "hilbert": Task("graded dimensions of the Nichols algebra of a case",
                    _hilbert_summary, default_cap=12, csv=_hilbert_csv),
    "cartan": Task("Cartan matrix of a family via braided adjoint chains",
                   _cartan_summary, csv=_cartan_csv),
    "reflect": Task("reflect a family at one block", _reflect_summary),
    "groupoid": Task("explore the reflection groupoid to closure",
                     _groupoid_summary, takes_node_limit=True),
    "roots": Task("real roots collected from the reflection groupoid",
                  _roots_summary, takes_node_limit=True),
    "derive": Task("evaluate a derivation/adjoint expression",
                   _derive_summary, default_cap=4),
}


def run_scenario(task: str, path: str, cap, node_limit, numeration_path):
    spec = TASKS[task]
    scenario, digest = load_scenario(path)
    declared = scenario.get("task")
    if declared is not None and declared != task:
        raise ScenarioError("scenario declares a different task",
                            scenario_task=declared, subcommand=task)
    overrides = None
    if numeration_path is not None:
        overrides, _ = _read_json(numeration_path, "numeration")
        if not isinstance(overrides, list):
            raise ScenarioError("numeration file must be a list with one "
                                "entry (or null) per module")
    if cap is None:
        cap = scenario.get("cap", spec.default_cap)
    _int_field(cap, "cap must be a positive integer", low=1, cap=cap)
    if node_limit is None:
        node_limit = scenario.get("node_limit", DEFAULT_NODE_LIMIT)
    _int_field(node_limit, "node_limit must be a positive integer", low=1,
               node_limit=node_limit)
    limits = (cap, node_limit) if spec.takes_node_limit else (cap,)
    # looked up by name, not kept in TASKS, so that a caller can replace it
    runner = globals()[f"run_{task}"]
    results = []
    for pos, case in enumerate(_cases_of(scenario)):
        case = _apply_numeration(case, overrides)
        label, blocks = build_blocks(case, pos)
        log.info("running %s on case %s (%d block%s)", task, label,
                 len(blocks), "s" if len(blocks) != 1 else "")
        payload = runner(blocks, case, *limits)
        results.append({"label": label, **payload})

    report = {"spec_version": SPEC_VERSION,
              "task": task,
              "scenario": Path(path).name,
              "scenario_sha256": digest,
              "cap": cap,
              "results": results}
    if spec.takes_node_limit:
        report["node_limit"] = node_limit
    return report


# -- emission


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emit_report(report: dict, args, summary, csv=None) -> None:
    """Write the report where args say; summary(result) is the human text
    of one result, csv(results) the rows of the CSV beside --out."""
    text = render_report(report)
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        log.info("wrote %s", out)
        if csv is not None:
            rows = csv(report["results"])
            csv_path = out.with_suffix(".csv")
            csv_path.write_text("\n".join(",".join(row) for row in rows)
                                + "\n")
            log.info("wrote %s", csv_path)
    if args.json:
        sys.stdout.write(text)
    else:
        for result in report["results"]:
            print(summary(result))


def _check_summary(row):
    return (f"{row['status']:4} {row['check']} [{row['location']}] "
            f"{row['detail']}")


def _cmd_verify(args) -> int:
    rows = run_checks()
    failed = sum(row["status"] != "PASS" for row in rows)
    report = {"spec_version": SPEC_VERSION,
              "task": "verify-paper",
              "scenario": None,
              "scenario_sha256": None,
              "results": rows,
              "passed": len(rows) - failed,
              "failed": failed}
    emit_report(report, args, _check_summary)
    return 0 if failed == 0 else 1


def _cmd_task(args) -> int:
    report = run_scenario(args.command, args.scenario, args.cap,
                          getattr(args, "node_limit", None), args.numeration)
    task = TASKS[args.command]
    emit_report(report, args, task.summary, task.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nichols",
        description="Exact-arithmetic workbench for Nichols algebras of "
                    "semisimple Yetter-Drinfeld modules over finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    csv_tasks = "/".join(name for name, task in TASKS.items() if task.csv)
    for name, task in TASKS.items():
        p = sub.add_parser(name, help=task.help)
        p.set_defaults(func=_cmd_task)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--cap", type=int, default=None,
                       help="degree cap (default: scenario value or "
                            f"{task.default_cap})")
        if task.takes_node_limit:
            p.add_argument("--node-limit", type=int, default=None,
                           help="exploration budget in nodes")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout")
        p.add_argument("--out", default=None,
                       help=f"write the JSON report (and CSV for {csv_tasks})"
                            " to this path")
        p.add_argument("--numeration", default=None,
                       help="JSON file with per-module numeration overrides")
    v = sub.add_parser("verify-paper",
                       help="run the built-in regression matrix")
    v.set_defaults(func=_cmd_verify)
    v.add_argument("--json", action="store_true",
                   help="print the JSON report to stdout")
    v.add_argument("--out", default=None,
                   help="write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except WorkbenchError as err:
        refusal = json.dumps(err.payload(), sort_keys=True, default=str)
        print(f"refused: {err.message}", file=sys.stderr)
        if args.json:
            sys.stdout.write(refusal + "\n")
        else:
            print(refusal, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""``python -m benchmarks.gateway`` — the one command.

With no arguments: every workload, untraced then traced, as a table of
named metrics with units.  With ``--workload`` and ``--trace`` (how the
benchmark driver calls it): that one run, and the last line of stdout
is its result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from . import ROOT, load_contract, use_source_tree

SMOKE_SECONDS = 2


def conform(contract, measured, *, trace):
    """The driver's result object for one run: exactly the contract's
    metrics of this mode, each with its unit.

    A per-layer metric that the workload does not exercise reads 0; an
    end-to-end metric must have been measured.  A measured name the
    contract does not list is a harness bug, not something to drop.
    """
    listed = contract["per_layer" if trace else "end_to_end"]
    values = measured["values"]
    unknown = sorted(set(values) - {metric["name"] for metric in listed})
    if unknown:
        raise KeyError(f"not in BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for metric in listed:
        value = values[metric["name"]] if not trace \
            else values.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": not measured["failed"] and not measured["checks"],
            "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def print_table(title, result, measured):
    print(f"\n== {title} ==")
    idle = 0
    for name, entry in result["metrics"].items():
        if entry["value"] == 0:
            idle += 1       # a layer this workload does not exercise
            continue
        print(f"  {name:<46} {entry['value']:>14.4f} {entry['unit']}")
    if idle:
        print(f"  ({idle} metrics read 0 on this workload)")
    for key, value in measured["detail"].items():
        print(f"  ({key}: {value})")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for problem in measured["checks"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None):
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks.gateway",
                                     description=__doc__)
    parser.add_argument("--workload", choices=names, action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="measuring window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s windows")
    parser.add_argument("--out", help="write the full report here (JSON)")
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    from . import fixture, workloads

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    selected = args.workload or names
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    # Everything a run writes goes under the checkout, and is gone when
    # the run ends.
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="gateway-", dir=scratch)
    report = {"seed": args.seed, "seconds": seconds, "runs": []}
    result = None
    try:
        built = fixture.build(os.path.join(run_dir, "fixture.sqlite"),
                              args.seed)
        report["environment"] = fixture.environment(built)
        report["fixture"] = {key: built[key] for key in
                             ("rows", "content_hash", "build_s")}
        print(json.dumps({"environment": report["environment"],
                          "fixture": report["fixture"]}))
        for name in selected:
            for trace in modes:
                measured = workloads.run(
                    name, os.path.join(run_dir, f"{name}-{int(trace)}"),
                    built, args.seed, seconds, trace=trace)
                if trace:
                    measured["values"]["fixture.build_s"] = built["build_s"]
                result = conform(contract, measured, trace=trace)
                print_table(f"{name} --trace {int(trace)}", result,
                            measured)
                report["runs"].append(
                    {"workload": name, "trace": int(trace), **result,
                     "detail": measured["detail"],
                     "checks": measured["checks"]})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    if len(report["runs"]) == 1:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

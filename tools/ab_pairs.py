#!/usr/bin/env python3
"""Alternating A/B pairs of the gateway benchmark, kept as a file.

    python3 tools/ab_pairs.py --base REV \\
        --workload W [--workload W ...] [--pairs N] [--seed S] \\
        --out BENCH_<pr>.json
    python3 tools/ab_pairs.py --check BENCH_*.json

Each side is a tree of its own in a temporary directory (``TMPDIR``
picks where): the base is ``--base`` unpacked with ``git archive``,
the change is a copy of the working tree (tracked and untracked files,
ignored ones left out).  Nothing touches the network.  Each of the ``--pairs`` pairs (default
10) runs the tree's own ``python3 -m benchmarks.gateway --workload W
--trace 0 --seed S`` once per side, alternating which side goes first,
so drift on the host lands on both.  Then one traced pair
(``--trace 1``) per workload records the exact counts.

The file holds an environment stamp (Python, ``nproc``, kernel, CPU and
both revisions); per workload and end-to-end metric, every run's value,
each side's median and q1-q3, and the change's wins k/n; the runs'
``correct``/``failed`` outcomes; and the traced pair's counts.
``--check`` validates files against that schema, recomputing every
median, quartile and win count from the recorded values, and runs
nothing.  Stdlib only.

This script lives in ``tools/`` only because ``benchmarks/gateway/``
is frozen outside benchmark work.  ROADMAP item 1(b) moves it behind
``python3 -m benchmarks.gateway --against REV`` and deletes this file.
"""

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "ab_pairs/1"
SIDES = ("base", "change")
ORDERS = ("base-first", "change-first")


@functools.cache
def contract():
    """``BENCHMARK.json``: the workload and metric names, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export_base(rev, into):
    """Unpack *rev* under *into*; returns its environment stamp."""
    os.makedirs(into)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return {"rev": git("rev-parse", rev)}


def export_worktree(into):
    """Copy the working tree under *into*; returns its environment
    stamp (the commit it sits on, and whether it differs from it)."""
    for name in git("ls-files", "-co", "--exclude-standard",
                    "-z").split("\0"):
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)
    return {"rev": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


def environment(base, change):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "kernel": platform.release(), "machine": platform.machine(),
            "cpu": cpu, "base": base, "change": change}


def run_gateway(tree, workload, seed, trace):
    """One ``python3 -m benchmarks.gateway`` run in *tree*: its fixture
    line and its result object."""
    argv = [sys.executable, "-m", "benchmarks.gateway", "--workload",
            workload, "--trace", str(trace), "--seed", str(seed)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                         text=True, check=True).stdout
    objects = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    return objects[0]["fixture"], objects[-1]


def outcome(result):
    return {"correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def summarise(values):
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def wins(base, change, better):
    won = sum((c < b) if better == "lower" else (c > b)
              for b, c in zip(base, change))
    return f"{won}/{len(base)}"


def metric_table(runs):
    table = {}
    for metric in contract()["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = {side: [run[side]["metrics"][name] for run in runs]
                  for side in SIDES}
        table[name] = {"unit": metric["unit"], "better": better,
                       **{side: summarise(values[side]) for side in SIDES},
                       "wins": wins(values["base"], values["change"],
                                    better)}
    return table


def traced_pair(trees, workload, seed):
    """Per-layer values of one traced run per side, split into exact
    counts and the rest; layers neither side exercised are left out."""
    values = {side: outcome(run_gateway(trees[side], workload, seed,
                                        1)[1])["metrics"]
              for side in SIDES}
    units = {metric["name"]: metric["unit"]
             for metric in contract()["per_layer"]}
    counts, layers = {}, {}
    for name, unit in units.items():
        pair = {side: values[side].get(name, 0.0) for side in SIDES}
        if any(pair.values()):
            (counts if unit == "count" else layers)[name] = pair
    return {"exact_counts": counts, "per_layer": layers}


def measure(args):
    work = tempfile.mkdtemp(prefix="ab-pairs-")
    try:
        trees = {side: os.path.join(work, side) for side in SIDES}
        stamp = environment(export_base(args.base, trees["base"]),
                            export_worktree(trees["change"]))
        report = {"schema": SCHEMA, "environment": stamp,
                  "seed": args.seed, "pairs": args.pairs,
                  "workloads": {}}
        for workload in args.workload:
            runs, fixture = [], {}
            for index in range(args.pairs):
                order = ORDERS[index % 2]
                run = {"order": order}
                sides = SIDES if order == "base-first" else SIDES[::-1]
                for side in sides:
                    fixture[side], result = run_gateway(
                        trees[side], workload, args.seed, 0)
                    run[side] = outcome(result)
                runs.append(run)
                print(f"{workload} pair {index + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "fixture": fixture, "runs": runs,
                "metrics": metric_table(runs),
                **traced_pair(trees, workload, args.seed)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


def print_report(report):
    for workload, entry in report["workloads"].items():
        print(f"== {workload} ({report['pairs']} pairs) ==")
        for name, row in entry["metrics"].items():
            base, change = row["base"], row["change"]
            print(f"  {name:<16} {base['median']:>10.4g} -> "
                  f"{change['median']:<10.4g} [{change['q1']:.4g}-"
                  f"{change['q3']:.4g}] base [{base['q1']:.4g}-"
                  f"{base['q3']:.4g}] wins {row['wins']} {row['unit']}")
        for name, pair in entry.get("exact_counts", {}).items():
            print(f"  {name:<46} {pair['base']:.6g} -> "
                  f"{pair['change']:.6g}")


def check(report):
    """Problems with one report, as messages; empty when it conforms."""
    problems = []

    def need(condition, message):
        if not condition:
            problems.append(message)
        return condition

    if not need(isinstance(report, dict)
                and report.get("schema") == SCHEMA,
                f"schema is not {SCHEMA!r}"):
        return problems
    stamp = report.get("environment", {})
    for key in ("python", "nproc", "kernel", "base", "change"):
        need(key in stamp, f"environment lacks {key!r}")
    for side in SIDES:
        need(isinstance(stamp.get(side), dict)
             and isinstance(stamp[side].get("rev"), str),
             f"environment.{side} names no rev")
    pairs = report.get("pairs")
    need(isinstance(pairs, int) and pairs >= 1, "pairs is not >= 1")
    workloads = report.get("workloads")
    if not need(isinstance(workloads, dict) and workloads,
                "no workloads"):
        return problems
    for workload, entry in workloads.items():
        where = f"workloads.{workload}"
        runs = entry.get("runs", [])
        if not need(len(runs) == pairs, f"{where}: {len(runs)} runs, "
                    f"{pairs} pairs"):
            continue
        for index, run in enumerate(runs):
            need(run.get("order") in ORDERS,
                 f"{where}.runs[{index}]: bad order")
            for side in SIDES:
                result = run.get(side, {})
                need(isinstance(result.get("correct"), bool)
                     and isinstance(result.get("failed"), int)
                     and isinstance(result.get("metrics"), dict),
                     f"{where}.runs[{index}].{side}: malformed result")
        try:
            expected = metric_table(runs)
        except (KeyError, TypeError) as exc:
            problems.append(f"{where}: runs lack a metric ({exc})")
            continue
        recorded = entry.get("metrics", {})
        need(set(recorded) == set(expected),
             f"{where}: metrics are not BENCHMARK.json's end_to_end")
        for name in set(recorded) & set(expected):
            need(json.dumps(recorded[name], sort_keys=True)
                 == json.dumps(expected[name], sort_keys=True),
                 f"{where}.metrics.{name}: summary does not match the "
                 "recorded runs")
        for name, pair in entry.get("exact_counts", {}).items():
            need(isinstance(pair, dict) and set(pair) == set(SIDES),
                 f"{where}.exact_counts.{name}: not a base/change pair")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ab_pairs", description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        help="validate these files and run nothing")
    parser.add_argument("--base", help="revision on the base side; the "
                        "change side is the working tree")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in contract()["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", help="write the report here (JSON)")
    args = parser.parse_args(argv)
    if args.check:
        failed = False
        for path in args.check:
            with open(path, encoding="utf-8") as handle:
                problems = check(json.load(handle))
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            failed = failed or bool(problems)
            print(f"{path}: {'INVALID' if problems else 'ok'}")
        return 1 if failed else 0
    if not (args.base and args.workload and args.out):
        parser.error("--base, --workload and --out are required "
                     "unless --check")
    report = measure(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

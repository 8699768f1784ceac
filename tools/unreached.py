#!/usr/bin/env python3
"""Which lines of ``src/`` does no entrypoint reach?  (ROADMAP item 10.)

Runs the repo's real traffic — the six examples, ``cli table1 |
convergence | queuewait | demo | gantt``, the gateway benchmark's smoke
run (four workloads, untraced and traced, every child process) and the
three-process smoke test — under a ``sys.settrace`` line collector and
prints, per module, executable and never-executed lines, then the
functions nothing entered, largest first.  A line listed here is reached
by unit tests at most.  Stdlib only; ``python3 tools/unreached.py``.

It is also a ratchet (ROADMAP item 12(a)).  ``--write FILE`` records the
per-module counts (``tools/unreached.json`` is the committed record);
``--check FILE`` exits 1 when the total of unreached lines rose above the
record's, unless every module whose count rose is named, together with
the test that reaches it (a ``tests/…py`` or ``benchmarks/…py`` path),
on one CHANGES.md line added since the record was written.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHANGES = os.path.join(ROOT, "CHANGES.md")
TEST_PATH = re.compile(r"\b(?:tests|benchmarks)/\S+\.py")

#: Loaded by every interpreter that finds it on ``PYTHONPATH``.  Prefork
#: workers leave through ``os._exit``, which skips ``atexit``; children
#: started with a rebuilt ``PYTHONPATH`` get this directory put back.
HOOK = '''
import atexit, json, os, subprocess, sys, threading
SRC, OUT, HERE = os.environ["UNREACHED_SRC"], os.environ["UNREACHED_OUT"], \\
    os.path.dirname(os.path.abspath(__file__))
seen = {}
def local(frame, event, arg):
    if event == "line":
        seen[frame.f_code.co_filename].add(frame.f_lineno)
    return local
def collect(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(SRC):
        return None
    seen.setdefault(filename, set()).add(frame.f_lineno)
    return local
def dump():
    with open(os.path.join(OUT, "%d.json" % os.getpid()), "w") as out:
        json.dump({name: sorted(lines) for name, lines in seen.items()}, out)
def leave(code, _exit=os._exit):
    dump()
    _exit(code)
def spawn(self, *args, _init=subprocess.Popen.__init__, **kwargs):
    if kwargs.get("env") is not None:
        path = kwargs["env"].get("PYTHONPATH", "")
        kwargs["env"] = dict(kwargs["env"],
                             PYTHONPATH=HERE + os.pathsep + path)
    _init(self, *args, **kwargs)
atexit.register(dump)
os._exit = leave
subprocess.Popen.__init__ = spawn
threading.settrace(collect)
sys.settrace(collect)
'''

PYTHON = [sys.executable]
TRAFFIC = (
    [PYTHON + [path] for path in sorted(glob.glob(
        os.path.join(ROOT, "examples", "*.py")))]
    + [PYTHON + ["-m", "repro.cli", command]
       for command in ("table1", "convergence", "queuewait", "demo", "gantt")]
    + [PYTHON + ["-m", "benchmarks.gateway", "--smoke"],
       PYTHON + ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "tests/integration/test_three_process_smoke.py"]])


def code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from code_objects(const)


def measure():
    """``(modules, functions)``: ``(missed, executable, module)`` per
    module and ``(body lines, module, line, name)`` per function no
    entrypoint entered."""
    with tempfile.TemporaryDirectory(prefix="unreached-") as hook_dir:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as out:
            out.write(HOOK)
        env = dict(os.environ, UNREACHED_SRC=SRC, UNREACHED_OUT=hook_dir,
                   PYTHONPATH=os.pathsep.join([hook_dir, SRC]))
        for argv in TRAFFIC:
            done = subprocess.run(argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL)
            print("exit %d: %s" % (done.returncode, " ".join(argv[1:])),
                  file=sys.stderr)
        executed = {}
        for path in glob.glob(os.path.join(hook_dir, "*.json")):
            with open(path) as dumped:
                for name, lines in json.load(dumped).items():
                    executed.setdefault(name, set()).update(lines)
    modules, functions = [], []
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as source:
            module = compile(source.read(), path, "exec")
        hit, executable = executed.get(path, set()), set()
        for code in code_objects(module):
            # line 0 is the interpreter's RESUME, not source
            lines = {line for _, _, line in code.co_lines() if line}
            executable |= lines
            body = lines - {code.co_firstlineno}
            if code is not module and body and not body & hit:
                functions.append((len(body), os.path.relpath(path, SRC),
                                  code.co_firstlineno, code.co_qualname))
        modules.append((len(executable - hit), len(executable),
                        os.path.relpath(path, SRC)))
    return modules, functions


def report(modules, functions):
    print("%6d executable lines under src/, %d reached by no entrypoint"
          % (sum(m[1] for m in modules), sum(m[0] for m in modules)))
    print("\nnever executed / executable, per module")
    for missed, total, name in sorted(modules, reverse=True):
        if missed:
            print("%6d / %-5d %s" % (missed, total, name))
    print("\nfunctions never entered (body lines)")
    for size, name, line, qualname in sorted(functions, reverse=True):
        print("%6d  %s:%d %s" % (size, name, line, qualname))


def changes_lines():
    with open(CHANGES, encoding="utf-8") as changes:
        return changes.read().splitlines()


def check(record, counts):
    """0 unless the total rose without a CHANGES.md line naming, for
    each module whose count rose, the test that reaches it."""
    before = record["unreached"]
    after = sum(missed for missed, _ in counts.values())
    print("unreached lines: %d recorded, %d now" % (before, after),
          file=sys.stderr)
    if after <= before:
        if after < before:
            print("the total fell: record it with --write",
                  file=sys.stderr)
        return 0
    notes = changes_lines()[record["changes_lines"]:]
    unnamed = []
    for name, (missed, _) in sorted(counts.items()):
        recorded = record["modules"].get(name, [0, 0])[0]
        if missed > recorded and not any(
                name in line and TEST_PATH.search(line) for line in notes):
            unnamed.append(name)
            print("%s: %d -> %d unreached, and no new CHANGES.md line "
                  "names it with the test that reaches it"
                  % (name, recorded, missed), file=sys.stderr)
    return 1 if unnamed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", metavar="FILE",
                        help="record the per-module counts in FILE")
    parser.add_argument("--check", metavar="FILE",
                        help="fail when the total rose above FILE's")
    args = parser.parse_args(argv)
    modules, functions = measure()
    report(modules, functions)
    counts = {name: [missed, total] for missed, total, name in modules}
    if args.write:
        with open(args.write, "w", encoding="utf-8") as out:
            json.dump({"executable": sum(t for _, t in counts.values()),
                       "unreached": sum(m for m, _ in counts.values()),
                       "changes_lines": len(changes_lines()),
                       "modules": dict(sorted(counts.items()))},
                      out, indent=1)
            out.write("\n")
    if args.check:
        with open(args.check, encoding="utf-8") as recorded:
            return check(json.load(recorded), counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())

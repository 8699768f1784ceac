"""Gateway benchmark: the portal and the GridAMP daemon on the deployment
shape people run — several OS processes over one SQLite file.

``python -m benchmarks.gateway`` builds a seeded fixture, runs the four
workloads named in ``BENCHMARK.json`` against the production entry
points, checks their outputs, and prints every metric by name with its
unit.  See ``README.md`` in this directory for the workloads, the
metrics and how to compare two commits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The checkout root: ``BENCHMARK.json`` lives here, the program under
#: test under ``src/``.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def use_source_tree():
    """Make ``repro`` importable from the checkout's ``src/``.

    The benchmark measures the tree it sits in, never an installed copy,
    so the path goes first.  Raises when there is no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"{SRC / 'repro'} is missing: the gateway benchmark runs "
            "from a checkout that holds the program under src/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_contract():
    """``BENCHMARK.json``: the one place metric and workload names live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)

"""Benchmark entry point: one workload, one seed, a fixed host-time budget.

Usage, from the repository root::

    python3 perfbench/run.py --workload dc_disk --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced points;
``--trace 1`` alternates untraced and traced points and reports the
per-layer metrics.  A readable table goes to standard output and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Failures of single points are reported on standard error and counted in
``failed``.  It exits with status 2, printing no result, when
the package sources are not next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Default workload seed; any other seed gives another, equally valid
#: input set (the per-seed results differ, the checks must still pass).
DEFAULT_SEED = 1


def _import_package(root: Path) -> None:
    """Put ``<root>/src`` first on the path and insist that ``repro``
    really comes from there (never from an installed copy)."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no package sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    try:
        _import_package(here.parent)
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}",
              file=sys.stderr)
        return 2
    from bench import run_benchmark
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, points, scale = run_benchmark(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:12s} {name:34s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:12s} host times scaled by {scale:.4f} to the "
          f"reference machine")
    digest = points[0].digest if points else "none"
    print(f"{args.workload:12s} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']} "
          f"results_digest={digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

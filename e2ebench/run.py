"""End-to-end benchmark of the XDB federation.

    python3 e2ebench/run.py --workload adhoc-engine --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout, against the sources under ``src/``.
Prints progress to stderr and, as the last line of stdout, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no XDB sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = bench.main_result(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

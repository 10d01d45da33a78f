"""Benchmark of the heunqes pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload {spectrum,verify,cli} --seed N --seconds S --trace {0,1}

The package is imported from the checkout's `src/`, never from an installed
copy. The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`. Results and span files
are also written to `.perfbench/` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("spectrum", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heunqes" / "__init__.py").is_file():
        print(f"error: no heunqes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    os.environ.pop("HEUNQES_CONFIG", None)  # a user's config file would change the cli inputs

    import heunqes
    import spans
    import workloads

    if Path(heunqes.__file__).resolve().parent != SRC / "heunqes":
        print(f"error: heunqes imported from {heunqes.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    ctx = workloads.Context(args.seed, args.seconds, tracer, ROOT, dict(os.environ))
    result, metrics = workloads.WORKLOADS[args.workload](ctx)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(OUT / f"{stem}-spans.json", workload=args.workload, seed=args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

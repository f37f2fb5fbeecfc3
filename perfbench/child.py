"""One workload in its own process; run.py starts it with BLAS pinned.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

Set-up is timed from before ``import kpca_ood``, so importing the package
is part of setup_s. With --setup-only the process stops after set-up and
prints only its setup_s, which run.py uses to take a median.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kpca_ood

    if Path(kpca_ood.__file__).resolve().parent != (SRC / "kpca_ood").resolve():
        sys.exit(f"kpca_ood was imported from {kpca_ood.__file__}, not from {SRC}")
    import workloads

    run = workloads.Run(args.workload, args.seed, args.workdir)
    parts = run.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    run.prepare(parts)
    del parts
    workloads.main(run, setup_s, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

``--trace 0`` prints every end-to-end metric, measured on the workload
(each workload defines its operation and quality corpus).  ``--trace 1``
spends half of ``--seconds`` on an untraced pass and half on a traced
pass over the same seeded inputs, prints every per-layer metric (zero
where the workload does not reach the layer) plus the tracing overhead,
checks that tracing changed neither routing nor results, and writes the
spans to ``perfbench/out/``.  The last stdout line is the JSON result;
the exit code is 0 only when every output check passed.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import the workload and build its first inputs, then exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no library sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from common import OUT_DIR, PER_LAYER, WORKLOADS, Result, emit, report_setup, run_setup_probe

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)

    res = Result(args.workload, args.seed, bool(args.trace))
    if args.workload == "serve-mix":
        import serve

        serve.run(res, args.seed, args.seconds)
    else:
        if not res.trace:
            report_setup(res, run_setup_probe(args.workload, args.seed),
                         "fresh interpreters importing and building inputs")
        if args.workload == "online-stream":
            import online

            online.run(res, args.seed, args.seconds)
        else:
            import sweep

            sweep.run(res, args.seed, args.seconds, link=args.workload == "sweep-link")
    if res.trace:
        for name in PER_LAYER:
            res.metrics.setdefault(name, 0.0)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz"
        res.recorder.write(path)
        res.notes.append(f"spans written to {path.relative_to(HERE.parent)}")
    return emit(res)


def _setup_probe(workload: str, seed: int) -> int:
    """What a user pays before the first timed call: importing the
    library and building the first inputs (serve-mix times its daemon
    set-up in-process instead).  Prints the time and the calibrations
    that bracket it."""
    import json
    import time

    from common import calibrate_n

    before = calibrate_n()
    t0 = time.perf_counter()
    if workload == "online-stream":
        import online

        online.stream_inputs(seed, 1)
    else:
        import sweep

        sweep.build_cycle(seed, 1, link=workload == "sweep-link")
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "calibration_s": before + calibrate_n()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

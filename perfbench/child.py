"""One benchmark measurement of the qcs public API in a fresh interpreter.

Loads each config with ``harness.load_config`` (one thread), then makes
passes over the configs with ``harness.run_experiment``.  Pass 0 runs at
the configs' committed seed and is the warm-up whose outputs are compared
with the reference; pass ``i >= 1`` runs at ``seed * 1000 + i`` and is timed.  Prints
one JSON object on stdout: the monotonic time at which the configs were
loaded, each pass's seed, wall time and output directory (one
subdirectory per experiment), the process's peak resident memory once
the warm-up pass has ended and, with ``--trace``, the recorded spans.
The memory peak is taken there because it then covers the same input on
every run, whatever ``--seed`` is and however many passes follow.

    python3 perfbench/child.py --seed 7 --out DIR --passes 3 CONFIG...
    python3 perfbench/child.py --seed 7 --out DIR --until T CONFIG...

``--until`` is a ``time.monotonic()`` instant: no timed pass starts that
the previous pass's duration says would end after it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECK_SEED = 20260810  # the seed of every config in configs/


def peak_rss_mb() -> float:
    """High-water resident set of this process image (Linux).

    ``VmHWM`` belongs to the address space created at exec, so unlike
    ``ru_maxrss`` it cannot inherit the spawning process's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", help="experiment config files, run in order")
    parser.add_argument("--seed", type=int, required=True, help="seeds the timed passes")
    parser.add_argument("--out", required=True, help="directory for the passes' outputs")
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    parser.add_argument("--setup-only", action="store_true", help="stop once configs are loaded")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--passes", type=int, default=1, help="number of timed passes")
    budget.add_argument("--until", type=float, help="monotonic instant to stop timing by")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from qcs import harness

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.run_id = -1  # spans of loading belong to no pass

    configs = [harness.load_config(path, threads=1) for path in args.configs]
    loaded_at = time.monotonic()

    passes = []
    peak_mb = None
    index = 0
    while not args.setup_only:
        seed = CHECK_SEED if index == 0 else args.seed * 1000 + index
        if tracer is not None:
            tracer.run_id = index
        out_dir = Path(args.out) / str(index)
        started = time.perf_counter()
        for cfg in configs:
            harness.run_experiment(
                dataclasses.replace(cfg, seed=seed, output_dir=str(out_dir / cfg.experiment))
            )
        run_s = time.perf_counter() - started
        passes.append({"seed": seed, "run_s": run_s, "dir": str(out_dir)})
        if index == 0:
            peak_mb = peak_rss_mb()
        index += 1
        if args.until is None:
            if index > args.passes:
                break
        elif index > 1 and time.monotonic() + run_s > args.until:
            break
    report = {
        "loaded_at": loaded_at,
        "passes": passes,
        "peak_rss_mb": peak_mb,
        "spans": tracer.spans if tracer is not None else [],
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

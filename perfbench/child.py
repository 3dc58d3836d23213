"""One measured ``harness.run`` call in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --result FILE
                               [--trace] [--tiny]

Writes a JSON object to FILE: wall time (``run_s``) and user+sys CPU time
(``cpu_s``) of the call, the peak resident memory of this process, and with
``--trace`` the per-layer metrics of the traced call.  ``run.py`` starts one
of these per sample, so no sample inherits warm state from another.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    import toeplab
    from toeplab import harness

    if Path(toeplab.__file__).resolve().parent != ROOT / "src" / "toeplab":
        raise SystemExit(f"imported toeplab from {toeplab.__file__}, not from this checkout")

    import workloads
    cfg, workers = workloads.build(args.workload, args.seed, tiny=args.tiny)

    if args.trace:
        from tracer import Tracer
    with Tracer() if args.trace else nullcontext() as tracer:
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        harness.run(cfg, args.out, workers)
        run_s = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "run_s": run_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,        # Linux reports KiB
    }
    if tracer is not None:
        from tracer import layer_metrics, linalg_attribution
        result["layers"] = layer_metrics(tracer.spans)
        result["attribution"] = linalg_attribution(tracer.spans)
        result["unmeasured"] = tracer.unmeasured
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

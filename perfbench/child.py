"""One benchmark instance in a fresh process: set up, run one workload, check it.

Started by run.py with the parent's CLOCK_MONOTONIC stamp taken just
before the spawn, so setup_s (spawn to a built GridDomain) covers
interpreter start, `import fraceig.cli`, loading the spec JSON and
build_domain.  Writes its measurements to <out>/result.json.

    python3 perfbench/child.py --workload NAME --seed N --spec FILE --out DIR
                               --spawned T --mode setup|run|trace
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment(workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": workload.blas_threads,
        "library_threads": workload.threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    out = Path(args.out)

    from workloads import SELFTEST_WORKLOADS, WORKLOADS

    workload = {**WORKLOADS, **SELFTEST_WORKLOADS}[args.workload]

    t0 = time.monotonic()
    import fraceig.cli  # noqa: F401  (what every CLI invocation imports)

    t1 = time.monotonic()
    if not Path(fraceig.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fraceig was imported from {fraceig.__file__}, not from {ROOT / 'src'}")
    from fraceig.domain import build_domain
    from fraceig.serialize import load_domain_spec

    spec = load_domain_spec(args.spec)
    t2 = time.monotonic()
    dom = build_domain(spec, t=4.0)
    t_built = time.monotonic()
    record = {
        # time.monotonic is the system-wide CLOCK_MONOTONIC, as in the parent
        "setup_s": t_built - args.spawned,
        "import_s": t1 - t0,
        "build_s": t_built - t2,
    }

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from spans import Tracer

            tracer = Tracer(f"{workload.name}-seed{args.seed}-{out.name}")
            tracer.install()
        import problems  # after install, so its fraceig names are the traced ones

        ops = problems.Ops()
        ctx = problems.Context(dom=dom, seed=args.seed, out_dir=out,
                               threads=workload.threads, ops=ops)
        runner = problems.RUNNERS[workload.kind]
        t_work = time.monotonic()
        gates = runner(ctx, **workload.params)
        record["run_s"] = time.monotonic() - t_work
        if tracer is not None:
            tracer.recording = False
        gates()
        record.update(
            attempted=ops.attempted,
            failed=len(ops.failures),
            wrong=ops.wrong,
            failures=[list(f) for f in ops.failures.values()],
        )
        if tracer is not None:
            record["layers"] = tracer.metrics()
            record["missing_hooks"] = tracer.missing
            tracer.write(out / "spans.jsonl")
    record["environment"] = _environment(workload)
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""fraceig benchmark: fixed problems, time to solution, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the benchmark imports fraceig from
its `src/`).  Every instance of the workload runs in a fresh child process
(child.py), so each pays what a CLI invocation pays.  One run first starts
a warm-up child and a few setup-only children, then whole-workload
children until the next one would end past S seconds (at least one; when
traced, at least one traced and one untraced).  The last line of standard
output is one JSON object: with --trace 0 it carries the end-to-end
metrics, with --trace 1 the per-layer ones, each as a median over the
run's children.  The line before it records the environment, the source
and each child.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import LAYER_METRICS
from workloads import SELFTEST_WORKLOADS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_PROBES = 8  # setup-only children per run, after one uncounted warm-up
MIN_WORK = 1  # whole-workload children per run (per mode when traced)
HARD_LIMIT_S = 170.0  # a run ends well inside the 180 s it is allowed

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s",
    "domain.build_s": "s",
    **{name: unit for name, (unit, _) in LAYER_METRICS.items()},
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _child_env(workload) -> dict:
    """The parent's environment with thread counts pinned, none inherited."""
    env = {k: v for k, v in os.environ.items() if k != "FRACEIG_THREADS"}
    blas = str(workload.blas_threads)
    env.update(
        OPENBLAS_NUM_THREADS=blas,
        OMP_NUM_THREADS=blas,
        MKL_NUM_THREADS=blas,
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _spawn(workload, seed: int, spec_path: Path, out: Path, mode: str, deadline: float,
           stop: threading.Event) -> dict:
    """Run one child to completion; its result.json plus wait4 resource usage.

    The child is killed and reaped if the run's deadline passes or stop is
    set (by SIGTERM), so no child outlives the run.
    """
    out.mkdir(parents=True)
    log = out / "child.log"
    cmd = [sys.executable, str(CHILD), "--workload", workload.name, "--seed", str(seed),
           "--spec", str(spec_path), "--out", str(out), "--mode", mode]
    with open(log, "wb") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                                env=_child_env(workload), stdout=fh, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise BenchError(f"child {out.name} exceeded the run's time limit")
                if stop.is_set():
                    raise BenchError("terminated")
                time.sleep(0.01)
        except BaseException:  # time limit, SIGTERM, Ctrl-C: never leave the child behind
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
    wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"child {out.name} exited {proc.returncode}:\n{tail}")
    record = json.loads((out / "result.json").read_text(encoding="utf-8"))
    record.update(
        mode=mode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        cpu_s=usage.ru_utime + usage.ru_stime,
    )
    return record


def _source_record() -> dict:
    """The commit when the checkout is a git repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _median(values):
    """Median; None if any value is missing; an observed value for counts."""
    values = list(values)
    if any(v is None for v in values):
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run(args, stop: threading.Event) -> tuple[dict, dict]:
    workload = {**WORKLOADS, **SELFTEST_WORKLOADS}.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "fraceig" / "__init__.py").is_file():
        raise BenchError(f"no fraceig sources under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    run_dir = WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(workload.spec) + "\n", encoding="utf-8")

    numbers = itertools.count()

    def child(mode: str) -> dict:
        if stop.is_set():
            raise BenchError("terminated")
        return _spawn(workload, args.seed, spec_path,
                      run_dir / f"child{next(numbers):02d}-{mode}", mode, deadline, stop)

    child("setup")  # warm-up, not counted: bytecode and file caches
    children = [child("setup") for _ in range(SETUP_PROBES)]
    # traced first: the first work child of a run tends to be the slowest,
    # so trace.overhead_s errs high rather than below zero
    modes = ("trace", "run") if args.trace else ("run",)
    work: list[dict] = []
    while True:
        mode = modes[len(work) % len(modes)]
        work.append(child(mode))
        children.append(work[-1])
        now = time.monotonic()
        typical = statistics.median(c["wall_s"] for c in work)
        if len(work) >= MIN_WORK * len(modes) and now + typical > start + args.seconds:
            break
        if now + 2.0 * typical > deadline:
            break

    runs = [c for c in work if c["mode"] == "run"]
    traced = [c for c in work if c["mode"] == "trace"]
    attempted = sum(c["attempted"] for c in work)
    failed = sum(c["failed"] for c in work)
    if args.trace:
        values = {
            "cli.import_s": _median(c["import_s"] for c in children),
            "domain.build_s": _median(c["build_s"] for c in children),
            **{name: _median(c["layers"][name] for c in traced) for name in LAYER_METRICS},
            "proc.cpu_s": _median(c["cpu_s"] for c in runs),
            "trace.overhead_s": _median(c["run_s"] for c in traced)
            - _median(c["run_s"] for c in runs),
        }
        units = PER_LAYER
    else:
        values = {
            "setup_s": _median(c["setup_s"] for c in children),
            "run_s": _median(c["run_s"] for c in runs),
            "peak_rss_mb": _median(c["peak_rss_mb"] for c in runs),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    missing = sorted({m for c in traced for m in c["missing_hooks"]})
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        if values[name] is None:
            metrics[name]["missing"] = [m for m in missing
                                        if m.split(":")[0] in LAYER_METRICS[name][1]]
    result = {
        "correct": all(c["wrong"] == 0 for c in work),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": time.monotonic() - start,
        "environment": {**children[0]["environment"], **_source_record(), "seed": args.seed},
        "failures": work[0]["failures"],
        "missing_hooks": missing,
        "children": [
            {k: c.get(k) for k in ("mode", "setup_s", "run_s", "wall_s", "peak_rss_mb",
                                   "cpu_s", "attempted", "failed")}
            for c in children
        ],
    }
    (run_dir / "result.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n", encoding="utf-8")
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    try:
        details, result = run(args, stop)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

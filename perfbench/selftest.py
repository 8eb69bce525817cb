"""Self-test of the benchmark on tiny versions of its workloads (about a minute).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed by name with its
unit in both modes, that the program's results pass their gates, that an
injected ConvergenceError is counted as one failed operation per instance
(and lowers ok_frac) while the run goes on, that a wrong result fails its
gate and makes the run incorrect, that SIGTERM leaves no child behind,
and that a hook whose target is gone yields a missing metric, not a zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402


def _bench(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2, proc.stdout
    details, result = (json.loads(line) for line in lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["details"] = details
    return result


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_every_metric_printed_with_its_unit():
    for workload in ("selftest-eig", "selftest-sweep", "selftest-certify"):
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result = _bench(workload, trace)
            assert result["correct"], (workload, result["details"]["failures"])
            assert result["failed"] == 0 and result["attempted"] >= 1
            metrics = result["metrics"]
            assert {name: m["unit"] for name, m in metrics.items()} == units
            for name, m in metrics.items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            if trace:
                assert metrics["eigen.solves"]["value"] >= 1
                assert metrics["descent.factorizations"]["value"] >= 1


def test_injected_convergence_error_is_counted():
    plain = _bench("selftest-certify", 0)
    injected = _bench("selftest-inject", 0)
    base = next(c for c in plain["details"]["children"] if c["mode"] == "run")
    for child in (c for c in injected["details"]["children"] if c["mode"] == "run"):
        assert child["attempted"] == base["attempted"]
        assert child["failed"] == base["failed"] + 1, (child, base)
    assert injected["details"]["failures"][0][:2] == ["comparison", "raised"]
    assert "injected stall" in injected["details"]["failures"][0][2]
    assert injected["correct"]  # a failure to finish, not a wrong result
    ok_frac = injected["metrics"]["ok_frac"]["value"]
    assert ok_frac == (injected["attempted"] - injected["failed"]) / injected["attempted"] < 1.0


def test_wrong_result_fails_its_gate():
    result = _bench("selftest-wrong", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["details"]["failures"][0][:2] == ["eig", "wrong"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_sigterm_stops_the_child():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "selftest-certify", "--seed", "9",
         "--seconds", "60"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    time.sleep(3.0)
    proc.terminate()
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode != 0 and not out  # no result line
    marker = "selftest-certify-seed9-trace0"
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            assert marker not in cmdline.read_text(errors="replace"), cmdline
        except OSError:
            pass  # the process ended while being read


def test_missing_hook_is_reported_missing():
    tracer = spans.Tracer("selftest")
    tracer.install((spans.Hook("core.energy", "fraceig.core", "EnergyKernel.no_such_method"),))
    assert tracer.missing == ["core.energy: fraceig.core.EnergyKernel.no_such_method"]
    values = tracer.metrics()
    assert values["core.energy_s"] is None and values["core.energy_calls"] is None
    assert values["core.pair_terms"] is None
    assert values["core.grad_calls"] == 0  # not missing, just not called


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

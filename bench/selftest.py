"""Self-test of the benchmark harness at tiny sizes (N = 16, n = 8, short lab lists).

    python3 bench/selftest.py

Runs every workload once untraced and once traced, and fails unless every
request passes its check and every metric named in BENCHMARK.json is emitted,
nonzero, with the unit it declares.  Takes under a minute.
"""

import json
import os
import shutil
import sys

import run

run.pin_blas_threads()  # before numpy loads with the workloads

import workloads  # noqa: E402


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if names["end_to_end"] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if names["per_layer"] != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name, workload in workloads.WORKLOADS.items():
        for trace in (False, True):
            workdir = run.BENCH_DIR / ".work" / f"selftest-{name}-{os.getpid()}"
            try:
                out = run.measure(workload, True, seed=7, seconds=0.0,
                                  trace=trace, workdir=str(workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            wanted = names["per_layer" if trace else "end_to_end"]
            missing = sorted(set(wanted) - set(out["metrics"]))
            if missing:
                problems.append(f"{name} trace={trace}: missing {missing}")
                continue
            line = run.result_line(out["recorder"], out["metrics"], wanted)
            json.dumps(line, allow_nan=False)
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {out['detail']['failures']}")
            zero = sorted(k for k, v in line["metrics"].items() if v["value"] == 0)
            if zero:
                problems.append(f"{name} trace={trace}: metrics read 0: {zero}")
            print(f"{name:22s} trace={int(trace)} attempted={line['attempted']} "
                  f"failed={line['failed']} metrics={len(line['metrics'])}")
    for p in problems:
        print("PROBLEM", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

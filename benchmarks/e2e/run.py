"""End-to-end run benchmark: four pinned plans, run-level metrics, layer trace.

    python benchmarks/e2e/run.py [--seed S] [--repeats N] [--record]
    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
    python benchmarks/e2e/run.py --compare A.json B.json

Closed loop, one client: every repeat is a fresh child interpreter
(``child.py``) run one at a time with BLAS pinned to one thread.  The first
form runs every workload ``--repeats`` times on the one seed, then one traced
pass each, prints every metric by name with its unit and writes
``out/results_seed<S>.json``; ``--record`` also rewrites ``baseline.json`` and
``BENCHMARK.json``.  The second form is the acceptance driver's: one workload,
one repeat on each of ``CONTRACT_REPEATS`` run seeds drawn from ``--seed``
(none started once ``--seconds`` have passed; ``--trace 1``: one plain and one
traced repeat of the first of them), the result as one JSON object on the last
line.  Exit code 1 when any repeat failed a correctness check.  See README.md
for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

OUT_DIR = HERE / "out"
RUN_SECONDS = 30  # BENCHMARK.json's run_seconds
# Plain repeats of one acceptance invocation, each on its own run seed: as
# many as take 23 - 30 s on the recording machine.  The count is fixed, not
# timed, so that an invocation's accuracy and traffic depend on --seed alone
# and not on how fast the host happened to be; --seconds only stops a host
# that is a third slower or worse from starting the later ones.
CONTRACT_REPEATS = {"sync_conv": 3, "wide_server": 10, "async_masked": 7,
                    "pool_100k": 4}
CHILD_TIMEOUT_S = 120
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def run_child(workload: str, seed: int, trace: bool = False) -> dict:
    """One repeat in a fresh interpreter; ``{"error": ...}`` when it died."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"record_{workload}_{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--plan", str(HERE / "workloads" / f"{workload}.json"),
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd += ["--trace", str(OUT_DIR / f"trace_{workload}.jsonl")]
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD},
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"exit code {proc.returncode}: {tail[0]}"}
    record = json.loads(out.read_text())
    out.unlink()
    return record


def run_seeds(seed: int, count: int) -> list[int]:
    """``count`` run seeds drawn from ``seed``: the acceptance invocation's
    inputs.  Accuracy, traffic and the work a run does (experts created,
    cohorts trained) move with the run seed far more than with the machine,
    so one invocation measures several of them and reports the median."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def measure(workload: str, seeds: list[int], trace: bool,
            seconds: float | None = None) -> dict:
    """One workload: a plain repeat per entry of ``seeds`` (none started once
    ``seconds`` have passed), then a traced pass on ``seeds[0]`` if asked;
    every run checked."""
    good: list[dict] = []
    reference: dict[int, dict] = {}  # first good record of each run seed
    failures: list[str] = []
    attempted = failed = 0

    def attempt(seed: int, traced: bool) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        record = run_child(workload, seed, trace=traced)
        # Comparing against an earlier run of the seed is also the
        # tracer-hygiene check: wrapping the layers must not change a
        # single accuracy.
        problems = ([record["error"]] if "error" in record else
                    M.check_record(record, reference.get(seed)))
        failures.extend(f"{workload} run {attempted} (run seed {seed}): {p}"
                        for p in problems)
        failed += bool(problems)
        return None if problems else record

    started = time.monotonic()
    for seed in seeds:
        if seconds is not None and time.monotonic() - started >= seconds:
            break
        record = attempt(seed, traced=False)
        if record is not None:
            good.append(record)
            reference.setdefault(seed, record)
    result: dict = {}
    if good:
        result["end_to_end"] = M.end_to_end_of(good)
        if trace:
            traced = attempt(seeds[0], traced=True)
            if traced is not None:
                result["per_layer"] = M.per_layer_of(
                    traced, result["end_to_end"]["run_wall_s"]["value"])
    result.update(attempted_runs=attempted, failed_runs=failed,
                  failures=failures)
    return result


def fingerprint() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": 1, "platform": platform.platform()}


# -------------------------------------------------------------------- printing

def print_workload(workload: str, result: dict) -> None:
    print(f"\n== {workload}: {result['failed_runs']} failed of "
          f"{result['attempted_runs']} runs")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if "end_to_end" in result:
        print(f"   {'end-to-end metric':<26}{'unit':<8}{'median':>12}"
              f"{'q1':>12}{'q3':>12}{'n':>6}{'uncalibrated':>14}")
        for name, m in result["end_to_end"].items():
            print(f"   {name:<26}{m['unit']:<8}{m['value']:>12.4f}"
                  f"{m['q1']:>12.4f}{m['q3']:>12.4f}{m['n']:>6}"
                  f"{m['raw']:>14.4f}")
        rounds = result["end_to_end"]["round_p50_ms"]["n"]
        print(f"   ({rounds} pooled round latencies support up to "
              f"p{M.highest_supported_percentile(rounds)}: ten samples beyond)")
    if "per_layer" in result:
        layer = result["per_layer"]
        traced = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        print(f"   {'layer metric':<44}{'unit':<8}{'value':>14}"
              f"{'of traced time':>16}")
        for metric in M.PER_LAYER:
            value = layer[metric.name]
            share = (f"{100 * value / traced:15.1f}%"
                     if metric.name.endswith(".self_s") else "")
            print(f"   {metric.name:<44}{metric.unit:<8}{value:>14.4f}{share}")


def contract_line(result: dict, trace: bool) -> str:
    """The acceptance driver's result object for one workload."""
    if trace:
        metrics = {m.name: {"value": result["per_layer"][m.name], "unit": m.unit}
                   for m in M.PER_LAYER}
    else:
        metrics = {m.name: {"value": result["end_to_end"][m.name]["value"],
                            "unit": m.unit} for m in M.GATED}
    return json.dumps({"correct": not result["failures"],
                       "attempted": result["attempted_runs"],
                       "failed": result["failed_runs"], "metrics": metrics})


# ------------------------------------------------------------------- recording

def benchmark_json() -> dict:
    """``BENCHMARK.json``: the declared vocabulary, nothing measured."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in M.WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in M.GATED],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in M.PER_LAYER],
    }


def write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")


def compare(path_a: str, path_b: str) -> int:
    base, new = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if base["fingerprint"] != new["fingerprint"]:
        print("note: the two files were measured on different machines")
    rows = M.compare_results(base, new)
    for workload, metric, verdict in rows:
        print(f"{workload:<14}{metric:<26}{verdict}")
    verdicts = [v for _w, _m, v in rows]
    print(f"\n{len(rows)} pairs: " + ", ".join(
        f"{verdicts.count(v)} {v}"
        for v in ("same", "better", "worse", "unresolved")))
    return 1 if "worse" in verdicts else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Results go to benchmarks/e2e/out/; no tracked file changes "
               "without --record.")
    parser.add_argument("--workload", choices=list(M.WORKLOADS),
                        help="measure one workload and end with its JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help="plain repeats per workload (default 5; with "
                             "--workload: CONTRACT_REPEATS run seeds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: start no repeat after this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = one plain and one traced run")
    parser.add_argument("--record", action="store_true",
                        help="rewrite baseline.json and BENCHMARK.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.workload is not None:
        trace = bool(args.trace)
        repeats = args.repeats
        if repeats is None:
            repeats = 1 if trace else CONTRACT_REPEATS[args.workload]
        result = measure(args.workload, run_seeds(args.seed, repeats), trace,
                         args.seconds)
        print_workload(args.workload, result)
        for failure in result["failures"]:  # the driver keeps stderr's tail
            print(f"FAILED {failure}", file=sys.stderr)
        if ("per_layer" if trace else "end_to_end") not in result:
            return 1  # nothing measured: no result line
        print(contract_line(result, trace))
        return 1 if result["failures"] else 0

    repeats = args.repeats if args.repeats is not None else 5
    results = {"fingerprint": fingerprint(), "seed": args.seed,
               "repeats": repeats, "workloads": {}}
    for workload in M.WORKLOADS:
        result = measure(workload, [args.seed] * repeats, trace=True)
        print_workload(workload, result)
        results["workloads"][workload] = result
    print("\nfingerprint: " + json.dumps(results["fingerprint"]))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"results_seed{args.seed}.json"
    write_json(out, results)
    print(f"results written to {out.relative_to(REPO)}")
    failed = sum(r["failed_runs"] for r in results["workloads"].values())
    if args.record and not failed:
        write_json(HERE / "baseline.json", results)
        write_json(REPO / "BENCHMARK.json", benchmark_json())
        print("recorded baseline.json and BENCHMARK.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""flowlab's benchmark: time to verdict per workload, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``BENCHMARK.json`` lists the workloads the benchmark gates on; the others
in ``WORKLOAD_NAMES`` run the same way by hand.

Run from the root of a flowlab checkout; flowlab is imported from ``src/``.
Each measurement runs in a fresh worker process (``worker.py``).

``--trace 0`` measures the end-to-end metrics with an unpatched package:
set-up time as the median of five fresh processes, and from one process
that runs passes for ``S`` seconds its wall and CPU time per pass, peak
resident memory and largest oracle error.  Pass times are reported in
``ref``: units of the mean time of a fixed reference kernel run before every
verdict call of the same process (``reference.py``).  On a shared host the
seconds a pass takes vary by up to half with the other tenants' load; the
kernel sees the same load, so the ratio does not.  The seconds are printed
too.  ``--trace 1`` runs a traced process for ``S/2`` seconds between two
untraced ones of ``S/4``, prints where the time goes per layer, and reports
the per-layer metrics with the tracing overhead.

Every verdict is checked against closed forms; the last line of output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 170.0  # every worker has ended by then, or the run fails
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("splitting-sweep", "chain-graph", "shadow-search", "cli-configs")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    """The caller's environment with flowlab on the path and BLAS threads
    capped at the processors this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    return env


def run_worker(args, mode, seconds, deadline):
    cmd = [
        sys.executable,
        str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("the run is out of time before a worker could start")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_table(table):
    print("where the time goes (traced run, per pass):")
    for group, wall, rows in table:
        title = f"  [{group}]" if group else "  [pass]"
        print(f"{title} wall {wall:.4f} s")
        print(f"    {'layer':40s} {'self_s':>9s} {'share':>7s} {'total_s':>9s} {'calls':>9s}")
        for name, self_s, total_s, calls in rows:
            share = self_s / wall if wall > 0 else 0.0
            print(f"    {name:40s} {self_s:9.4f} {share:7.1%} {total_s:9.4f} {calls:9.1f}")


def end_to_end(args, deadline):
    setups = [
        run_worker(args, "setup", 0.0, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]
    run = run_worker(args, "plain", float(args.seconds), deadline)
    setups.append(run["setup_s"])
    metrics = {
        "wall_ref": (run["wall_ref"], "ref"),
        "cpu_ref": (run["cpu_ref"], "ref"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "oracle_err_frac": (run["oracle_err_frac"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(
        f"passes: {run['passes']}, mean pass {run['wall_s']:.4f} s wall, {run['cpu_s']:.4f} s CPU; "
        f"reference kernel {run['ref_wall_s']:.5f} s wall, {run['ref_cpu_s']:.5f} s CPU"
    )
    print(f"setup samples: {', '.join(f'{s:.4f}' for s in setups)} s")
    return [run], metrics


def per_layer(args, deadline):
    # untraced runs before and after the traced one, so that the overhead
    # compares the two under the same load on a shared host
    quarter = args.seconds / 4.0
    before = run_worker(args, "plain", quarter, deadline)
    traced = run_worker(args, "traced", 2.0 * quarter, deadline)
    after = run_worker(args, "plain", quarter, deadline)
    print_table(traced["table"])
    units = spans.layer_metric_units()
    layers = dict(traced["layers"])
    # compared in reference units, which the host's load does not move
    plain = statistics.fmean([before["wall_ref"], after["wall_ref"]])
    layers["trace.overhead_frac"] = traced["wall_ref"] / plain - 1.0
    print(
        f"passes: {before['passes']} + {after['passes']} untraced, {traced['passes']} traced; "
        f"tracing overhead {layers['trace.overhead_frac']:.1%}"
    )
    return [before, traced, after], {name: (layers[name], units[name]) for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "flowlab" / "__init__.py").is_file():
        print(f"error: no flowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("environment:", json.dumps(runs[0]["env"], sort_keys=True))
    for finding in sorted({f for r in runs for f in r["findings"]}):
        print("finding:", finding)
    print(f"verdicts: {attempted}  failed: {failed}  fail_frac: {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload from its seed, then run passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

``setup`` builds the inputs and stops; ``plain`` and ``traced`` then run
passes as a closed loop with one client (each verdict call waits for the
previous one), starting no pass that would end after ``S`` seconds.  The
reference kernel (``reference.py``) runs before every verdict call; pass
times leave it out, and ``wall_ref``/``cpu_ref`` divide the mean pass by its
mean run.  Only ``traced`` wraps flowlab's layers, so the other modes import
an unpatched package.  The last line of standard output is one JSON object with the
measurements.
"""

import time

START = time.perf_counter()  # set-up is timed from before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def environment():
    import numpy
    import scipy

    import flowlab

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "flowlab": str(Path(flowlab.__file__).resolve().parent.relative_to(ROOT)),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    rec = None
    if args.mode == "traced":
        rec = spans.Recorder()
        spans.install(rec)
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - START
        result = {"setup_s": setup_s, "env": environment()}
        if args.mode != "setup":
            result.update(run_passes(workload, args, rec))
    print(json.dumps(result))


def run_passes(workload, args, rec):
    import reference  # after set-up, whose time must not include the kernel's imports

    oracle = checks.Oracle(reference=reference.kernel)
    reference.kernel()  # warm up the kernel, so that every run of it is timed alike
    walls = []

    def mark(label):
        if rec is not None:
            rec.run_id = f"pass{len(walls)}/{label}"

    if rec is not None:
        rec.counts.clear()
    min_passes = getattr(workload, "min_passes", 1)
    loop_start = time.perf_counter()
    cpu_start = time.process_time()
    while True:
        if rec is not None:
            rec.run_id = f"pass{len(walls)}"
        wall0, ref0 = time.perf_counter(), oracle.ref_s[0]
        workload.run_pass(oracle, mark)
        # a pass's wall time leaves out the reference kernel's runs
        walls.append(time.perf_counter() - wall0 - (oracle.ref_s[0] - ref0))
        elapsed = time.perf_counter() - loop_start
        # start no pass that would end after the run length
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > args.seconds:
            break
    cpu = time.process_time() - cpu_start - oracle.ref_s[1]
    if rec is not None:
        rec.run_id = ""
    ref_wall, ref_cpu = (t / oracle.ref_runs for t in oracle.ref_s)
    out = {
        "passes": len(walls),
        "pass_walls": walls,
        "wall_s": statistics.fmean(walls),
        "cpu_s": cpu / len(walls),
        "ref_wall_s": ref_wall,
        "ref_cpu_s": ref_cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "oracle_err_frac": oracle.err_frac,
        "findings": sorted(oracle.findings),
    }
    out["wall_ref"] = out["wall_s"] / ref_wall
    out["cpu_ref"] = out["cpu_s"] / ref_cpu
    if rec is not None:
        out["table"] = spans.time_table(rec, len(walls), out["wall_s"])
        out["layers"] = spans.layer_metrics(rec, walls, out["wall_s"])
        rec.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    return out


if __name__ == "__main__":
    main()

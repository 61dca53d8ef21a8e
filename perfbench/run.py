"""kgt5lab benchmark: one workload, one process, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``train``, ``decode``
and ``kg-sweep``.  The run builds its inputs from ``--seed`` several times
(their median is ``setup_s``; each ends with a warm-up that fills caches), then
repeats the workload's fixed job until ``--seconds`` have passed.  Every
job's outputs are checked, and every job must reproduce the first one's
outputs bit for bit.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``job_s`` and
``peak_rss_mb``.  ``job_s`` is the 10th percentile (nearest rank) of the
job wall times: on a shared machine the slower jobs are those that ran
while neighbours contended for caches and memory, and the low percentile
follows the program's own speed far more steadily than the median.

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones, the median stage throughputs of the untraced
ones and the tracing overhead between the two.
Both print a table, write ``perfbench/out/`` files and end with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS and OpenMP read these once, when numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

SETUP_REPEATS = 7
JOB_PERCENTILE = 10
OUT_DIR = ROOT / "perfbench" / "out"

# Stage throughputs (untraced jobs) and their units.
STAGE_UNITS = {
    "pretrain.examples_per_s": "1/s",
    "finetune.none.examples_per_s": "1/s",
    "finetune.entity.examples_per_s": "1/s",
    "finetune.relation.examples_per_s": "1/s",
    "finetune.both.examples_per_s": "1/s",
    "eval.questions_per_s": "1/s",
    "transe.triple_epochs_per_s": "1/s",
    "linkpred.triples_per_s": "1/s",
    "io.mb_per_s": "MB/s",
}


def percentile(xs, p: float):
    """Nearest-rank ``p``-th percentile."""
    s = sorted(xs)
    return s[max(1, math.ceil(p / 100.0 * len(s))) - 1]


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas_dep = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas_dep['name']} {blas_dep['version']}"
    except (AttributeError, KeyError, TypeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": _commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _commit() -> str:
    """HEAD of the checkout's git metadata, when it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "decode", "kg-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import kgt5lab

    src = (ROOT / "src").resolve()
    if src not in Path(kgt5lab.__file__).resolve().parents:
        print(f"kgt5lab imported from {kgt5lab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    env = environment()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="io-", dir=OUT_DIR))
    try:
        return _run(args, env, scratch, tracing, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, env, scratch, tracing, workloads) -> int:
    reference = workloads.load_reference()[args.workload]
    wl = workloads.make(args.workload, scratch, reference)
    input_seed = args.seed % workloads.N_INPUT_SEEDS
    tracer = tracing.Tracer() if args.trace else None

    setup_times = []
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.start_phase("setup")
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = wl.setup(input_seed)
            gc.collect()
            setup_times.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.restore()

    jobs = []  # (traced, seconds, JobLog)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.start_phase(len(jobs))
            tracer.install()
        log = workloads.JobLog()
        try:
            t0 = time.perf_counter()
            wl.job(state, log)
            # The job pays for collecting its own cyclic garbage (autodiff
            # tapes are cycles), so no job inherits another's.
            gc.collect()
            seconds = time.perf_counter() - t0
        finally:
            if traced:
                tracer.restore()
        for op, message in wl.verify(reference, input_seed, log.obs).items():
            log.fail(op, message)
        if jobs and log.digest != jobs[0][2].digest:
            log.fail("outputs", "job outputs differ from the first job's")
        jobs.append((traced, seconds, log))
        if time.perf_counter() >= deadline and (tracer is None or len(jobs) >= 2):
            break

    attempted = sum(log.attempted for _t, _s, log in jobs)
    failures = [(i, op, msg) for i, (_t, _s, log) in enumerate(jobs)
                for op, msg in log.failures.items()]
    failed = min(attempted, len(failures))
    plain = [(s, log) for t, s, log in jobs if not t]
    job_s = percentile([s for s, _log in plain], JOB_PERCENTILE)

    stages = {}
    for metric in STAGE_UNITS:
        rates = [log.stages[metric][0] / log.stages[metric][1]
                 for _s, log in plain if metric in log.stages]
        stages[metric] = statistics.median(rates) if rates else 0.0

    if tracer is not None:
        traced_jobs = [i for i, (t, _s, _log) in enumerate(jobs) if t]
        traced_s = percentile([jobs[i][1] for i in traced_jobs], JOB_PERCENTILE)
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in tracing.layer_metrics(tracer, traced_jobs).items()}
        for name, unit in STAGE_UNITS.items():
            metrics[name] = {"value": stages[name], "unit": unit}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s - job_s) / job_s,
                                         "unit": "%"}
        tracer.write_tsv(OUT_DIR / f"spans-{wl.name}.tsv")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "job_s": {"value": job_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    _print_table(wl.name, args, env, setup_times, jobs, stages, failures, metrics)
    with open(OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "input_seed": input_seed, "environment": env,
                   "setup_s": setup_times, "job_s": [s for _t, s, _l in jobs],
                   "traced": [t for t, _s, _l in jobs], "stages": stages,
                   "failures": failures, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def _print_table(name, args, env, setup_times, jobs, stages, failures, metrics) -> None:
    print(f"# kgt5lab benchmark  workload={name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in env.items():
        print(f"#   {key}: {value}")
    n_traced = sum(1 for t, _s, _l in jobs if t)
    print(f"# set-ups: {len(setup_times)}  jobs: {len(jobs)} ({n_traced} traced)")
    for metric, value in stages.items():
        if value and metric not in metrics:
            print(f"  {metric:<40} {value:14.4f} {STAGE_UNITS[metric]}")
    for metric, m in metrics.items():
        print(f"  {metric:<40} {m['value']:14.4f} {m['unit']}")
    for job, op, message in failures:
        print(f"  FAILED job {job} {op}: {message}")


if __name__ == "__main__":
    sys.exit(main())

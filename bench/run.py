"""balhyp benchmark: closed-loop CLI jobs with end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload bis --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One client runs one job at a time, in-process, through `balhyp.cli.main`
(a closed loop: the next job starts when the previous one returns).  Jobs
cycle through the workload's plan until `--seconds` of job time have been
measured.  Every job's outputs go through the independent checker in
`check.py`, outside the timed region.  `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates each job untraced and traced and reports
the per-layer metrics of `tracing.py`.  The last line of standard output is
one JSON object; a fuller record, and the spans of a traced run, are
written under `bench/out/`.  See `bench/README.md` for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# A run stops starting jobs after this multiple of --seconds of wall time,
# so a run whose checks are slow still ends in bounded time.
WALL_FACTOR = 3

# The gated end-to-end metrics.  Job times are gated in units of REFERENCE
# (see `reference`), because on a shared host the machine's speed drifts by
# up to 2x over tens of seconds; the raw seconds are printed and recorded.
END_TO_END = {
    "setup_s": "s",
    "job_p50_rel": "ref",
    "job_tail_rel": "ref",
    "peak_rss_mb": "MB",
}
RAW = {"job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s", "fail_ratio": "ratio",
       "palette_mean": "colors", "side_frac_mean": "ratio", "stat_alarms": "count"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import balhyp.cli; print(time.perf_counter() - t)"
)


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def preflight() -> None:
    """Refuse to measure a different program than the one users run."""
    if sys.flags.optimize:
        fail("refusing to run under python -O: it strips balhyp's post-condition asserts")
    threads = os.environ.get("BALHYP_THREADS", "1")
    if not threads.isdigit() or int(threads) > 1:
        fail(f"refusing to run with BALHYP_THREADS={threads}; the benchmark is serial")
    if not (SRC / "balhyp" / "__init__.py").is_file():
        fail(f"no balhyp sources under {SRC}")


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def facts(args, import_s: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "optimize": sys.flags.optimize,
        "BALHYP_THREADS": os.environ.get("BALHYP_THREADS"),
        "import_s_in_process": import_s,
    }


def time_setup(workload: str, seed: int):
    """Median of SETUP_REPEATS set-ups: import in a fresh interpreter, then
    generate the job plan and its input files.  Returns (median, samples, plan)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        t0 = perf_counter()
        jobs = workloads.plan(workload, seed)
        samples.append(float(probe.stdout.strip()) + perf_counter() - t0)
    return statistics.median(samples), samples, jobs


def reference() -> float:
    """Time a fixed, interpreter-bound computation (tuples, sets, dicts, like
    balhyp's hot loops).  Timed next to every job, it measures the machine's
    current speed, so job time / reference time stays put while both drift."""
    t0 = perf_counter()
    seen = set(range(0, 20000, 3))
    tally = {}
    for i in range(60000):
        e = (i % 251, i % 127)
        if e[0] in seen:
            tally[e] = tally.get(e, 0) + 1
    return perf_counter() - t0


def tail(times: list):
    """(value, percentile) of the highest percentile with >= 10 jobs beyond it;
    the maximum when fewer than 11 jobs ran."""
    s = sorted(times)
    idx = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[idx], 100.0 * (idx + 1) / len(s)


def loop(jobs: list, seconds: float, tracer):
    """Cycle through `jobs` until `seconds` of job time are measured.

    With a tracer, each job runs both untraced and traced.  Returns the
    untraced and the traced results; a job whose output differs from an
    earlier run of the same plan job is marked failed."""
    plain, traced = [], []
    first_digest = {}
    busy = 0.0
    ref_prev = reference()
    start = perf_counter()
    i = 0
    while busy < seconds and perf_counter() - start < WALL_FACTOR * seconds:
        j = i % len(jobs)
        modes = [(plain, None)]
        if tracer is not None:
            # alternate which copy runs first: a plan job's first run is slower
            modes.insert(i % 2, (traced, i))
        for sink, trace_id in modes:
            if trace_id is not None:
                tracer.job = trace_id
                tracer.install()
            try:
                res = workloads.run_job(jobs[j])
            finally:
                if trace_id is not None:
                    tracer.uninstall()
            ref_next = reference()
            res["job"], res["plan_index"] = i, j
            res["ref_s"] = (ref_prev + ref_next) / 2
            res["rel"] = res["s"] / res["ref_s"]
            ref_prev = ref_next
            if res["failed"] is None:
                want = first_digest.setdefault(j, res["digest"])
                if res["digest"] != want:
                    res["failed"] = f"output differs from an earlier run of plan job {j}"
            busy += res["s"]
            sink.append(res)
        i += 1
    return plain, traced


def end_to_end(results: list, setup_s: float) -> tuple:
    """The gated metrics, and the tail's percentile and job count."""
    rels = [r["rel"] for r in results]
    tail_rel, tail_pct = tail(rels)
    return {
        "setup_s": setup_s,
        "job_p50_rel": statistics.median(rels),
        "job_tail_rel": tail_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"tail_percentile": tail_pct, "jobs": len(rels)}


def raw_metrics(results: list) -> dict:
    """Job times in seconds, fail_ratio, and the workload's quality means."""
    times = [r["s"] for r in results]
    ok = [r["counts"] for r in results if r["failed"] is None]
    out = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail(times)[0],
        "jobs_per_s": len(ok) / sum(times),
        "fail_ratio": (len(results) - len(ok)) / len(results),
    }
    pal = [c["palette"] for c in ok if "palette" in c]
    if pal:
        out["palette_mean"] = statistics.fmean(pal)
    sides = [c["side"] / c["n"] for c in ok if "side" in c]
    if sides:
        out["side_frac_mean"] = statistics.fmean(sides)
    if any("alarms" in c for c in ok):
        out["stat_alarms"] = sum(c.get("alarms", 0) for c in ok)
    return out


def per_layer(tracer, plain, traced, plan_len) -> tuple:
    """Per-job means of every traced function plus the derived ratios.

    Only whole cycles of the plan are counted when there is at least one,
    so two runs of one seed count exactly the same work."""
    whole = len(traced) - len(traced) % plan_len if len(traced) >= plan_len else len(traced)
    counted = traced[:whole]
    ids = {r["job"] for r in counted}
    stats = tracer.aggregate(ids)
    per_job = tracer.counts_by_job()
    n = max(len(counted), 1)
    metrics, units = {}, {}
    for name, (calls, incl, self_s) in stats.items():
        for suffix, value, unit in (("calls", calls, "count/job"),
                                    ("s", incl, "s/job"), ("self_s", self_s, "s/job")):
            metrics[f"{name}.{suffix}"], units[f"{name}.{suffix}"] = value / n, unit
    attempts = sum(r["counts"].get("attempts", 0) for r in counted)
    accepted = sum(r["counts"].get("accepted", 0) for r in counted)
    pm_calls = stats["matching.find_pm_complement"][0]
    pm_streams = sum(per_job.get(i, {}).get("rng.rng_for<matching", 0) for i in ids)
    run_ind_calls, run_ind_s = stats["indep.run_ind"][0], stats["indep.run_ind"][1]
    derived = {
        "coloring.attempts_per_job": (attempts / n, "count/job"),
        "coloring.accept_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
        "matching.restarts_per_call": (pm_streams / pm_calls if pm_calls else 0.0, "ratio"),
        "indep.trials_per_s": (run_ind_calls / run_ind_s if run_ind_s else 0.0, "1/s"),
        # each traced job ran next to its untraced copy, so compare pairwise
        "trace.overhead_ratio": (
            statistics.median(t["s"] / p["s"] for t, p in zip(traced, plain)), "ratio"),
    }
    for key, (value, unit) in derived.items():
        metrics[key], units[key] = value, unit
    for r in traced:
        r["counts"] = dict(r["counts"], calls=per_job.get(r["job"], {}))
    job_s = sum(r["s"] for r in counted) / n
    share = {}
    for name, (_calls, _incl, self_s) in stats.items():
        layer = name.split(".")[0]
        share[layer] = share.get(layer, 0.0) + self_s / n / job_s
    return metrics, units, {"counted_jobs": len(counted), "absent": tracer.absent,
                            "self_share": share}


def count_digest(results: list, plan_len: int) -> dict:
    """Digests of the first execution of every plan job: outputs and counts."""
    first = {}
    for r in results:
        if r["failed"] is None:
            first.setdefault(r["plan_index"], r)
    order = [first[j] for j in sorted(first)]
    out_h = hashlib.sha256()
    cnt_h = hashlib.sha256()
    for r in order:
        out_h.update(r["digest"].encode())
        cnt_h.update(json.dumps(r["counts"], sort_keys=True).encode())
    return {"plan_jobs": plan_len, "covered": len(order),
            "outputs": out_h.hexdigest()[:16], "counts": cnt_h.hexdigest()[:16]}


def self_test() -> list:
    """Run the checker against corrupted copies of small real outputs."""
    cli = sys.modules["balhyp.cli"]

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"self-test job {argv} exited {rc}")
        return buf.getvalue()

    def make():
        quiet(["gen", "--k", "2", "--n", "16", "--p", "0.25", "--seed", "3",
               "--out", "st.khg"])
        edges = check.read_khg("st.khg")[2]
        bis_out = quiet(["bis", "--in", "st.khg", "--D", "4", "--trials", "4",
                         "--seed", "1", "--json", "st.bis.json"])
        col_out = quiet(["color", "--in", "st.khg", "--seed", "1",
                         "--json", "st.col.json"])
        spec = {"mode": "bis", "trials": 5, "seed": 1,
                "cells": [{"k": 2, "n": 8, "D": 3.0, "eps": 0.2}]}
        with open("st.spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        exp_out = quiet(["experiment", "--spec", "st.spec.json",
                         "--out-prefix", "st"])
        base = {"edges": edges, "k": 2, "n": 16}
        return {
            "bis": dict(base, payload=check.load_json("st.bis.json"), stdout=bis_out),
            "color": dict(base, payload=check.load_json("st.col.json"), stdout=col_out),
            "experiment": {"prefix": "st", "spec": spec, "stdout": exp_out},
        }

    escaped = check.self_test(make())
    probe = tracing.Tracer(dict(tracing.LAYERS, core=tracing.LAYERS["core"] + ("renamed_away",)))
    probe.install()
    probe.uninstall()
    if probe.absent != ["core.renamed_away"]:
        escaped.append(f"tracer absent layers {probe.absent}")
    return escaped


def run_one(args) -> int:
    preflight()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import balhyp.cli  # noqa: F401  (imports every layer module)

    import_s = perf_counter() - t0
    if Path(sys.modules["balhyp"].__file__).resolve().parent != SRC / "balhyp":
        fail(f"balhyp imported from {sys.modules['balhyp'].__file__}, not {SRC}")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    os.chdir(workdir)
    try:
        setup_s, setup_samples, jobs = time_setup(args.workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = loop(jobs, args.seconds, tracer)
        escaped = self_test()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    results = plain + traced
    e2e, tail_info = end_to_end(plain, setup_s)
    extras = raw_metrics(plain)
    record = {
        "facts": facts(args, import_s),
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "tail": tail_info,
        "raw": extras,
        "self_test_escaped": escaped,
    }
    if tracer is not None:
        metrics, units, info = per_layer(tracer, plain, traced, len(jobs))
        record.update(per_layer=metrics, trace=info)
        tracer.dump(OUT / f"spans-{tag}.jsonl")
    else:
        metrics, units = e2e, END_TO_END
    record["digest"] = count_digest(traced or plain, len(jobs))
    record["jobs"] = results
    with open(OUT / f"record-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    failed = sum(r["failed"] is not None for r in results)
    for r in results:
        if r["failed"] is not None:
            print(f"failed job {r['job']} (plan {r['plan_index']}): {r['failed']}")
    for name in escaped:
        print(f"self-test: corrupted output accepted: {name}")
    print("facts: " + " ".join(f"{k}={v}" for k, v in record["facts"].items()
                               if k not in ("workload", "seed", "seconds", "trace")))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={tail_info['jobs']} tail=p{tail_info['tail_percentile']:.0f} "
          f"digest={record['digest']['outputs']}/{record['digest']['counts']}")
    for name, value in e2e.items():
        print(f"{name:34s} {value:.6g} {END_TO_END[name]}")
    for name, value in extras.items():
        print(f"{name:34s} {value:.6g} {RAW[name]}")
    if tracer is not None:
        if tracer.absent:
            print(f"absent layers: {', '.join(tracer.absent)}")
        print("self-time share of a traced job: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(info["self_share"].items(), key=lambda kv: -kv[1])))
        for name, value in metrics.items():
            if value or not name.endswith(("calls", ".s", "self_s")):
                print(f"{name:34s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not escaped,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb belongs to it."""
    rc = 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = subprocess.run(cmd, check=False).returncode or rc
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

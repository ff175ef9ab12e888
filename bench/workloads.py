"""The benchmark's workloads: job plans derived from a seed, and how to run
and check one job.

A job is one or more `balhyp` command lines run in-process through
`balhyp.cli.main`, followed by the independent check of what they wrote.
A plan is a short list of distinct jobs that the benchmark cycles
through, with shapes interleaved so that every stretch of a run holds the
same mix.  Every instance parameter and seed comes from the workload seed,
so the same seed always gives the same jobs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter

import check

# Shapes of the gen-then-run workloads: the `gen` edge probability and the
# second command's own flags.
#
# bis: k=2 n=1024 has n^k = 2^20 candidate edges, below the sampler's 10^7
# per-edge limit, so gen takes the per-edge path; k=3 n=1024 (2^30) takes
# the binomial path.  D is the average degree; trial counts even out the
# two job costs.
BIS_SHAPES = (
    {"k": 2, "n": 1024, "p": 64 / 1024, "args": ["--D", "64", "--trials", "4"]},
    {"k": 3, "n": 1024, "p": 32 / 1024**2, "args": ["--D", "32", "--trials", "11"]},
)

# color: palettes are about 22, 8 and 33.  Density is varied because the
# report's proper-coloring check costs O(palette * m).
COLOR_SHAPES = (
    {"k": 2, "n": 256, "p": 32 / 256, "args": []},
    {"k": 3, "n": 256, "p": 32 / 256**2, "args": []},
    {"k": 2, "n": 128, "p": 0.4, "args": []},
)

# Distinct instances per shape in a plan; more of them average out
# instance-to-instance cost differences between seeds.
SHAPES = {"bis": (BIS_SHAPES, 6), "color": (COLOR_SHAPES, 4)}

# Tiny cells, each spec about half a second, one spec per mode; trial
# counts make the four cost the same, so the median job does not fall on a
# boundary between modes.
EXPERIMENT_SPECS = (
    {"mode": "bis", "trials": 200, "cells": [{"k": 2, "n": 128, "D": 8.0, "eps": 0.2}]},
    {
        "mode": "bound",
        "trials": 100,
        "cells": [
            {"k": 2, "N": 8, "s": 4, "p": 0.5},
            {"k": 2, "N": 10, "s": 4, "p": 0.5},
        ],
    },
    {
        "mode": "concentration",
        "trials": 160,
        "cells": [{"k": 2, "n": 128, "q": 6, "D": 8.0}],
    },
    {
        "mode": "color",
        "trials": 40,
        "cells": [{"k": 2, "n": 128, "Delta": 16.0, "eps": 0.2}],
    },
)

WORKLOADS = ("bis", "color", "experiment")


def derive(*parts) -> int:
    """A non-negative 31-bit seed that depends only on `parts`."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def plan(workload: str, seed: int) -> list:
    """The distinct jobs of one run, in the order they are cycled.

    File names are relative: jobs run inside a scratch directory, so their
    printed output does not depend on where the checkout lives."""
    jobs = []
    if workload == "experiment":
        for i, template in enumerate(EXPERIMENT_SPECS):
            base = f"j{i}"
            spec = dict(template, seed=derive(workload, seed, i, "spec"))
            with open(f"{base}.spec.json", "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            jobs.append({
                "kind": "experiment", "spec": spec, "prefix": base,
                "files": [f"{base}.trials.csv", f"{base}.summary.csv"],
                "argvs": [["experiment", "--spec", f"{base}.spec.json", "--out-prefix", base]],
            })
        return jobs
    shapes, replicas = SHAPES[workload]
    for i in range(len(shapes) * replicas):
        s = shapes[i % len(shapes)]
        base = f"j{i}"
        jobs.append({
            "kind": workload, "k": s["k"], "n": s["n"],
            "files": [f"{base}.khg", f"{base}.json"],
            "argvs": [
                ["gen", "--k", str(s["k"]), "--n", str(s["n"]), "--p", repr(s["p"]),
                 "--seed", str(derive(workload, seed, i, "gen")), "--out", f"{base}.khg"],
                [workload, "--in", f"{base}.khg", *s["args"],
                 "--seed", str(derive(workload, seed, i, workload)), "--json", f"{base}.json"],
            ],
        })
    return jobs


def run_job(job: dict) -> dict:
    """Run a job's command lines, then check and fingerprint its outputs.

    Only the command lines are timed.  The result has the time, whether
    the job failed and why, its exact counts, and a digest of its outputs."""
    cli = sys.modules["balhyp.cli"]
    outs, codes = [], []
    reason = None
    t0 = perf_counter()
    for argv in job["argvs"]:
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            reason = f"{argv[0]} raised {type(exc).__name__}: {exc}"
            break
        outs.append(buf.getvalue())
        codes.append(rc)
        # `experiment` exits 2 on a fail row; the checker decides what the row is
        if rc != 0 and (argv[0], rc) != ("experiment", 2):
            reason = f"{argv[0]} exited {rc}: {err.getvalue().strip()[:200]}"
            break
    elapsed = perf_counter() - t0
    counts = {}
    digest = hashlib.sha256()
    if reason is None:
        try:
            counts = _check(job, outs, codes)
            for text in outs:
                digest.update(text.encode())
            for path in job["files"]:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        except (check.Reject, OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"check: {exc}"
    return {"s": elapsed, "failed": reason, "counts": counts,
            "digest": digest.hexdigest()[:16]}


def _check(job, outs, codes) -> dict:
    if job["kind"] == "experiment":
        rows, accepted, alarms = check.check_experiment(job["prefix"], job["spec"], outs[0])
        if (codes[0] == 2) != (alarms > 0):
            raise check.Reject(f"experiment exited {codes[0]} with {alarms} fail rows")
        counts = {"mode": job["spec"]["mode"], "rows": rows, "alarms": alarms}
        if job["spec"]["mode"] == "color":
            counts.update(attempts=rows, accepted=accepted)
        return counts
    k, n = job["k"], job["n"]
    edges = check.check_gen(job["files"][0], outs[0], k, n)
    payload = check.load_json(job["files"][1])
    if job["kind"] == "bis":
        side = check.check_bis(edges, k, n, payload, outs[1])
        return {"m": len(edges), "n": n, "side": side}
    palette = check.check_color(edges, k, n, payload, outs[1])
    report = payload["report"]
    return {"m": len(edges), "palette": palette, "path": report["path"],
            "attempts": report["retries_used"],
            "accepted": int(report["path"] == "main")}

"""Independent output checker for the benchmark's jobs.

Everything here re-derives the verdict from the files a job wrote, with
numpy and the khg text format only; it never calls balhyp's validators, so
a bug that makes the library accept its own wrong output still shows.
Each checker raises `Reject` with a reason; `self_test` feeds corrupted
outputs to every checker and reports any that are let through.
"""

from __future__ import annotations

import copy
import csv
import json
import math

import numpy as np


class Reject(Exception):
    """An output failed an independent check."""


def read_khg(path):
    """(k, part sizes, edges as an (m, k) int64 array) of a khg v1 file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n", 3)
    if len(lines) < 4 or lines[0] != "khg 1":
        raise Reject(f"{path}: not a khg v1 file")
    head = [int(x) for x in lines[1].split()]
    k, sizes, m = head[0], head[1:], int(lines[2])
    if len(sizes) != k:
        raise Reject(f"{path}: header declares k={k} but {len(sizes)} part sizes")
    edges = np.array(lines[3].split(), dtype=np.int64).reshape(-1, k)
    if len(edges) != m:
        raise Reject(f"{path}: header says m={m}, file has {len(edges)} edges")
    if m and ((edges < 0).any() or (edges >= np.array(sizes)).any()):
        raise Reject(f"{path}: edge index out of range")
    return k, sizes, edges


def check_gen(path, stdout, k, n):
    """The sampled file has the requested shape and the edge count printed."""
    kk, sizes, edges = read_khg(path)
    if kk != k or sizes != [n] * k:
        raise Reject(f"gen wrote k={kk} parts={sizes}, asked for k={k} n={n}")
    if f"m={len(edges)}" not in stdout:
        raise Reject(f"gen printed {stdout.strip()!r}, file has m={len(edges)}")
    return edges


def check_bis(edges, k, n, payload, stdout):
    """A balanced witness of the reported side that contains no edge.

    Returns the side."""
    best = payload["best"]
    side = best["side"]
    witness = best["witness"]
    if len(witness) != k:
        raise Reject(f"witness has {len(witness)} parts, k={k}")
    member = np.zeros((k, n), dtype=bool)
    for j, part in enumerate(witness):
        idx = np.asarray(part, dtype=np.int64)
        if len(idx) != side:
            raise Reject(f"witness part {j + 1} has {len(idx)} vertices, side {side}")
        if len(idx) and (idx.min() < 0 or idx.max() >= n):
            raise Reject(f"witness part {j + 1} index out of range")
        if len(np.unique(idx)) != len(idx):
            raise Reject(f"witness part {j + 1} repeats a vertex")
        member[j, idx] = True
    if len(edges) and member[np.arange(k), edges].all(axis=1).any():
        raise Reject("witness contains an edge")
    if side != max(payload["trial_sides"]):
        raise Reject(f"side {side} is not the best trial side {max(payload['trial_sides'])}")
    if f"best side {side} " not in stdout:
        raise Reject(f"printed {stdout.strip()!r}, witness side is {side}")
    return side


def check_color(edges, k, n, payload, stdout):
    """A total coloring whose classes are balanced and edge-free, with the
    reported palette.  Returns the palette."""
    colors = payload["colors"]
    if len(colors) != k or any(len(part) != n for part in colors):
        raise Reject("coloring shape does not match the instance")
    if any(c is None for part in colors for c in part):
        raise Reject("coloring is not total")
    phi = np.asarray(colors, dtype=np.int64)
    used = np.unique(phi)
    palette = payload["report"]["palette"]
    if len(used) != palette:
        raise Reject(f"{len(used)} colors used, report says palette {palette}")
    if f"palette {palette} " not in stdout:
        raise Reject(f"printed {stdout.strip()!r}, palette is {palette}")
    counts = np.stack([np.bincount(row, minlength=used.max() + 1) for row in phi])
    if (counts != counts[0]).any():
        raise Reject("a color class is not balanced")
    if len(edges):
        ends = phi[np.arange(k), edges]
        if (ends == ends[:, :1]).all(axis=1).any():
            raise Reject("a color class contains an edge")
    return palette


def _se3(f, T):
    return 3 * math.sqrt(f * (1 - f) / T)


def _recompute(mode, cell, cols, T):
    """The summary rows of one cell, recomputed from its trial columns:
    (check, lhs, rhs or None when it needs the instance, kind).  `kind` is
    "upper" (passes when lhs <= rhs), "lower" (lhs >= rhs) or "info"."""
    if mode == "bis":
        k, n, D, eps = cell["k"], cell["n"], cell["D"], cell["eps"]
        p = (((1 - eps / 4) / (k - 1)) * math.log(D) / D) ** (1 / (k - 1))
        sizes = np.array([[int(x) for x in v.split(";")] for v in cols["part_sizes"]])
        rows = [(f"part{j + 1}_size_binomial", abs(sizes[:, j].mean() - n * p),
                 3 * math.sqrt(n * p * (1 - p) / T), "upper") for j in range(k - 1)]
        return rows + [("survivor_mean_lower", sizes[:, k - 1].mean(), None, "lower")]
    if mode == "bound":
        k, N, s, p = cell["k"], cell["N"], cell["s"], cell["p"]
        f = np.mean([int(v) for v in cols["exists"]])
        bound = math.comb(N, s) ** k * (1 - p) ** (s**k)
        return [("union_bound", f, bound + _se3(f, T), "upper")]
    if mode == "concentration":
        n, q = cell["n"], cell["q"]
        masks = np.array([int(v) for v in cols["probe_banned_mask"]])
        ban = [((masks >> c) & 1).mean() for c in range(q)]
        empty = np.mean([int(v) for v in cols["probe_empty"]])
        v1c1 = np.mean([int(v) for v in cols["v1c1_size"]])
        return [
            ("class_size_binomial", abs(v1c1 - n / q),
             3 * math.sqrt(n * (1 / q) * (1 - 1 / q) / T), "upper"),
            ("ban_freq_upper", ban[0], None, "upper"),
            ("empty_list_product", empty, math.prod(ban) + _se3(empty, T), "upper"),
        ]
    return [
        ("mean_u_k_vs_delta_n", np.mean([int(v) for v in cols["u_k_size"]]), None, "info"),
        ("clamp_rate", np.mean([int(v) for v in cols["clamped"]]), 0.0, "info"),
        ("accept_rate", np.mean([int(v) for v in cols["accepted"]]), 0.0, "info"),
    ]


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_experiment(prefix, spec, stdout):
    """Both tables are complete, and every summary row matches the same
    check recomputed from the trial table, verdict included.

    A `fail` row whose statistic and verdict recompute exactly is the
    check's own false alarm (each 3-sigma check raises one with probability
    of a few in a thousand), not a wrong output; it is counted, not
    rejected.  Returns (trial rows, accepted color-mode attempts, alarms)."""
    with open(f"{prefix}.summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.reader(fh))
    with open(f"{prefix}.trials.csv", newline="", encoding="utf-8") as fh:
        trials = list(csv.reader(fh))
    if summary[0][:2] != ["schema", "balhyp-summary-v1"] or trials[0][:2] != [
        "schema",
        "balhyp-trials-v1",
    ]:
        raise Reject("experiment table without its schema line")
    header, body, T = trials[1], trials[2:], spec["trials"]
    if len(body) != len(spec["cells"]) * T:
        raise Reject(f"{len(body)} trial rows, expected {len(spec['cells']) * T}")
    want = []
    for ci, cell in enumerate(spec["cells"]):
        mine = [r for r in body if int(r[0]) == ci]
        cols = {name: [r[i] for r in mine] for i, name in enumerate(header)}
        want += [(ci,) + row for row in _recompute(spec["mode"], cell, cols, T)]
    got = summary[2:]
    if len(got) != len(want):
        raise Reject(f"{len(got)} summary rows, expected {len(want)}")
    alarms = 0
    for row, (ci, name, lhs, rhs, kind) in zip(got, want):
        r_lhs, r_rhs, verdict = float(row[3]), float(row[4]), row[5]
        if int(row[0]) != ci or row[2] != name or not _close(r_lhs, lhs):
            raise Reject(f"summary row {row[:4]} does not match the trials ({name} = {lhs!r})")
        if rhs is not None and not _close(r_rhs, rhs):
            raise Reject(f"summary row {row[:3]} bound {r_rhs!r}, recomputed {rhs!r}")
        ok = r_lhs <= r_rhs if kind == "upper" else r_lhs >= r_rhs
        expect = "info" if kind == "info" else ("pass" if ok else "fail")
        if verdict != expect:
            raise Reject(f"summary row {row[:3]} says {verdict}, its values give {expect}")
        alarms += verdict == "fail"
    printed = [line for line in stdout.splitlines() if line.startswith("cell ")]
    if printed != [f"cell {r[0]} {r[2]}: {r[5]}" for r in got]:
        raise Reject("printed verdicts differ from the summary table")
    accepted = sum(int(r[header.index("accepted")]) for r in body) if spec["mode"] == "color" else 0
    return len(body), accepted, alarms


def self_test(out):
    """Corrupt real outputs and return the names of corruptions let through.

    `out` holds the outputs of one small bis job, one color job and one
    experiment job, as produced by the CLI."""
    escaped = []

    def expect_reject(name, fn):
        try:
            fn()
        except Reject:
            return
        escaped.append(name)

    b = out["bis"]
    check_bis(b["edges"], b["k"], b["n"], b["payload"], b["stdout"])

    def bis_case(mutate, stdout=None):
        p = copy.deepcopy(b["payload"])
        mutate(p)
        return lambda: check_bis(b["edges"], b["k"], b["n"], p, stdout or b["stdout"])

    def unbalance(p):
        p["best"]["witness"][0].pop()

    def put_edge(p):
        side = p["best"]["side"]
        e = [int(x) for x in b["edges"][0]]
        wit = []
        for j, part in enumerate(p["best"]["witness"]):
            rest = [v for v in part if v != e[j]][: side - 1]
            wit.append(sorted(rest + [e[j]]))
        p["best"]["witness"] = wit

    def wrong_side(p):
        p["best"]["side"] += 1

    expect_reject("bis witness unbalanced", bis_case(unbalance))
    expect_reject("bis witness contains an edge", bis_case(put_edge))
    expect_reject("bis side does not match witness", bis_case(wrong_side))
    expect_reject("bis printed side differs", bis_case(lambda p: None, "best side 0 of n=1"))

    c = out["color"]
    check_color(c["edges"], c["k"], c["n"], c["payload"], c["stdout"])

    def color_case(mutate):
        p = copy.deepcopy(c["payload"])
        mutate(p)
        return lambda: check_color(c["edges"], c["k"], c["n"], p, c["stdout"])

    def untotal(p):
        p["colors"][0][0] = None

    def unbalance_class(p):
        row = p["colors"][0]
        other = next(x for x in row if x != row[0])
        row[0] = other

    def mono_edge(p):
        # recolor within part 2 by a swap, which keeps every class balanced
        a, bb = (int(x) for x in c["edges"][0][:2])
        row0, row1 = p["colors"][0], p["colors"][1]
        want = row0[a]
        swap = next(i for i, x in enumerate(row1) if x == want)
        row1[bb], row1[swap] = row1[swap], row1[bb]

    def wrong_palette(p):
        p["report"]["palette"] += 1

    expect_reject("coloring not total", color_case(untotal))
    expect_reject("color class unbalanced", color_case(unbalance_class))
    expect_reject("color class contains an edge", color_case(mono_edge))
    expect_reject("palette does not match report", color_case(wrong_palette))

    x = out["experiment"]
    path = f"{x['prefix']}.summary.csv"
    check_experiment(x["prefix"], x["spec"], x["stdout"])
    with open(path, encoding="utf-8") as fh:
        good = fh.read()

    def experiment_case(field, value):
        # rewrite one field of the first summary row, and its printed verdict
        def run():
            lines = good.split("\n")
            row = next(csv.reader([lines[2]]))
            row[field] = value
            lines[2] = ",".join(row)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines))
            stdout = x["stdout"].replace(": pass", ": fail", 1) if value == "fail" else x["stdout"]
            check_experiment(x["prefix"], x["spec"], stdout)
        return run

    expect_reject("experiment fail row on a passing check", experiment_case(5, "fail"))
    expect_reject("experiment statistic altered", experiment_case(3, "0.123"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(good)
    return escaped


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

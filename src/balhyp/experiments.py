"""Monte Carlo experiment driver.

An experiment is a grid of parameter cells, a trial count, and a master
seed.  Cell ci derives its instance from stream (seed, ci, 0) and trial t
from (seed, ci, t+1), so adding cells or trials never perturbs existing
ones.  Trials land in one CSV (fixed per-mode schema, version header row);
the summary CSV carries empirical means, standard errors, and pass/fail
verdicts for the registered inequalities:

    bis            mean |I cap V_j| vs n*p (3 sigma), j < k
                   mean |I cap V_k| vs sum_v (1-p^(k-1))^deg(v) - 3 SE
    bound          existence frequency vs union bound + 3 SE
    concentration  mean |V_1(1)| vs n/q (3 sigma)
                   freq{c not in L(v)} vs 1-(1-1/q^(k-1))^deg(v) + 3 SE
                   freq{L(v) empty} vs prod_c freq{c not in L(v)} + 3 SE
    color          informational aggregates only (uncolored pool, flags)

Wall-clock timing is never written unless explicitly requested, keeping
outputs byte-identical across reruns.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from io import StringIO
from typing import Optional

import numpy as np

from balhyp.coloring import col_params, col_random_phase, rebalance, residual
from balhyp.indep import ind_params, run_ind
from balhyp.models import exists_balanced_is, sample_hknp, union_bound_bis

__all__ = ["ExperimentSpec", "TrialRecord", "run_experiment", "atomic_write_text"]

MODES = ("bis", "color", "bound", "concentration")

_GRID_KEY_ORDER = ("k", "n", "N", "D", "Delta", "eps", "q", "s", "p")

TRIAL_COLUMNS = {
    "bis": ("cell_index", "trial", "part_sizes", "side"),
    "bound": ("cell_index", "trial", "exists"),
    "concentration": (
        "cell_index",
        "trial",
        "v1c1_size",
        "u_k_size",
        "probe_list_size",
        "probe_banned_mask",
        "probe_empty",
    ),
    "color": (
        "cell_index",
        "trial",
        "u_k_size",
        "n_c",
        "clamped",
        "good_shortage",
        "residual_delta",
        "min_class",
        "max_class",
        "accepted",
    ),
}

SUMMARY_COLUMNS = ("cell_index", "cell", "check", "lhs", "rhs", "result")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class ExperimentSpec:
    """A mode, a list of parameter cells, trials per cell, a master seed."""

    mode: str
    cells: tuple
    trials: int
    seed: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not one of {MODES}")
        if not self.cells:
            raise ValueError("empty cell grid")
        if self.trials < 1:
            raise ValueError(f"trials={self.trials} must be at least 1")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse {"mode", "trials", "seed", "cells": [...]} or, instead of
        cells, {"grid": {param: [values]}} expanded as a product in the
        fixed key order k, n, N, D, Delta, eps, q, s, p."""
        raw = json.loads(text)
        cells = raw.get("cells")
        if cells is None:
            grid = raw["grid"]
            keys = [key for key in _GRID_KEY_ORDER if key in grid]
            extra = set(grid) - set(keys)
            if extra:
                raise ValueError(f"unknown grid keys {sorted(extra)}")
            cells = [
                dict(zip(keys, combo))
                for combo in itertools.product(*(grid[key] for key in keys))
            ]
        return cls(
            mode=raw["mode"],
            cells=tuple(dict(c) for c in cells),
            trials=int(raw["trials"]),
            seed=int(raw["seed"]),
        )


@dataclass(frozen=True)
class TrialRecord:
    cell_index: int
    cell: dict
    trial: int
    stream: tuple
    fields: dict
    wall_time: float


def _cell_echo(cell: dict) -> str:
    return ";".join(f"{key}={cell[key]!r}".replace("'", "") for key in sorted(cell))


def _freq_se(f: float, T: int) -> float:
    return math.sqrt(f * (1 - f) / T) if T > 0 else 0.0


def _mean_se(values) -> tuple:
    T = len(values)
    mean = sum(values) / T
    if T < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in values) / (T - 1)
    return mean, math.sqrt(var / T)


def _run_cell_bis(cell, ci, spec):
    k, n, D, eps = cell["k"], cell["n"], cell["D"], cell["eps"]
    p_edge = min(D / n ** (k - 1), 1.0)
    h = sample_hknp(k, n, p_edge, (spec.seed, ci, 0))
    params = ind_params(k, eps, D, n)

    def one(t):
        out = run_ind(h, params.p, (spec.seed, ci, t + 1))
        return {
            "part_sizes": ";".join(str(s) for s in out.part_sizes),
            "side": out.side,
        }

    rows = [one(t) for t in range(spec.trials)]
    T = spec.trials
    summaries = []
    sizes = [[int(s) for s in r["part_sizes"].split(";")] for r in rows]
    p = params.p
    for j in range(k - 1):
        mean = sum(row[j] for row in sizes) / T
        sigma = math.sqrt(n * p * (1 - p) / T)
        summaries.append(
            ("part%d_size_binomial" % (j + 1), abs(mean - n * p), 3 * sigma,
             abs(mean - n * p) <= 3 * sigma)
        )
    vk = [row[k - 1] for row in sizes]
    mean_k, se_k = _mean_se(vk)
    harris = sum((1 - p ** (k - 1)) ** d for d in h.degrees[k - 1].tolist())
    summaries.append(
        ("survivor_mean_lower", mean_k, harris - 3 * se_k, mean_k >= harris - 3 * se_k)
    )
    return rows, summaries


def _run_cell_bound(cell, ci, spec):
    k, N, s, p = cell["k"], cell["N"], cell["s"], cell["p"]

    def one(t):
        h = sample_hknp(k, N, p, (spec.seed, ci, t + 1))
        return {"exists": int(exists_balanced_is(h, s))}

    rows = [one(t) for t in range(spec.trials)]
    T = spec.trials
    freq = sum(r["exists"] for r in rows) / T
    bound = union_bound_bis(k, N, s, p)
    rhs = bound + 3 * _freq_se(freq, T)
    return rows, [("union_bound", freq, rhs, freq <= rhs)]


def _run_cell_concentration(cell, ci, spec):
    k, n, q, D = cell["k"], cell["n"], cell["q"], cell["D"]
    p_edge = min(D / n ** (k - 1), 1.0)
    h = sample_hknp(k, n, p_edge, (spec.seed, ci, 0))
    deg_k = h.degrees[k - 1].tolist()
    probe = max(range(n), key=lambda i: (deg_k[i], -i))

    def one(t):
        st = col_random_phase(h, q, (spec.seed, ci, t + 1))
        lst = st.lists_k[probe]
        mask = 0
        for c in range(1, q + 1):
            if c not in lst:
                mask |= 1 << (c - 1)
        return {
            "v1c1_size": int(np.count_nonzero(st.phi.color_arrays[0] == 1)),
            "u_k_size": len(st.u_k),
            "probe_list_size": len(lst),
            "probe_banned_mask": mask,
            "probe_empty": int(len(lst) == 0),
        }

    rows = [one(t) for t in range(spec.trials)]
    T = spec.trials
    summaries = []
    mean = sum(r["v1c1_size"] for r in rows) / T
    sigma = math.sqrt(n * (1 / q) * (1 - 1 / q) / T)
    summaries.append(
        ("class_size_binomial", abs(mean - n / q), 3 * sigma,
         abs(mean - n / q) <= 3 * sigma)
    )
    ban_freq = [
        sum((r["probe_banned_mask"] >> (c - 1)) & 1 for r in rows) / T
        for c in range(1, q + 1)
    ]
    ban_bound = 1 - (1 - 1 / q ** (k - 1)) ** deg_k[probe]
    ban_rhs = ban_bound + 3 * _freq_se(ban_freq[0], T)
    summaries.append(("ban_freq_upper", ban_freq[0], ban_rhs, ban_freq[0] <= ban_rhs))
    empty_freq = sum(r["probe_empty"] for r in rows) / T
    prod = math.prod(ban_freq)
    empty_rhs = prod + 3 * _freq_se(empty_freq, T)
    summaries.append(("empty_list_product", empty_freq, empty_rhs, empty_freq <= empty_rhs))
    return rows, summaries


def _run_cell_color(cell, ci, spec):
    k, n, Delta, eps = cell["k"], cell["n"], cell["Delta"], cell["eps"]
    p_edge = min(Delta / n ** (k - 1), 1.0)
    h = sample_hknp(k, n, p_edge, (spec.seed, ci, 0))
    params = col_params(k, eps, max(h.max_degree, 3), n)

    def one(t):
        st = col_random_phase(h, params.q, (spec.seed, ci, t + 1))
        classes = st.classes()
        sizes = [len(v) for v in classes.values()]
        st2 = rebalance(st, params)
        h_phi, _ = residual(h, st2)
        n_res = h_phi.part_sizes[0]
        accepted = (
            not st2.clamped
            and h_phi.max_degree <= params.delta_tilde_eff
            and h_phi.max_degree <= n_res / 2
        )
        return {
            "u_k_size": len(st.u_k),
            "n_c": st2.n_c,
            "clamped": int(st2.clamped),
            "good_shortage": int(st2.good_shortage),
            "residual_delta": h_phi.max_degree,
            "min_class": min(sizes),
            "max_class": max(sizes),
            "accepted": int(accepted),
        }

    rows = [one(t) for t in range(spec.trials)]
    T = spec.trials
    mean_uk, se_uk = _mean_se([r["u_k_size"] for r in rows])
    clamp_rate = sum(r["clamped"] for r in rows) / T
    accept_rate = sum(r["accepted"] for r in rows) / T
    return rows, [
        ("mean_u_k_vs_delta_n", mean_uk, params.delta * n, None),
        ("clamp_rate", clamp_rate, 0.0, None),
        ("accept_rate", accept_rate, 0.0, None),
    ]


_CELL_RUNNERS: dict = {
    "bis": _run_cell_bis,
    "bound": _run_cell_bound,
    "concentration": _run_cell_concentration,
    "color": _run_cell_color,
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(
    spec: ExperimentSpec,
    out_prefix: Optional[str] = None,
    fmt: str = "csv",
    timing: bool = False,
):
    """Execute every (cell, trial), optionally writing <prefix>.trials.csv
    and <prefix>.summary.csv (or .json).  Returns (records, summary_rows);
    summary rows are (cell_index, cell_echo, check, lhs, rhs, result) with
    result pass/fail for registered inequalities and info otherwise."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format {fmt!r} not csv or json")
    runner = _CELL_RUNNERS[spec.mode]
    records: list = []
    summary_rows: list = []
    for ci, cell in enumerate(spec.cells):
        start = time.perf_counter()
        rows, summaries = runner(cell, ci, spec)
        elapsed = time.perf_counter() - start
        for t, fields in enumerate(rows):
            records.append(
                TrialRecord(
                    cell_index=ci,
                    cell=dict(cell),
                    trial=t,
                    stream=(spec.seed, ci, t + 1),
                    fields=fields,
                    wall_time=elapsed / len(rows),
                )
            )
        echo = _cell_echo(cell)
        for name, lhs, rhs, ok in summaries:
            verdict = "info" if ok is None else ("pass" if ok else "fail")
            summary_rows.append((ci, echo, name, lhs, rhs, verdict))
    if out_prefix is not None:
        if fmt == "csv":
            atomic_write_text(
                f"{out_prefix}.trials.csv", _trials_csv(spec, records, timing)
            )
            atomic_write_text(
                f"{out_prefix}.summary.csv", _summary_csv(spec, summary_rows)
            )
        else:
            atomic_write_text(
                f"{out_prefix}.trials.json", _trials_json(spec, records, timing)
            )
            atomic_write_text(
                f"{out_prefix}.summary.json", _summary_json(spec, summary_rows)
            )
    return records, summary_rows


def _trials_csv(spec, records, timing: bool) -> str:
    cols = TRIAL_COLUMNS[spec.mode] + (("wall_time",) if timing else ())
    buf = StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["schema", "balhyp-trials-v1", f"mode={spec.mode}", f"seed={spec.seed}"])
    w.writerow(cols)
    for r in records:
        row = [r.cell_index, r.trial] + [
            _fmt(r.fields[c]) for c in cols[2:] if c != "wall_time"
        ]
        if timing:
            row.append(repr(r.wall_time))
        w.writerow(row)
    return buf.getvalue()


def _summary_csv(spec, summary_rows) -> str:
    buf = StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["schema", "balhyp-summary-v1", f"mode={spec.mode}", f"seed={spec.seed}"])
    w.writerow(SUMMARY_COLUMNS)
    for ci, echo, name, lhs, rhs, verdict in summary_rows:
        w.writerow([ci, echo, name, _fmt(lhs), _fmt(rhs), verdict])
    return buf.getvalue()


def _trials_json(spec, records, timing: bool) -> str:
    out = []
    for r in records:
        item = {"cell_index": r.cell_index, "trial": r.trial, **r.fields}
        if timing:
            item["wall_time"] = r.wall_time
        out.append(item)
    head = {"schema": "balhyp-trials-v1", "mode": spec.mode, "seed": spec.seed,
            "rows": out}
    return json.dumps(head, sort_keys=True, indent=2) + "\n"


def _summary_json(spec, summary_rows) -> str:
    rows = [
        {"cell_index": ci, "cell": echo, "check": name, "lhs": lhs, "rhs": rhs,
         "result": verdict}
        for ci, echo, name, lhs, rhs, verdict in summary_rows
    ]
    head = {"schema": "balhyp-summary-v1", "mode": spec.mode, "seed": spec.seed,
            "rows": rows}
    return json.dumps(head, sort_keys=True, indent=2) + "\n"

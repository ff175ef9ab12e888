"""Tests for the Monte Carlo experiment harness."""

import csv
import json
import math
from io import StringIO

import pytest

from balhyp.experiments import (
    ExperimentSpec,
    run_experiment,
)


def spec_of(mode, cells, trials, seed):
    return ExperimentSpec(mode=mode, cells=tuple(cells), trials=trials, seed=seed)


def test_spec_from_json_cells():
    text = json.dumps(
        {
            "mode": "bound",
            "trials": 10,
            "seed": 3,
            "cells": [{"k": 2, "N": 6, "s": 2, "p": 0.5}],
        }
    )
    spec = ExperimentSpec.from_json(text)
    assert spec.mode == "bound"
    assert spec.trials == 10
    assert spec.cells == ({"k": 2, "N": 6, "s": 2, "p": 0.5},)


def test_spec_from_json_grid():
    text = json.dumps(
        {
            "mode": "bound",
            "trials": 5,
            "seed": 0,
            "grid": {"N": [4, 6], "k": [2], "s": [1, 2], "p": [0.5]},
        }
    )
    spec = ExperimentSpec.from_json(text)
    # product in the fixed key order k, N, s, p
    assert spec.cells == (
        {"k": 2, "N": 4, "s": 1, "p": 0.5},
        {"k": 2, "N": 4, "s": 2, "p": 0.5},
        {"k": 2, "N": 6, "s": 1, "p": 0.5},
        {"k": 2, "N": 6, "s": 2, "p": 0.5},
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_of("nope", [{"k": 2}], 1, 0)
    with pytest.raises(ValueError):
        spec_of("bound", [], 1, 0)
    with pytest.raises(ValueError):
        spec_of("bound", [{"k": 2}], 0, 0)
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(
            json.dumps({"mode": "bound", "trials": 1, "seed": 0,
                        "grid": {"banana": [1]}})
        )


def test_bound_mode():
    spec = spec_of("bound", [{"k": 2, "N": 6, "s": 2, "p": 0.5}], 300, 11)
    records, summary = run_experiment(spec)
    assert len(records) == 300
    assert all(r.fields["exists"] in (0, 1) for r in records)
    (ci, echo, name, lhs, rhs, verdict) = summary[0]
    assert name == "union_bound"
    assert verdict == "pass"  # bound 14.06 is vacuous, frequency <= 1
    assert echo == "N=6;k=2;p=0.5;s=2"


def test_bis_mode_and_independent_reducer():
    spec = spec_of("bis", [{"k": 2, "n": 32, "D": 4.0, "eps": 0.2}], 200, 5)
    records, summary = run_experiment(spec)
    assert len(records) == 200
    names = [row[2] for row in summary]
    assert names == ["part1_size_binomial", "survivor_mean_lower"]
    assert all(row[5] == "pass" for row in summary)
    # one-pass reducer over the recorded rows, same arithmetic
    sizes = [
        [int(s) for s in r.fields["part_sizes"].split(";")] for r in records
    ]
    T = 200
    from balhyp.indep import ind_params

    p = ind_params(2, 0.2, 4.0, 32).p
    mean1 = sum(row[0] for row in sizes) / T
    assert summary[0][3] == abs(mean1 - 32 * p)
    vk = [row[1] for row in sizes]
    mean_k = sum(vk) / T
    assert summary[1][3] == mean_k


def test_concentration_mode_and_reducer():
    cell = {"k": 2, "n": 24, "q": 3, "D": 4.0}
    spec = spec_of("concentration", [cell], 400, 9)
    records, summary = run_experiment(spec)
    names = [row[2] for row in summary]
    assert names == ["class_size_binomial", "ban_freq_upper", "empty_list_product"]
    assert all(row[5] == "pass" for row in summary)
    T = 400
    ban1 = sum((r.fields["probe_banned_mask"] >> 0) & 1 for r in records) / T
    assert summary[1][3] == ban1
    empty = sum(r.fields["probe_empty"] for r in records) / T
    assert summary[2][3] == empty
    for r in records:
        assert r.fields["probe_empty"] == int(r.fields["probe_list_size"] == 0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_color_mode_info_rows():
    cell = {"k": 2, "n": 48, "Delta": 4.0, "eps": 0.2}
    spec = spec_of("color", [cell], 40, 2)
    records, summary = run_experiment(spec)
    assert [row[2] for row in summary] == [
        "mean_u_k_vs_delta_n",
        "clamp_rate",
        "accept_rate",
    ]
    assert all(row[5] == "info" for row in summary)
    for r in records:
        f = r.fields
        assert f["min_class"] <= f["max_class"]
        assert f["accepted"] in (0, 1)
        assert f["clamped"] in (0, 1)
        assert f["n_c"] >= 0
        assert f["residual_delta"] >= 0


def test_csv_single_trial_shape(tmp_path):
    spec = spec_of("bound", [{"k": 2, "N": 4, "s": 1, "p": 0.3}], 1, 0)
    run_experiment(spec, out_prefix=str(tmp_path / "t"))
    lines = (tmp_path / "t.trials.csv").read_text().splitlines()
    assert lines[0].startswith("schema,balhyp-trials-v1,mode=bound")
    assert lines[1] == "cell_index,trial,exists"
    assert len(lines) == 3  # schema + header + one data row


def test_csv_determinism(tmp_path):
    spec = spec_of("bis", [{"k": 2, "n": 16, "D": 3.0, "eps": 0.2}], 25, 7)
    run_experiment(spec, out_prefix=str(tmp_path / "a"))
    run_experiment(spec, out_prefix=str(tmp_path / "b"))
    for suffix in (".trials.csv", ".summary.csv"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        b = (tmp_path / ("b" + suffix)).read_bytes()
        assert a == b


def test_summary_matches_csv_rescan(tmp_path):
    # Rebuild the ban_freq_upper summary value from the trials CSV alone.
    cell = {"k": 2, "n": 20, "q": 3, "D": 3.0}
    spec = spec_of("concentration", [cell], 150, 4)
    run_experiment(spec, out_prefix=str(tmp_path / "c"))
    text = (tmp_path / "c.trials.csv").read_text()
    rows = list(csv.reader(StringIO(text)))
    header = rows[1]
    mask_at = header.index("probe_banned_mask")
    data = rows[2:]
    T = len(data)
    ban1 = sum(int(row[mask_at]) & 1 for row in data) / T
    summary_rows = list(
        csv.reader(StringIO((tmp_path / "c.summary.csv").read_text()))
    )
    ban = [r for r in summary_rows if len(r) > 2 and r[2] == "ban_freq_upper"]
    assert len(ban) == 1
    assert float(ban[0][3]) == ban1


def test_json_format(tmp_path):
    spec = spec_of("bound", [{"k": 2, "N": 4, "s": 1, "p": 0.3}], 5, 1)
    run_experiment(spec, out_prefix=str(tmp_path / "j"), fmt="json")
    trials = json.loads((tmp_path / "j.trials.json").read_text())
    assert trials["schema"] == "balhyp-trials-v1"
    assert len(trials["rows"]) == 5
    summary = json.loads((tmp_path / "j.summary.json").read_text())
    assert summary["rows"][0]["check"] == "union_bound"
    with pytest.raises(ValueError):
        run_experiment(spec, fmt="xml")


def test_timing_column_opt_in(tmp_path):
    spec = spec_of("bound", [{"k": 2, "N": 4, "s": 1, "p": 0.3}], 2, 1)
    run_experiment(spec, out_prefix=str(tmp_path / "p"))
    header = (tmp_path / "p.trials.csv").read_text().splitlines()[1]
    assert "wall_time" not in header
    run_experiment(spec, out_prefix=str(tmp_path / "q"), timing=True)
    header = (tmp_path / "q.trials.csv").read_text().splitlines()[1]
    assert header.endswith(",wall_time")


def test_stream_derivation_stable_across_added_cells():
    # Appending a cell never perturbs the trials of existing cells.
    c0 = {"k": 2, "N": 5, "s": 2, "p": 0.4}
    c1 = {"k": 2, "N": 6, "s": 2, "p": 0.3}
    one, _ = run_experiment(spec_of("bound", [c0], 30, 12))
    two, _ = run_experiment(spec_of("bound", [c0, c1], 30, 12))
    assert [r.fields for r in one] == [r.fields for r in two[:30]]

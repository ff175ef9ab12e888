"""End-to-end tests of the command line, run in process."""

import json
import math

import numpy as np
import pytest

import balhyp.cli
import balhyp.coloring
import balhyp.matching
from balhyp.cli import fmt_sci6, main
from balhyp.core import KPartiteHypergraph, PartialColoring, emit_khg
from balhyp.models import sample_hknp


def run(argv):
    return main(argv)


def test_fmt_sci6():
    assert fmt_sci6(14.0625) == "1.40625e1"
    assert fmt_sci6(1.0) == "1.00000e0"
    assert fmt_sci6(0.0001) == "1.00000e-4"
    assert fmt_sci6(0.043749) == "4.37490e-2"
    assert fmt_sci6(math.inf) == "inf"


def test_gen_verify_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "h.khg")
    assert run(["gen", "--k", "2", "--n", "8", "--p", "0.25",
                "--seed", "7", "--out", out]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}: k=2 n=8")
    assert run(["verify", "--in", out]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("ok: k=2 parts=8,8")
    assert "balanced=yes" in captured


def test_gen_writes_canonical_bytes(tmp_path):
    out = tmp_path / "h.khg"
    run(["gen", "--k", "2", "--n", "6", "--p", "0.3", "--seed", "3",
         "--out", str(out)])
    assert out.read_text() == emit_khg(sample_hknp(2, 6, 0.3, 3))


def test_verify_never_builds_degrees(tmp_path, capsys, monkeypatch):
    # verify reads the max degree off the edge array, so part sizes of
    # 10^12 cost nothing per vertex
    def boom(self):
        raise AssertionError("verify built the per-vertex degrees")

    monkeypatch.setattr(KPartiteHypergraph, "degrees", property(boom))
    small = tmp_path / "h.khg"
    small.write_text(emit_khg(sample_hknp(2, 8, 0.25, 7)))
    assert run(["verify", "--in", str(small)]) == 0
    assert capsys.readouterr().out.startswith("ok: k=2 parts=8,8")
    huge = tmp_path / "huge.khg"
    huge.write_text("khg 1\n2 1000000000000 1000000000000\n1\n999999999999 0\n")
    assert run(["verify", "--in", str(huge)]) == 0
    assert capsys.readouterr().out == (
        "ok: k=2 parts=1000000000000,1000000000000 m=1 delta=1 balanced=yes\n"
    )


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.khg"
    bad.write_text("khg 1\n2 2 2\n1\n0 x\n")
    assert run(["verify", "--in", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_verify_range_violation(tmp_path, capsys):
    bad = tmp_path / "bad.khg"
    bad.write_text("khg 1\n2 2 2\n1\n0 7\n")
    assert run(["verify", "--in", str(bad)]) == 2
    assert "violation" in capsys.readouterr().err


def test_verify_header_error(tmp_path, capsys):
    bad = tmp_path / "bad.khg"
    bad.write_text("khg 2\n2 2 2\n0\n")
    assert run(["verify", "--in", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_invalid_input_lists_violations(tmp_path, capsys):
    dup = tmp_path / "dup.khg"
    dup.write_text("khg 1\n2 2 2\n2\n0 0\n0 0\n")
    assert run(["bis", "--in", str(dup), "--seed", "1", "--json", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert "duplicate edge (0, 0)" in err
    assert "line" not in err


def test_index_beyond_intp_exit_2(tmp_path, capsys):
    big = tmp_path / "big.khg"
    big.write_text("khg 1\n2 2 2\n1\n0 99999999999999999999\n")
    assert run(["verify", "--in", str(big)]) == 2
    assert "index 99999999999999999999 out of range in part 2" in capsys.readouterr().err
    assert run(["color", "--in", str(big), "--seed", "1", "--json", str(tmp_path / "o.json")]) == 2
    assert "out of range" in capsys.readouterr().err


def test_bound_prints_example(capsys):
    assert run(["bound", "--k", "2", "--N", "6", "--s", "2", "--p", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "1.40625e1"


def test_bound_validation_error(capsys):
    assert run(["bound", "--k", "2", "--N", "6", "--s", "9", "--p", "0.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_exact_alpha_complete(tmp_path, capsys):
    path = str(tmp_path / "c.khg")
    run(["gen", "--k", "2", "--n", "3", "--p", "1.0", "--seed", "0",
         "--out", path])
    capsys.readouterr()
    assert run(["exact", "--in", path, "--what", "alpha"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_exact_pm_json(tmp_path, capsys):
    path = str(tmp_path / "e.khg")
    run(["gen", "--k", "2", "--n", "3", "--p", "0.0", "--seed", "0",
         "--out", path])
    out = str(tmp_path / "pm.json")
    assert run(["exact", "--in", path, "--what", "pm", "--json", out]) == 0
    payload = json.loads((tmp_path / "pm.json").read_text())
    assert len(payload["matching"]) == 3
    printed = capsys.readouterr().out.strip().splitlines()[-3:]
    assert all(len(line.split()) == 2 for line in printed)


def test_exact_pm_none(tmp_path, capsys):
    path = str(tmp_path / "full.khg")
    run(["gen", "--k", "2", "--n", "2", "--p", "1.0", "--seed", "0",
         "--out", path])
    capsys.readouterr()
    assert run(["exact", "--in", path, "--what", "pm"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_exact_budget_exit_3(tmp_path, capsys):
    path = str(tmp_path / "b.khg")
    run(["gen", "--k", "2", "--n", "9", "--p", "0.0", "--seed", "0",
         "--out", path])
    assert run(["exact", "--in", path, "--what", "pm", "--budget", "2"]) == 3
    assert "budget" in capsys.readouterr().err


def test_bis_override_p(tmp_path, capsys):
    path = str(tmp_path / "h.khg")
    run(["gen", "--k", "2", "--n", "5", "--p", "0.2", "--seed", "4",
         "--out", path])
    out = str(tmp_path / "bis.json")
    assert run(["bis", "--in", path, "--seed", "1", "--trials", "3",
                "--p", "1.0", "--json", out]) == 0
    payload = json.loads((tmp_path / "bis.json").read_text())
    assert payload["params"] == {"p": 1.0, "override": True}
    assert len(payload["trial_sides"]) == 3
    assert payload["best"]["side"] == max(payload["trial_sides"])
    assert len(payload["best"]["witness"]) == 2


def test_bis_ledger_route(tmp_path, capsys):
    path = str(tmp_path / "h.khg")
    run(["gen", "--k", "2", "--n", "32", "--p", "0.25", "--seed", "4",
         "--out", path])
    out = str(tmp_path / "bis.json")
    assert run(["bis", "--in", path, "--seed", "2", "--trials", "8",
                "--eps", "0.2", "--D", "8", "--json", out]) == 0
    payload = json.loads((tmp_path / "bis.json").read_text())
    assert payload["params"]["D"] == 8
    assert 0 < payload["params"]["p"] < 1
    assert "delta" in payload["params"] and "target" in payload["params"]
    assert "best side" in capsys.readouterr().out


def test_bis_rejects_degenerate_regime(tmp_path, capsys):
    path = str(tmp_path / "empty.khg")
    run(["gen", "--k", "2", "--n", "4", "--p", "0.0", "--seed", "0",
         "--out", path])
    out = str(tmp_path / "x.json")
    # default D = m/n = 0, below the ledger's reach
    assert run(["bis", "--in", path, "--seed", "0", "--json", out]) == 2
    assert "regime" in capsys.readouterr().err


def test_color_cli(tmp_path, capsys):
    path = str(tmp_path / "h.khg")
    run(["gen", "--k", "2", "--n", "12", "--p", "0.15", "--seed", "6",
         "--out", path])
    out = str(tmp_path / "col.json")
    assert run(["color", "--in", path, "--seed", "3", "--json", out]) == 0
    payload = json.loads((tmp_path / "col.json").read_text())
    assert payload["report"]["validator"] == {
        "total": True, "proper": True, "balanced": True,
    }
    assert len(payload["colors"]) == 2
    assert "palette" in capsys.readouterr().out


def test_color_cli_rejects_negative_retries(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "h.khg")
    run(["gen", "--k", "2", "--n", "12", "--p", "0.15", "--seed", "6",
         "--out", path])
    out = tmp_path / "col.json"
    # zero retries is valid and goes straight to the fallback
    assert run(["color", "--in", path, "--seed", "3", "--retries", "0",
                "--json", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert (report["path"], report["retries_used"]) == ("fallback", 0)
    out.unlink()
    capsys.readouterr()
    draws = []
    for module in (balhyp.coloring, balhyp.matching):
        monkeypatch.setattr(module, "rng_for", lambda *seed: draws.append(seed))
    assert run(["color", "--in", path, "--seed", "3", "--retries", "-1",
                "--json", str(out)]) == 2
    assert capsys.readouterr().err == "error: max_retries=-1 must be non-negative\n"
    assert draws == []
    assert not out.exists()


def test_fallback_cli(tmp_path, capsys):
    path = str(tmp_path / "h.khg")
    run(["gen", "--k", "2", "--n", "10", "--p", "0.1", "--seed", "9",
         "--out", path])
    out = str(tmp_path / "fb.json")
    assert run(["fallback-color", "--in", path, "--seed", "0",
                "--out", out]) == 0
    payload = json.loads((tmp_path / "fb.json").read_text())
    assert payload["valid"] is True
    assert payload["palette"] >= 1


def test_fallback_cli_raises_on_invalid_verdict(tmp_path, monkeypatch):
    path = str(tmp_path / "h.khg")
    run(["gen", "--k", "2", "--n", "4", "--p", "0.1", "--seed", "9", "--out", path])
    # class 1 has three part-1 vertices but one part-2 vertex: unbalanced
    unbalanced = PartialColoring(2, [np.array([1, 1, 1, 2]), np.array([1, 2, 2, 2])])
    monkeypatch.setattr(balhyp.cli, "fallback_coloring", lambda h, **kw: unbalanced)
    out = tmp_path / "fb.json"
    with pytest.raises(RuntimeError, match="not a proper balanced coloring"):
        run(["fallback-color", "--in", path, "--seed", "0", "--out", str(out)])
    assert not out.exists()


def test_coloring_paths_never_build_edge_tuples(tmp_path, monkeypatch):
    # small versions of the benchmark's color shapes; the matching, its
    # check and the colorer all read the edge array
    def refuse(h):
        raise AssertionError("built the edge tuples")

    monkeypatch.setattr(KPartiteHypergraph, "edges", property(refuse))
    for i, (k, n, p) in enumerate([(2, 64, 8 / 64), (3, 64, 8 / 64**2), (2, 32, 0.4)]):
        path = str(tmp_path / f"h{i}.khg")
        assert run(["gen", "--k", str(k), "--n", str(n), "--p", repr(p),
                    "--seed", str(i), "--out", path]) == 0
        assert run(["color", "--in", path, "--seed", "1",
                    "--json", str(tmp_path / f"c{i}.json")]) == 0
        assert run(["fallback-color", "--in", path, "--seed", "1",
                    "--out", str(tmp_path / f"f{i}.json")]) == 0


def test_missing_input_exit_2(tmp_path, capsys):
    assert run(["verify", "--in", str(tmp_path / "nope.khg")]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_validation_exit_2(tmp_path, capsys):
    assert run(["gen", "--k", "2", "--n", "4", "--p", "1.5", "--seed", "0",
                "--out", str(tmp_path / "x.khg")]) == 2
    assert "error" in capsys.readouterr().err


def test_experiment_cli(tmp_path, capsys):
    spec = {
        "mode": "bound",
        "trials": 40,
        "seed": 5,
        "cells": [{"k": 2, "N": 6, "s": 2, "p": 0.5}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    prefix = str(tmp_path / "run1")
    assert run(["experiment", "--spec", str(spec_path),
                "--out-prefix", prefix]) == 0
    assert "cell 0 union_bound: pass" in capsys.readouterr().out
    prefix2 = str(tmp_path / "run2")
    run(["experiment", "--spec", str(spec_path), "--out-prefix", prefix2])
    for suffix in (".trials.csv", ".summary.csv"):
        assert (tmp_path / ("run1" + suffix)).read_bytes() == (
            tmp_path / ("run2" + suffix)
        ).read_bytes()


def test_experiment_json_format(tmp_path, capsys):
    spec = {
        "mode": "concentration",
        "trials": 150,
        "seed": 8,
        "cells": [{"k": 2, "n": 12, "q": 4, "D": 3.0}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    prefix = str(tmp_path / "j")
    assert run(["experiment", "--spec", str(spec_path), "--out-prefix",
                prefix, "--format", "json"]) == 0
    payload = json.loads((tmp_path / "j.summary.json").read_text())
    assert [row["check"] for row in payload["rows"]] == [
        "class_size_binomial", "ban_freq_upper", "empty_list_product",
    ]


def test_experiment_bad_spec_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"mode": "bogus", "trials": 1, "seed": 0,
                                     "cells": [{}]}))
    assert run(["experiment", "--spec", str(spec_path),
                "--out-prefix", str(tmp_path / "x")]) == 2
    assert "error" in capsys.readouterr().err

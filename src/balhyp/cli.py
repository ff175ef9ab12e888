"""Command-line front end.

Exit codes: 0 success, 2 validation problem (bad flags, malformed or
invalid input, rejected parameter regime), 3 enumeration or search budget
exhausted.  All file outputs are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

from balhyp.coloring import full_coloring
from balhyp.core import (
    KPartiteHypergraph,
    emit_khg,
    is_proper_balanced_coloring,
    load_khg,
    validate,
)
from balhyp.errors import BudgetExceededError, KhgParseError, RegimeError
from balhyp.experiments import ExperimentSpec, atomic_write_text, run_experiment
from balhyp.indep import best_of_trials, exact_alpha_b, ind_params
from balhyp.matching import exact_pm_complement, fallback_coloring
from balhyp.models import sample_hknp, union_bound_bis

__all__ = ["main", "fmt_sci6"]


def fmt_sci6(x: float) -> str:
    """Scientific notation, 6 significant digits, bare exponent: 1.40625e1."""
    if not math.isfinite(x):
        return str(x)
    mant, exp = f"{x:.5e}".split("e")
    return f"{mant}e{int(exp)}"


def _load(path: str) -> KPartiteHypergraph:
    return load_khg(path).require_valid()


def _write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_gen(args) -> int:
    h = sample_hknp(args.k, args.n, args.p, args.seed)
    atomic_write_text(args.out, emit_khg(h))
    print(f"wrote {args.out}: k={h.k} n={args.n} m={len(h.edge_array)}")
    return 0


def cmd_verify(args) -> int:
    h = load_khg(args.infile)
    diag = validate(h)
    if not diag.ok:
        for v in diag.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 2
    bal = "yes" if h.n_balanced else "no"
    sizes = ",".join(str(s) for s in h.part_sizes)
    print(f"ok: k={h.k} parts={sizes} m={len(h.edge_array)} delta={h.max_degree} balanced={bal}")
    return 0


def cmd_bound(args) -> int:
    print(fmt_sci6(union_bound_bis(args.k, args.N, args.s, args.p)))
    return 0


def cmd_bis(args) -> int:
    h = _load(args.infile)
    n = h.part_sizes[0]
    if args.p is not None:
        best = best_of_trials(h, None, T=args.trials, seed=args.seed, p=args.p)
        ledger = {"p": args.p, "override": True}
    else:
        D = args.D if args.D is not None else len(h.edge_array) / n
        params = ind_params(h.k, args.eps, D, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best = best_of_trials(h, params, T=args.trials, seed=args.seed)
        ledger = {
            "eps": args.eps,
            "D": D,
            "p": params.p,
            "delta": params.delta,
            "target": params.target,
        }
    payload = {
        "k": h.k,
        "n": n,
        "params": ledger,
        "trials": args.trials,
        "seed": args.seed,
        "trial_sides": list(best.trial_sides),
        "best": {
            "side": best.side,
            "witness": [list(part) for part in best.balanced.parts],
            "raw_sizes": list(best.part_sizes),
        },
    }
    _write_json(args.json, payload)
    print(f"best side {best.side} of n={n} over {args.trials} trials")
    return 0


def cmd_color(args) -> int:
    h = _load(args.infile)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi, report = full_coloring(
            h, args.eps, seed=args.seed, max_retries=args.retries
        )
    payload = {
        "colors": [list(part) for part in phi.colors],
        "report": report,
    }
    _write_json(args.json, payload)
    print(f"palette {report['palette']} path {report['path']}")
    return 0


def cmd_fallback(args) -> int:
    h = _load(args.infile)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = fallback_coloring(h, seed=args.seed, budget=args.budget)
    verdict = is_proper_balanced_coloring(h, phi)
    if not verdict:
        raise RuntimeError("fallback coloring is not a proper balanced coloring")
    payload = {
        "colors": [list(part) for part in phi.colors],
        "palette": len(phi.colors_used()),
        "valid": verdict,
    }
    _write_json(args.out, payload)
    print(f"palette {payload['palette']} valid {verdict}")
    return 0


def cmd_exact(args) -> int:
    h = _load(args.infile)
    if args.what == "alpha":
        s, witness = exact_alpha_b(h, budget=args.budget)
        print(s)
        if args.json:
            _write_json(
                args.json,
                {"alpha_b": s, "witness": [list(p) for p in witness.parts]},
            )
    else:
        m = exact_pm_complement(h, budget=args.budget)
        if m is None:
            print("none")
        else:
            for t in m.edges:
                print(" ".join(str(i) for i in t))
        if args.json:
            _write_json(
                args.json,
                {"matching": None if m is None else [list(t) for t in m.edges]},
            )
    return 0


def cmd_experiment(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = ExperimentSpec.from_json(fh.read())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, summary = run_experiment(
            spec, out_prefix=args.out_prefix, fmt=args.format, timing=args.timing
        )
    failed = [row for row in summary if row[5] == "fail"]
    for ci, echo, name, lhs, rhs, verdict in summary:
        print(f"cell {ci} {name}: {verdict}")
    return 0 if not failed else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="balhyp",
        description="balanced independent sets and balanced colorings in "
        "k-uniform k-partite hypergraphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample H(k, n, p) to a khg file")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="validate a khg file")
    v.add_argument("--in", dest="infile", required=True)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bound", help="union bound on a side-s balanced IS")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--s", type=int, required=True)
    b.add_argument("--p", type=float, required=True)
    b.set_defaults(func=cmd_bound)

    i = sub.add_parser("bis", help="randomized balanced independent set")
    i.add_argument("--in", dest="infile", required=True)
    i.add_argument("--eps", type=float, default=0.2)
    i.add_argument("--trials", type=int, default=64)
    i.add_argument("--seed", type=int, required=True)
    i.add_argument("--json", required=True)
    i.add_argument("--D", type=float, default=None,
                   help="ledger average degree (default: edge count / n)")
    i.add_argument("--p", type=float, default=None,
                   help="bypass the ledger and run at this inclusion probability")
    i.set_defaults(func=cmd_bis)

    c = sub.add_parser("color", help="two-stage balanced coloring")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--eps", type=float, default=0.2)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--retries", type=int, default=16)
    c.add_argument("--json", required=True)
    c.set_defaults(func=cmd_color)

    f = sub.add_parser("fallback-color", help="matching-based balanced coloring")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--seed", type=int, required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--budget", type=int, default=10**4)
    f.set_defaults(func=cmd_fallback)

    e = sub.add_parser("exact", help="exhaustive small-instance oracles")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--what", choices=("alpha", "pm"), required=True)
    e.add_argument("--budget", type=int, default=10**6)
    e.add_argument("--json", default=None)
    e.set_defaults(func=cmd_exact)

    x = sub.add_parser("experiment", help="run a Monte Carlo experiment spec")
    x.add_argument("--spec", required=True)
    x.add_argument("--out-prefix", dest="out_prefix", required=True)
    x.add_argument("--format", choices=("csv", "json"), default="csv")
    x.add_argument("--timing", action="store_true",
                   help="append wall-time columns (breaks byte-reproducibility)")
    x.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KhgParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"error: parameter regime rejected: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: budget exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

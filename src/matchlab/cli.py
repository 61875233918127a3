"""Command-line front door: market generation, single runs, edge-set tools,
and named experiment suites.

Flag precedence is CLI over environment (MATCHLAB_SEED) over drawn
defaults; the effective configuration, seed included, is echoed into every
artifact so runs can be reproduced exactly.  Every flag that sets an
`ExperimentConfig` field has that field as its `dest`, and none restates a
field's default, so `experiment` fills the config by name.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import (
    InterviewParams,
    SelectedSetParams,
    acceptable_edges,
    interview_edges,
    loss_params_from_bound,
    loss_report,
    selected_edges,
    theoretical_loss_params,
    truncated_edges,
    viable_edges,
)
from .engine import EdgeSet, run_da, verify_stability
from .experiments import (
    ExperimentConfig,
    EXPERIMENTS,
    _decile_stats,
    agent_deciles,
    run_experiment,
    write_csv_rows,
    write_strict_json,
)
from .market import LEFT, RIGHT, SIDES, generate_market, linear_model, load_market, save_market

EDGE_KINDS = ("full", "acceptable", "viable", "interview", "selected", "truncated")


def _range_checked(kind, lo, hi, name):
    def parse(text: str):
        value = kind(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{name} must be in [{lo}, {hi}], got {value}")
        return value

    return parse


_unit_float = _range_checked(float, 0.0, 1.0, "value")
_weight = _range_checked(float, 1e-9, 1.0 - 1e-9, "lambda")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _either(value, fallback):
    return fallback if value is None else value


def _resolve_seed(args) -> tuple[int, bool]:
    """Seed from --seed, else MATCHLAB_SEED, else a fresh random one."""
    if args.seed is not None:
        return args.seed, False
    env = os.environ.get("MATCHLAB_SEED")
    if env is not None:
        try:
            return int(env), False
        except ValueError:
            raise SystemExit(f"MATCHLAB_SEED must be an integer, got {env!r}")
    return secrets.randbits(63), True


def _add_market_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_positive_int, default=None,
                   help="agents per side (balanced market), >= 1")
    p.add_argument("--n-left", "--nw", dest="n_left", type=_positive_int, default=None,
                   help="proposing-side agents (workers), >= 1")
    p.add_argument("--n-right", "--nc", dest="n_right", type=_positive_int, default=None,
                   help="receiving-side agents (companies), >= 1")
    p.add_argument("--cap-left", type=_positive_int, default=ExperimentConfig.cap_left,
                   help="per-agent capacity, left side, >= 1")
    p.add_argument("--d", "--cap-right", dest="cap_right", type=_positive_int,
                   default=ExperimentConfig.cap_right,
                   help="per-agent capacity, right side (company positions), >= 1")
    p.add_argument("--lambda", dest="weight", type=_weight, default=ExperimentConfig.weight,
                   help="rating weight of the linear utility model, in (0, 1)")
    p.add_argument("--rating-ranges", choices=("auto", "unit", "scaled"),
                   default=ExperimentConfig.rating_ranges,
                   help="rating ranges for unbalanced markets")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (64-bit); defaults to MATCHLAB_SEED, else drawn and echoed")
    p.add_argument("--out", type=Path, default=None, help="output path (file or directory)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="row output format; JSON summaries are always written")
    p.add_argument("--jobs", type=_positive_int, default=ExperimentConfig.jobs,
                   help="concurrent runs, >= 1")


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    """Edge-protocol parameters, read by `run`, `edges` and the suites."""
    p.add_argument("--L", dest="loss_cap", type=_unit_float, default=None,
                   help="loss cap for acceptable edges, both sides, in [0, 1]")
    p.add_argument("--L-left", dest="loss_cap_left", type=_unit_float, default=None,
                   help="left-side loss cap, in [0, 1]")
    p.add_argument("--L-right", dest="loss_cap_right", type=_unit_float, default=None,
                   help="right-side loss cap, in [0, 1]")
    p.add_argument("--sigma", type=_unit_float, default=ExperimentConfig.sigma_left,
                   help="bottom-zone rating width for acceptable edges, in [0, 1]")
    p.add_argument("--p", dest="rating_window", type=_unit_float,
                   default=ExperimentConfig.rating_window, help="interview rating window, in [0, 1]")
    p.add_argument("--q", dest="score_cutoff", type=_unit_float,
                   default=ExperimentConfig.score_cutoff,
                   help="interview private-score cutoff, in [0, 1]")
    p.add_argument("--c", dest="failure_exponent", type=_range_checked(float, 0.0, 100.0, "c"),
                   default=ExperimentConfig.failure_exponent,
                   help="failure-probability exponent for derived thresholds")


def _add_edge_flags(p: argparse.ArgumentParser) -> None:
    """The edge-set choice of `run` and `edges`; no suite reads these."""
    p.add_argument("--edges", choices=EDGE_KINDS, default="full", help="edge-set construction")
    p.add_argument("--k", dest="expected_degree", type=_range_checked(float, 1.0, 1e9, "k"),
                   default=ExperimentConfig.expected_degree,
                   help="selected-set expected interviews per agent, >= 1")
    p.add_argument("--t-left", type=_range_checked(float, 1.0, 1e9, "t"), default=1.0,
                   help="left-side truncation relaxation, >= 1")
    p.add_argument("--t-right", type=_range_checked(float, 1.0, 1e9, "t"), default=1.0,
                   help="right-side truncation relaxation, >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlab",
        description="Stable-matching market laboratory: generate markets, run "
                    "deferred acceptance, build edge sets, and reproduce the "
                    "simulation suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate and save a market")
    _add_market_flags(g)
    _add_common_flags(g)

    r = sub.add_parser("run", help="run deferred acceptance on a market")
    r.add_argument("--market", type=Path, default=None, help="market file from `generate`")
    _add_market_flags(r)
    r.add_argument("--propose-side", dest="proposing_side", choices=SIDES,
                   default=ExperimentConfig.proposing_side)
    _add_protocol_flags(r)
    _add_edge_flags(r)
    _add_common_flags(r)

    e = sub.add_parser("edges", help="build an edge set and export it")
    e.add_argument("--market", type=Path, default=None, help="market file from `generate`")
    _add_market_flags(e)
    _add_protocol_flags(e)
    _add_edge_flags(e)
    _add_common_flags(e)

    # a flag added here without a default stays out of the namespace when
    # omitted, and ExperimentConfig supplies its field default
    x = sub.add_parser("experiment", help="run a named experiment suite",
                       argument_default=argparse.SUPPRESS)
    x.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    _add_market_flags(x)
    x.add_argument("--runs", type=_positive_int, help="Monte Carlo runs, >= 1")
    x.add_argument("--propose-side", dest="proposing_side", choices=SIDES)
    _add_protocol_flags(x)
    x.add_argument("--grid-start", type=_unit_float)
    x.add_argument("--grid-stop", type=_unit_float)
    x.add_argument("--grid-step", type=_range_checked(float, 1e-6, 1.0, "grid step"))
    x.add_argument("--sigma-rule", choices=("theory", "fixed"),
                   help="bottom-zone rule for the min-L search")
    x.add_argument("--n-values", type=_positive_int, nargs="+",
                   help="market sizes for loss scaling")
    x.add_argument("--exceedance-n", type=_positive_int)
    x.add_argument("--nu", type=_range_checked(float, 1e-6, 1.0, "nu"),
                   help="receiver bottom-zone constant (truncation), in (0, 1]")
    x.add_argument("--eta", type=_range_checked(float, 1.0, 100.0, "eta"),
                   help="proposer bottom-zone constant (truncation), >= 1")
    x.add_argument("--loss-bound", type=_unit_float,
                   help="override the theoretical loss bound (truncation)")
    _add_common_flags(x)

    return parser


def _market_sides(args) -> tuple[int, int]:
    n_left, n_right = _either(args.n_left, args.n), _either(args.n_right, args.n)
    if n_left is None or n_right is None:
        raise SystemExit("market size missing: pass --n, or --n-left/--nw and --n-right/--nc")
    return n_left, n_right


def _generate(args, seed: int):
    n_left, n_right = _market_sides(args)
    return generate_market(n_left, n_right, args.cap_left, args.cap_right,
                           model=linear_model(args.weight), seed=seed,
                           rating_ranges=args.rating_ranges)


def _market_from_args(args):
    """The market to work on and its provenance: a loaded market records its
    own seed and file, a generated one the resolved seed."""
    if args.market is not None:
        market = load_market(args.market)
        return market, {"seed": market.seed, "seed_drawn": False, "market_file": str(args.market)}
    seed, drawn = _resolve_seed(args)
    return _generate(args, seed), {"seed": seed, "seed_drawn": drawn, "market_file": None}


def _build_edges(market, args):
    kind = args.edges
    if kind == "full":
        return None
    if kind == "acceptable":
        cap_l = _either(args.loss_cap_left, args.loss_cap)
        cap_r = _either(args.loss_cap_right, args.loss_cap)
        if cap_l is None or cap_r is None:
            raise SystemExit("acceptable edges need --L (or --L-left/--L-right)")
        return acceptable_edges(market, cap_l, cap_r, args.sigma, args.sigma)
    if kind == "viable":
        return viable_edges(market)
    if kind == "interview":
        return interview_edges(market, InterviewParams(args.rating_window, args.score_cutoff))
    if kind == "selected":
        return selected_edges(market, SelectedSetParams(args.expected_degree))
    if kind == "truncated":
        if args.loss_cap is not None:
            params = loss_params_from_bound(args.loss_cap, market.model, args.failure_exponent)
        else:
            params = theoretical_loss_params(market.n_left, args.failure_exponent, market.model)
        return truncated_edges(market, params, args.t_left, args.t_right)
    raise SystemExit(f"unknown edge kind {kind!r}")


def _write_rows(rows: list[dict], path: Path, fmt: str) -> None:
    if fmt == "json":
        write_strict_json(rows, path.with_suffix(".json"))
    else:
        write_csv_rows(rows, path.with_suffix(".csv"))


def _matching_rows(market, matching) -> list[dict]:
    return [{
        "side": side,
        "agent_index": a,
        "public_rank": int(market.agent_rank(side)[a]),
        "partner_indices": ";".join(str(p) for p in partners),
        "proposals_made": int(matching.proposal_counts[a]) if side == matching.proposing_side else 0,
        "matched_flag": int(bool(partners)),
    } for side in SIDES for a, partners in enumerate(matching.matches(side))]


def _out_dir(args, default: str) -> Path:
    out = _either(args.out, Path(default))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    seed, drawn = _resolve_seed(args)
    market = _generate(args, seed)
    out = _either(args.out, Path("market.npz"))
    save_market(market, out)
    meta = {
        "seed": seed,
        "seed_drawn": drawn,
        "n_left": market.n_left,
        "n_right": market.n_right,
        "cap_left": args.cap_left,
        "cap_right": args.cap_right,
        "lambda": args.weight,
        "capacity_balanced": market.capacity_balanced,
        "out": str(out),
    }
    print(json.dumps(meta, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    market, provenance = _market_from_args(args)
    edges = _build_edges(market, args)
    matching = run_da(market, args.proposing_side, edges)
    blocking = verify_stability(market, edges, matching)
    params = (None if args.loss_cap is None
              else loss_params_from_bound(args.loss_cap, market.model, args.failure_exponent))
    report = loss_report(market, matching, params)

    out = _out_dir(args, "run-out")
    _write_rows(_matching_rows(market, matching), out / "matching", args.format)
    _write_rows(report.rows(market), out / "losses", args.format)
    audit = {
        **provenance,
        "propose_side": args.proposing_side,
        "edge_kind": args.edges,
        "edge_count": None if edges is None else edges.edge_count,
        "blocking_pairs": len(blocking),
        "matched_left": int(matching.matched_mask(LEFT).sum()),
        "matched_right": int(matching.matched_mask(RIGHT).sum()),
        "capacity_balanced": market.capacity_balanced,
    }
    write_strict_json(audit, out / "audit.json")
    print(json.dumps({"blocking_pairs": len(blocking), "out": str(out)}, sort_keys=True))
    return 0 if not blocking else 1


def cmd_edges(args) -> int:
    market, provenance = _market_from_args(args)
    edges = _build_edges(market, args)
    if edges is None:
        edges = EdgeSet.full(market.n_left, market.n_right)
    out = _out_dir(args, "edges-out")
    rows = [{"left_index": i, "right_index": j} for i, j in edges.pairs().tolist()]
    _write_rows(rows, out / "edges", args.format)

    degrees_by_decile = {
        side: [st["mean"] for st in _decile_stats(edges.degrees(side).astype(float),
                                                    agent_deciles(market, side))]
        for side in SIDES
    }
    summary = {**provenance, "edge_kind": args.edges, "edge_count": edges.edge_count,
               "degrees_by_decile": degrees_by_decile}
    write_strict_json(summary, out / "edge_summary.json")
    print(json.dumps({"edge_count": edges.edge_count, "out": str(out)}, sort_keys=True))
    return 0


def cmd_experiment(args) -> int:
    seed, drawn = _resolve_seed(args)
    n_left = _either(args.n_left, args.n)
    if n_left is None:
        raise SystemExit("experiments need a market size: pass --n or --n-left/--nw")
    names = {f.name for f in fields(ExperimentConfig)}
    named = {k: v for k, v in vars(args).items() if k in names}
    if "n_values" in named:
        named["n_values"] = tuple(named["n_values"])
    config = ExperimentConfig(**{
        **named,
        "n_left": n_left,
        "n_right": _either(args.n_right, args.n),
        "loss_cap_left": _either(args.loss_cap_left, args.loss_cap),
        "loss_cap_right": _either(args.loss_cap_right, args.loss_cap),
        "sigma_left": args.sigma,
        "sigma_right": args.sigma,
        "seed": seed,
    })
    report = run_experiment(config)
    report.config["seed_drawn"] = drawn
    out = _out_dir(args, f"experiment-{args.experiment}")
    if args.format == "csv":
        report.write_csv(out / "report.csv")
    else:
        write_strict_json(report.rows, out / "report.json")
    report.write_json(out / "summary.json")
    audits_ok = report.summary.get("blocking_pairs_total", 0) == 0
    print(json.dumps({"experiment": args.experiment, "out": str(out),
                      "audits_ok": audits_ok,
                      "summary_keys": sorted(report.summary)}, sort_keys=True))
    return 0 if audits_ok else 1


COMMANDS = {"generate": cmd_generate, "run": cmd_run, "edges": cmd_edges,
            "experiment": cmd_experiment}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: market generation, single runs, edge-set tools,
and named experiment suites.

Flag precedence is CLI over environment (MATCHLAB_SEED) over drawn
defaults; the effective configuration, seed included, is echoed into every
artifact so runs can be reproduced exactly.  Each flag that sets
`ExperimentConfig` fields is declared once, in CONFIG_FLAGS, with those
fields, and every command fills the fields by name from the flags given
(`_config_values`); an omitted flag leaves its field at the dataclass
default.  `experiment <suite>` takes the flags whose fields the suite reads
(`experiments.EXPERIMENTS`) and refuses any other.  `generate` takes the
market flags, `run` and `edges` also the edge-protocol ones, and none of
the three takes `--jobs`; `run` and `edges` refuse an edge-protocol flag
that the chosen `--edges` kind does not read (EDGE_KINDS).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

from .analysis import (
    InterviewParams,
    SelectedSetParams,
    acceptable_edges,
    interview_edges,
    loss_params_from_bound,
    loss_rows,
    selected_edges,
    truncated_edges,
    viable_edges,
    _loss_params,
)
from .engine import EdgeSet, run_da, verify_stability
from .experiments import (
    ExperimentConfig,
    EXPERIMENTS,
    SHARED_FIELDS,
    _decile_stats,
    agent_deciles,
    run_experiment,
    write_csv_rows,
    write_strict_json,
)
from .market import LEFT, RIGHT, SIDES, generate_market, linear_model, load_market, save_market


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


def _resolve_seed(args) -> tuple[int, bool]:
    """Seed from --seed, else MATCHLAB_SEED, else a fresh random one."""
    if args.seed is not None:
        return args.seed, False
    env = os.environ.get("MATCHLAB_SEED")
    if env is not None:
        try:
            return int(env), False
        except ValueError:
            raise ValueError(f"MATCHLAB_SEED must be an integer, got {env!r}") from None
    import secrets  # here, not at startup: only a drawn seed needs it

    return secrets.randbits(63), True


# Every flag that fills `ExperimentConfig` fields: those fields, the flag's
# names, and its other `add_argument` arguments.  Its destination is its
# first field unless given here.  No flag has a default: an omitted one
# stays out of the namespace and fills nothing.  A flag later in the table
# overrides what an earlier one filled.
CONFIG_FLAGS = (
    (("n_left", "n_right"), ("--n",), dict(
        dest="n", type=_positive_int, help="agents per side (balanced market), >= 1")),
    (("n_left",), ("--n-left", "--nw"), dict(
        type=_positive_int, help="proposing-side agents (workers), >= 1")),
    (("n_right",), ("--n-right", "--nc"), dict(
        type=_positive_int, help="receiving-side agents (companies), >= 1")),
    (("cap_left",), ("--cap-left",), dict(
        type=_positive_int, help="per-agent capacity, left side, >= 1")),
    (("cap_right",), ("--d", "--cap-right"), dict(
        type=_positive_int, help="per-agent capacity, right side (company positions), >= 1")),
    (("weight",), ("--lambda",), dict(
        type=_weight, help="rating weight of the linear utility model, in (0, 1)")),
    (("rating_ranges",), ("--rating-ranges",), dict(
        choices=("auto", "unit", "scaled"), help="rating ranges for unbalanced markets")),
    (("runs",), ("--runs",), dict(type=_positive_int, help="Monte Carlo runs, >= 1")),
    (("jobs",), ("--jobs",), dict(type=_positive_int, help="concurrent runs, >= 1")),
    (("proposing_side",), ("--propose-side",), dict(choices=SIDES)),
    (("loss_cap_left", "loss_cap_right"), ("--L",), dict(
        dest="loss_cap", type=_unit_float,
        help="loss cap for acceptable edges, both sides, in [0, 1]")),
    (("loss_cap_left",), ("--L-left",), dict(type=_unit_float, help="left-side loss cap, in [0, 1]")),
    (("loss_cap_right",), ("--L-right",), dict(
        type=_unit_float, help="right-side loss cap, in [0, 1]")),
    (("sigma_left", "sigma_right"), ("--sigma",), dict(
        dest="sigma", type=_unit_float,
        help="bottom-zone rating width for acceptable edges, in [0, 1]")),
    (("rating_window",), ("--p",), dict(type=_unit_float, help="interview rating window, in [0, 1]")),
    (("score_cutoff",), ("--q",), dict(
        type=_unit_float, help="interview private-score cutoff, in [0, 1]")),
    (("expected_degree",), ("--k",), dict(
        type=_range_checked(float, 1.0, 1e9, "k"),
        help="selected-set expected interviews per agent, >= 1")),
    (("failure_exponent",), ("--c",), dict(
        type=_range_checked(float, 0.0, 100.0, "c"),
        help="failure-probability exponent for derived thresholds")),
    (("grid_start",), ("--grid-start",), dict(type=_unit_float)),
    (("grid_stop",), ("--grid-stop",), dict(type=_unit_float)),
    (("grid_step",), ("--grid-step",), dict(type=_range_checked(float, 1e-6, 1.0, "grid step"))),
    (("sigma_rule",), ("--sigma-rule",), dict(
        choices=("theory", "fixed"), help="bottom-zone rule for the min-L search")),
    (("n_values",), ("--n-values",), dict(
        type=_positive_int, nargs="+", help="market sizes for loss scaling")),
    (("exceedance_n",), ("--exceedance-n",), dict(type=_positive_int)),
    (("nu",), ("--nu",), dict(
        type=_range_checked(float, 1e-6, 1.0, "nu"),
        help="receiver bottom-zone constant (truncation), in (0, 1]")),
    (("eta",), ("--eta",), dict(
        type=_range_checked(float, 1.0, 100.0, "eta"),
        help="proposer bottom-zone constant (truncation), >= 1")),
    (("loss_bound",), ("--loss-bound",), dict(
        type=_unit_float, help="override the theoretical loss bound (truncation)")),
)

MARKET_FIELDS = {"n_left", "n_right", "cap_left", "cap_right", "weight", "rating_ranges"}
# the edge-protocol fields `run` and `edges` read
PROTOCOL_FIELDS = {"loss_cap_left", "loss_cap_right", "sigma_left", "sigma_right",
                   "rating_window", "score_cutoff", "expected_degree", "failure_exponent"}


def _add_config_flags(p: argparse.ArgumentParser, names) -> None:
    """Add every CONFIG_FLAGS flag whose fields all lie in `names`."""
    for filled, flags, kwargs in CONFIG_FLAGS:
        if set(filled) <= set(names):
            p.add_argument(*flags, **{"dest": filled[0], **kwargs}, default=argparse.SUPPRESS)


def _config_values(args) -> dict:
    """The `ExperimentConfig` fields the flags given in `args` fill, in
    CONFIG_FLAGS order."""
    given = vars(args)
    values = {}
    for filled, _, kwargs in CONFIG_FLAGS:
        dest = kwargs.get("dest", filled[0])
        if dest in given:
            values.update(dict.fromkeys(filled, given[dest]))
    return values


def _add_common_flags(p: argparse.ArgumentParser, out: str) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (64-bit); defaults to MATCHLAB_SEED, else drawn and echoed")
    p.add_argument("--out", type=Path, default=Path(out), help="output path (file or directory)")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="row output format; JSON summaries are always written")


def _add_edge_flags(p: argparse.ArgumentParser) -> None:
    """The edge-set choice of `run` and `edges` and the truncation
    relaxations, which only truncated edges read; no suite reads these."""
    p.add_argument("--edges", choices=EDGE_KINDS, default="full", help="edge-set construction")
    p.add_argument("--t-left", type=_range_checked(float, 1.0, 1e9, "t"), default=argparse.SUPPRESS,
                   help="left-side truncation relaxation, >= 1 (default 1)")
    p.add_argument("--t-right", type=_range_checked(float, 1.0, 1e9, "t"), default=argparse.SUPPRESS,
                   help="right-side truncation relaxation, >= 1 (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlab",
        description="Stable-matching market laboratory: generate markets, run "
                    "deferred acceptance, build edge sets, and reproduce the "
                    "simulation suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate and save a market")
    _add_config_flags(g, MARKET_FIELDS)
    _add_common_flags(g, "market.npz")

    r = sub.add_parser("run", help="run deferred acceptance on a market")
    r.add_argument("--market", type=Path, default=None, help="market file from `generate`")
    _add_config_flags(r, MARKET_FIELDS | PROTOCOL_FIELDS | {"proposing_side"})
    _add_edge_flags(r)
    _add_common_flags(r, "run-out")
    _add_format_flag(r)

    e = sub.add_parser("edges", help="build an edge set and export it")
    e.add_argument("--market", type=Path, default=None, help="market file from `generate`")
    _add_config_flags(e, MARKET_FIELDS | PROTOCOL_FIELDS)
    _add_edge_flags(e)
    _add_common_flags(e, "edges-out")
    _add_format_flag(e)

    x = sub.add_parser("experiment", help="run a named experiment suite")
    suites = x.add_subparsers(dest="experiment", metavar="experiment", required=True)
    for name, suite in sorted(EXPERIMENTS.items()):
        # no abbreviations, so a flag the suite does not read is refused
        # rather than taken for a prefix
        s = suites.add_parser(name, help=suite.run.__doc__.split(".")[0], allow_abbrev=False)
        _add_config_flags(s, SHARED_FIELDS + suite.fields)
        _add_common_flags(s, f"experiment-{name}")
        _add_format_flag(s)

    return parser


def _command_config(args) -> argparse.Namespace:
    """The config fields `generate`, `run` and `edges` read: as the flags
    given fill them, else at their default; the market sizes only if given."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)
                if f.name not in ("experiment", "n_left", "n_right")}
    return argparse.Namespace(**{**defaults, **_config_values(args)})


def _generate(config, seed: int):
    if not {"n_left", "n_right"} <= vars(config).keys():
        raise ValueError("market size missing: pass --n, or --n-left/--nw and --n-right/--nc")
    return generate_market(config.n_left, config.n_right, config.cap_left, config.cap_right,
                           model=linear_model(config.weight), seed=seed,
                           rating_ranges=config.rating_ranges)


def _market_from_args(args, config):
    """The market to work on and its provenance: a loaded market records its
    own seed and file, a generated one the resolved seed.  A market file
    fixes the market and its seed, so a market flag or `--seed` beside it
    is refused rather than ignored."""
    if args.market is not None:
        given = ["/".join(flags) for filled, flags, kwargs in CONFIG_FLAGS
                 if set(filled) <= MARKET_FIELDS and kwargs.get("dest", filled[0]) in vars(args)]
        if args.seed is not None:
            given.append("--seed")
        if given:
            raise ValueError("--market loads the market and its seed from the file; "
                             f"drop {', '.join(given)}")
        market = load_market(args.market)
        return market, {"seed": market.seed, "seed_drawn": False, "market_file": str(args.market)}
    seed, drawn = _resolve_seed(args)
    return _generate(config, seed), {"seed": seed, "seed_drawn": drawn, "market_file": None}


def _acceptable(market, args, config):
    if config.loss_cap_left is None or config.loss_cap_right is None:
        raise ValueError("acceptable edges need --L (or --L-left/--L-right)")
    return acceptable_edges(market, config.loss_cap_left, config.loss_cap_right,
                            config.sigma_left, config.sigma_right)


def _truncated(market, args, config):
    if config.loss_cap_left is None and market.n_left < 2:
        raise ValueError(f"truncated edges at n_left = {market.n_left} have no theoretical "
                         "loss bound (it needs n_left >= 2): pass --L")
    params = _loss_params(config.loss_cap_left, market.n_left, config.failure_exponent, market.model)
    return truncated_edges(market, params, *(vars(args).get(t, 1.0) for t in ("t_left", "t_right")))


class EdgeKind(NamedTuple):
    build: Callable  # (market, args, config) -> the edge set, or None for the complete set
    reads: tuple[str, ...]  # destinations of the edge flags it reads
    named: str  # those flags, as a refusal names them


# Every `--edges` kind, its builder and the edge flags it reads.  `run` and
# `edges` refuse any flag of this table that the chosen kind does not read.
EDGE_KINDS = {
    "full": EdgeKind(lambda market, args, config: None, (), "no edge flag"),
    "acceptable": EdgeKind(_acceptable, ("loss_cap", "loss_cap_left", "loss_cap_right", "sigma"),
                           "--L, --L-left, --L-right and --sigma"),
    "viable": EdgeKind(lambda market, args, config: viable_edges(market), (), "no edge flag"),
    "interview": EdgeKind(lambda market, args, config: interview_edges(
        market, InterviewParams(config.rating_window, config.score_cutoff)),
        ("rating_window", "score_cutoff"), "--p and --q"),
    "selected": EdgeKind(lambda market, args, config: selected_edges(
        market, SelectedSetParams(config.expected_degree)), ("expected_degree",), "--k"),
    "truncated": EdgeKind(_truncated, ("loss_cap", "failure_exponent", "t_left", "t_right"),
                          "one loss bound (--L), --c, --t-left and --t-right"),
}
# the loss-cap flags; `run` takes each side's bottom zone in its loss rows
# from them, so it reads them whatever edges it runs on
LOSS_CAPS = {"loss_cap", "loss_cap_left", "loss_cap_right"}


def _flag(dest: str) -> str:
    """The option strings of the flag whose destination is `dest`."""
    for filled, flags, kwargs in CONFIG_FLAGS:
        if kwargs.get("dest", filled[0]) == dest:
            return "/".join(flags)
    return "--" + dest.replace("_", "-")  # --t-left, --t-right


def _edge_kind(args) -> EdgeKind:
    """The chosen `--edges` kind, once every edge flag given that neither it
    nor the command reads is refused.  `run` reads the loss caps unless the
    kind reads caps of its own: its bottom zones then follow those."""
    kind = EDGE_KINDS[args.edges]
    reads = set(kind.reads)
    if args.command == "run" and not reads & LOSS_CAPS:
        reads |= LOSS_CAPS
    edge_flags = {dest for other in EDGE_KINDS.values() for dest in other.reads}
    refused = [_flag(dest) for dest in vars(args) if dest in edge_flags - reads]
    if refused:
        raise ValueError(f"{args.edges} edges read {kind.named}: drop {', '.join(refused)}")
    return kind


def _write_rows(rows: list[dict], path: Path, fmt: str) -> None:
    if fmt == "json":
        write_strict_json(rows, path.with_suffix(".json"))
    else:
        write_csv_rows(rows, path.with_suffix(".csv"))


def _matching_rows(market, matching) -> list[dict]:
    rows = []
    for side in SIDES:
        indptr, partners = matching.edges.csr(side)
        ends, partners = indptr.tolist(), partners.tolist()
        rank = market.agent_rank(side)
        rows += [{
            "side": side,
            "agent_index": a,
            "public_rank": int(rank[a]),
            "partner_indices": ";".join(map(str, partners[lo:hi])),
            "proposals_made": int(matching.proposal_counts[a]) if side == matching.proposing_side else 0,
            "matched_flag": int(hi > lo),
        } for a, (lo, hi) in enumerate(zip(ends, ends[1:]))]
    return rows


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def cmd_generate(args) -> int:
    seed, drawn = _resolve_seed(args)
    market = _generate(_command_config(args), seed)
    save_market(market, args.out)
    meta = {
        "seed": seed,
        "seed_drawn": drawn,
        "n_left": market.n_left,
        "n_right": market.n_right,
        "cap_left": market.cap_left,
        "cap_right": market.cap_right,
        "lambda": market.model.weight,
        "capacity_balanced": market.capacity_balanced,
        "out": str(args.out),
    }
    print(json.dumps(meta, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    kind = _edge_kind(args)
    config = _command_config(args)
    market, provenance = _market_from_args(args, config)
    edges = kind.build(market, args, config)
    matching = run_da(market, config.proposing_side, edges)
    blocking = verify_stability(market, edges, matching)
    # each side's bottom zone follows the loss cap its edges were built with
    sigmas = [None if cap is None else loss_params_from_bound(cap, market.model).sigma_bound
              for cap in (config.loss_cap_left, config.loss_cap_right)]
    losses = loss_rows(market, matching, *sigmas)

    out = _out_dir(args)
    _write_rows(_matching_rows(market, matching), out / "matching", args.format)
    _write_rows(losses, out / "losses", args.format)
    audit = {
        **provenance,
        "propose_side": config.proposing_side,
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
    kind = _edge_kind(args)
    config = _command_config(args)
    market, provenance = _market_from_args(args, config)
    edges = kind.build(market, args, config)
    if edges is None:
        edges = EdgeSet.full(market.n_left, market.n_right)
    out = _out_dir(args)
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
    values = _config_values(args)
    if "n_left" not in values:
        raise ValueError("experiments need a market size: pass --n or --n-left/--nw")
    if "n_values" in values:
        values["n_values"] = tuple(values["n_values"])
    config = ExperimentConfig(args.experiment, **values, seed=seed)
    report = run_experiment(config)
    report.config["seed_drawn"] = drawn
    out = _out_dir(args)
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

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import matchlab as ml
from matchlab import cli, experiments
from matchlab.cli import main
from matchlab.experiments import EXPERIMENTS, SHARED_FIELDS, ExperimentConfig


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--seed", "--out", "--format", "--edges", "--L",
                 "--sigma", "--p", "--q", "--k", "--propose-side", "--lambda"):
        assert flag in out
    assert "[0, 1]" in out  # ranges documented


def test_generate_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "m1.npz", tmp_path / "m2.npz"
    assert main(["generate", "--n", "40", "--lambda", "0.8", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["generate", "--n", "40", "--lambda", "0.8", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["seed"] == 7 and meta["seed_drawn"] is False


def test_generate_many_to_one(tmp_path, capsys):
    out = tmp_path / "m.npz"
    assert main(["generate", "--nw", "80", "--nc", "10", "--d", "8",
                 "--lambda", "0.8", "--seed", "3", "--out", str(out)]) == 0
    m = ml.load_market(out)
    assert (m.n_left, m.n_right, m.cap_right) == (80, 10, 8)
    assert m.capacity_balanced


def test_generate_missing_seed_echoes_one(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MATCHLAB_SEED", raising=False)
    out = tmp_path / "m.npz"
    assert main(["generate", "--n", "10", "--out", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out.strip())
    assert meta["seed_drawn"] is True
    assert isinstance(meta["seed"], int)


def test_env_seed_used(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MATCHLAB_SEED", "424242")
    out = tmp_path / "m.npz"
    assert main(["generate", "--n", "10", "--out", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out.strip())
    assert meta["seed"] == 424242 and meta["seed_drawn"] is False


def test_invalid_lambda_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--n", "10", "--lambda", "1.5", "--seed", "1",
              "--out", str(tmp_path / "m.npz")])


def test_market_too_large_for_memory_fails_early(tmp_path, capsys):
    code = main(["run", "--n", "200000", "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "of physical memory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_full_market(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--n", "30", "--lambda", "0.8", "--seed", "11", "--out", str(out)])
    assert code == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["blocking_pairs"] == 0
    with open(out / "matching.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    assert set(rows[0]) == {"side", "agent_index", "public_rank", "partner_indices",
                            "proposals_made", "matched_flag"}
    with open(out / "losses.csv") as fh:
        loss_rows = list(csv.DictReader(fh))
    assert len(loss_rows) == 60
    assert "is_gain" in loss_rows[0]


def test_run_acceptable_equals_full_when_all_matched(tmp_path, capsys):
    out_a = tmp_path / "acc"
    out_f = tmp_path / "full"
    args = ["run", "--n", "200", "--lambda", "0.8", "--seed", "13"]
    assert main(args + ["--edges", "acceptable", "--L", "0.3", "--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_f)]) == 0
    audit = json.loads((out_a / "audit.json").read_text())
    if audit["matched_left"] == 200 and audit["matched_right"] == 200:
        assert (out_a / "matching.csv").read_text() != ""
        with open(out_a / "matching.csv") as fh:
            pa = {(r["side"], r["agent_index"]): r["partner_indices"] for r in csv.DictReader(fh)}
        with open(out_f / "matching.csv") as fh:
            pf = {(r["side"], r["agent_index"]): r["partner_indices"] for r in csv.DictReader(fh)}
        assert pa == pf


def test_run_propose_side_right_differs_on_multi_stable(tmp_path, capsys):
    out_l = tmp_path / "left"
    out_r = tmp_path / "right"
    args = ["run", "--n", "150", "--lambda", "0.8", "--seed", "17"]
    assert main(args + ["--out", str(out_l)]) == 0
    assert main(args + ["--propose-side", "right", "--out", str(out_r)]) == 0

    m = ml.generate_market(150, 150, model=ml.linear_model(0.8), seed=17)
    multi_left, _ = ml.multi_stable_agents(m)

    def partners(path):
        with open(path / "matching.csv") as fh:
            return {r["agent_index"]: r["partner_indices"]
                    for r in csv.DictReader(fh) if r["side"] == "left"}

    pl, pr = partners(out_l), partners(out_r)
    differs = {int(a) for a in pl if pl[a] != pr[a]}
    assert differs == set(multi_left)


def test_run_missing_market_file(tmp_path, capsys):
    code = main(["run", "--market", str(tmp_path / "absent.npz"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_edges_subcommand_exports(tmp_path, capsys):
    out = tmp_path / "edges"
    code = main(["edges", "--n", "40", "--lambda", "0.8", "--seed", "19",
                 "--edges", "interview", "--p", "0.3", "--q", "0.5", "--out", str(out)])
    assert code == 0
    with open(out / "edges.csv") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out / "edge_summary.json").read_text())
    assert summary["edge_count"] == len(rows)
    assert set(rows[0]) == {"left_index", "right_index"}
    assert len(summary["degrees_by_decile"]["left"]) == 10

    m = ml.generate_market(40, 40, model=ml.linear_model(0.8), seed=19)
    expected = ml.interview_edges(m, ml.InterviewParams(0.3, 0.5))
    assert summary["edge_count"] == expected.edge_count


def test_experiment_subcommand_writes_report(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", "unique-partners", "--n", "100", "--lambda", "0.8",
                 "--runs", "2", "--seed", "23", "--out", str(out)])
    assert code == 0
    assert (out / "report.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "unique-partners"
    assert summary["summary"]["blocking_pairs_total"] == 0


def test_experiment_min_l_cli(tmp_path, capsys):
    out = tmp_path / "minl"
    code = main(["experiment", "min-L", "--n", "80", "--lambda", "0.8",
                 "--runs", "2", "--seed", "29", "--grid-start", "0.1",
                 "--grid-stop", "1.0", "--grid-step", "0.1", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.1 <= summary["summary"]["min_L"] <= 1.0


@pytest.mark.parametrize("command", ["run", "edges"])
@pytest.mark.parametrize("flag", ["--L-left", "--L-right"])
def test_truncated_edges_refuse_one_sided_loss_caps(command, flag, tmp_path, capsys):
    # the truncation strategy reads one loss bound, --L
    code = main([command, "--n", "30", "--seed", "1", "--edges", "truncated", flag, "0.3",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: truncated edges read one loss bound")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_run_bottom_zone_follows_loss_caps_however_spelled(tmp_path, capsys):
    base = ["run", "--n", "30", "--seed", "1", "--edges", "acceptable"]
    spellings = {
        "both": ["--L", "0.3"],
        "sides": ["--L-left", "0.3", "--L-right", "0.3"],
        "one-side": ["--L", "0.3", "--L-right", "0.3"],
        # each side's zone from its own cap
        "split": ["--L-left", "0.3", "--L-right", "0.05"],
        "narrow": ["--L", "0.05"],
    }
    losses = {}
    for name, caps in spellings.items():
        out = tmp_path / name
        assert main(base + caps + ["--out", str(out)]) == 0
        losses[name] = (out / "losses.csv").read_bytes()
    assert losses["sides"] == losses["one-side"] == losses["both"]

    def zone(name, side):
        with open(tmp_path / name / "losses.csv") as fh:
            return [r["bottom_zone"] for r in csv.DictReader(fh) if r["side"] == side]

    assert zone("both", "left").count("True") + zone("both", "right").count("True") == 16
    assert zone("split", "left") == zone("both", "left")
    assert zone("split", "right") == zone("narrow", "right") != zone("both", "right")


def test_experiment_reversed_grid_fails_early(tmp_path, capsys):
    code = main(["experiment", "min-L", "--n", "20", "--runs", "1", "--grid-start", "0.5",
                 "--grid-stop", "0.1", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid_start 0.5 exceeds grid_stop 0.1")
    assert "Traceback" not in err


def test_experiment_lower_bound_needs_square_one_to_one(tmp_path, capsys):
    for sizes in (["--n-left", "60", "--n-right", "40"], ["--n", "40", "--cap-left", "2"]):
        code = main(["experiment", "lower-bound", *sizes, "--runs", "3", "--seed", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lower-bound needs a square one-to-one market")
        assert "Traceback" not in err


def test_loss_scaling_refuses_exceedance_n_without_loss_bound(tmp_path, capsys):
    code = main(["experiment", "loss-scaling", "--n", "1", "--n-values", "1", "3",
                 "--exceedance-n", "1", "--runs", "2", "--seed", "1", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exceedance_n must be at least 2")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_loss_scaling_writes_null_for_empty_non_bottom_pool(tmp_path, capsys):
    # at n = 1 and seed 1, run 1 has every matched agent in the bottom zone
    out = tmp_path / "ls"
    code = main(["experiment", "loss-scaling", "--n", "1", "--n-values", "1", "3",
                 "--exceedance-n", "3", "--runs", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    with open(out / "report.csv", newline="") as fh:
        scaling = [r for r in csv.DictReader(fh) if r["kind"] == "scaling"]
    empty = [r for r in scaling if r["non_bottom"] == "0"]
    assert [(r["run"], r["n"]) for r in empty] == [("1", "1")]
    assert all(r[k] == "nan" for r in empty for k in ("max_loss", "q50", "q90"))
    assert all(float(r["max_loss"]) >= 0 for r in scaling if r not in empty)
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["median_max_loss"]["1"] is None and summary["median_max_loss"]["3"] > 0
    assert summary["ratio_small_over_large"] is None and summary["fitted_exponent"] is None


def test_generate_refuses_negative_seed(tmp_path, capsys):
    code = main(["generate", "--n", "3", "--seed", "-1", "--out", str(tmp_path / "m.npz")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported inside max_bipartite_matching only, so startup does
    # not pay for loading it
    code = "import sys, matchlab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(Path(ml.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"


def test_experiment_unknown_id_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "nonsense", "--n", "10"])


@pytest.mark.parametrize("flag", [["--edges", "viable"], ["--t-left", "2"], ["--t-right", "2"],
                                  ["--k", "5"]])
def test_experiment_rejects_edge_set_flags(flag, tmp_path, capsys):
    # no suite reads these, so `experiment` refuses them instead of ignoring them
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "unique-partners", "--n", "20", "--runs", "1", "--seed", "1", *flag,
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["generate", "--jobs", "2"], ["generate", "--format", "json"],
                                  ["run", "--jobs", "2"], ["edges", "--jobs", "2"]])
def test_commands_reject_flags_they_do_not_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "10", "--seed", "1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# every `experiment` flag that sets a config field, a value other than the
# field's default, and the fields it then holds; `--runs` and `--seed` are
# set in every case, and `--nw` sets n_left
FLAG_FIELDS = [
    (["--n", "40"], {"n_right": 40}),
    (["--n-left", "25"], {"n_left": 25}),
    (["--n-right", "20"], {"n_right": 20}),
    (["--nc", "20"], {"n_right": 20}),
    (["--cap-left", "2"], {"cap_left": 2}),
    (["--d", "3"], {"cap_right": 3}),
    (["--cap-right", "3"], {"cap_right": 3}),
    (["--lambda", "0.5"], {"weight": 0.5}),
    (["--rating-ranges", "scaled"], {"rating_ranges": "scaled"}),
    (["--propose-side", "right"], {"proposing_side": "right"}),
    (["--jobs", "2"], {"jobs": 2}),
    (["--L", "0.3"], {"loss_cap_left": 0.3, "loss_cap_right": 0.3}),
    (["--L-left", "0.2"], {"loss_cap_left": 0.2}),
    (["--L", "0.3", "--L-left", "0.2"], {"loss_cap_left": 0.2, "loss_cap_right": 0.3}),
    (["--L-right", "0.4"], {"loss_cap_right": 0.4}),
    (["--sigma", "0.1"], {"sigma_left": 0.1, "sigma_right": 0.1}),
    (["--p", "0.3"], {"rating_window": 0.3}),
    (["--q", "0.4"], {"score_cutoff": 0.4}),
    (["--c", "2"], {"failure_exponent": 2.0}),
    (["--grid-start", "0.05"], {"grid_start": 0.05}),
    (["--grid-stop", "0.4"], {"grid_stop": 0.4}),
    (["--grid-step", "0.02"], {"grid_step": 0.02}),
    (["--sigma-rule", "fixed"], {"sigma_rule": "fixed"}),
    (["--n-values", "40", "80"], {"n_values": [40, 80]}),
    (["--exceedance-n", "60"], {"exceedance_n": 60}),
    (["--nu", "0.3"], {"nu": 0.3}),
    (["--eta", "3"], {"eta": 3.0}),
    (["--loss-bound", "0.2"], {"loss_bound": 0.2}),
]


def reads(suite, fields):
    """Whether `suite` reads every one of `fields`."""
    return set(fields) <= set(SHARED_FIELDS + EXPERIMENTS[suite].fields)


UNREAD_FLAGS = [(suite, flag) for suite in sorted(EXPERIMENTS) for flag, fields in FLAG_FIELDS
                if sum(f.startswith("--") for f in flag) == 1 and not reads(suite, fields)]


@pytest.mark.parametrize("suite,flag", UNREAD_FLAGS)
def test_experiment_rejects_flags_its_suite_does_not_read(suite, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", suite, "--n", "20", "--runs", "1", "--seed", "1", *flag,
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def echoed_config(monkeypatch, tmp_path, argv):
    """The config that `experiment` echoes into summary.json for `argv`; the
    suite itself is replaced by an empty report, so nothing is simulated."""
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config: experiments._report(config, [{"run": 0}], {}))
    out = tmp_path / "echo"
    assert main(["experiment", *argv, "--out", str(out)]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config.pop("seed_drawn") is False
    return config


@pytest.mark.parametrize("suite", sorted(EXPERIMENTS))
def test_experiment_flags_fill_config_by_name(suite, tmp_path, monkeypatch, capsys):
    base = [suite, "--nw", "30", "--runs", "2", "--seed", "5"]
    default = json.loads(json.dumps(asdict(ExperimentConfig(suite, n_left=30, seed=5, runs=2))))
    assert echoed_config(monkeypatch, tmp_path, base) == default
    for flag, fields in FLAG_FIELDS:
        if reads(suite, fields):
            assert all(default[name] != value for name, value in fields.items()), flag
            assert echoed_config(monkeypatch, tmp_path, base + flag) == {**default, **fields}, flag


def test_flag_table_covers_every_experiment_flag(capsys):
    pairs = 0
    for suite in sorted(EXPERIMENTS):
        with pytest.raises(SystemExit):
            main(["experiment", suite, "--help"])
        listed = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
        covered = {f for flag, fields in FLAG_FIELDS if reads(suite, fields)
                   for f in flag if f.startswith("--")}
        assert listed == covered | {"--help", "--nw", "--runs", "--seed", "--out", "--format"}
        pairs += len(listed - {"--help", "--nw", "--nc", "--cap-right"})  # aliases count once
    assert pairs == 107


def test_json_format_option(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", "lower-bound", "--n", "60", "--lambda", "0.5",
                 "--runs", "2", "--seed", "31", "--format", "json", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert not (out / "report.csv").exists()


def strict_json(path):
    """Parse `path` refusing NaN/Infinity, and check it is exactly what a
    strict dump of the parsed value writes back."""
    def refuse(token):
        raise ValueError(f"{path.name} holds non-JSON constant {token}")

    text = path.read_text()
    value = json.loads(text, parse_constant=refuse)
    assert json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n" == text
    return value


def test_run_on_market_file_records_its_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MATCHLAB_SEED", raising=False)
    market = tmp_path / "m.npz"
    assert main(["generate", "--n", "30", "--seed", "7", "--out", str(market)]) == 0
    for command, artifact in (("run", "audit.json"), ("edges", "edge_summary.json")):
        out = tmp_path / command
        assert main([command, "--market", str(market), "--out", str(out)]) == 0
        record = strict_json(out / artifact)
        assert record["seed"] == 7
        assert record["seed_drawn"] is False
        assert record["market_file"] == str(market)


def test_run_artifacts_strict_json(tmp_path, capsys):
    # unbalanced one-to-one: the short side's agents have no aligned partner
    out = tmp_path / "run"
    assert main(["run", "--n-left", "12", "--n-right", "8", "--seed", "3",
                 "--format", "json", "--out", str(out)]) == 0
    audit = strict_json(out / "audit.json")
    assert audit["seed"] == 3 and audit["market_file"] is None
    assert len(strict_json(out / "matching.json")) == 20
    assert len(strict_json(out / "losses.json")) == 20


def test_edges_artifacts_strict_json(tmp_path, capsys):
    # five agents a side leave some deciles empty, whose mean degree is null
    out = tmp_path / "edges"
    assert main(["edges", "--n", "5", "--seed", "4", "--format", "json", "--out", str(out)]) == 0
    summary = strict_json(out / "edge_summary.json")
    assert None in summary["degrees_by_decile"]["left"]
    assert len(strict_json(out / "edges.json")) == summary["edge_count"] == 25


@pytest.mark.parametrize("argv,nulls", [
    (["unique-partners", "--n", "1"], ["top90_fraction", "bottom_decile_fraction"]),
    (["unique-partners", "--n", "5"], ["bottom_decile_fraction"]),
    (["edge-counts", "--n", "1", "--L", "0.3"], ["top_list_mean", "top_proposals_mean"]),
    # no interview edges, so no run has a pair matched under both protocols
    (["interview", "--n", "1", "--p", "0", "--q", "1"], ["diff_quantiles_mean"]),
    (["interview", "--n", "5", "--p", "0", "--q", "1"], ["diff_quantiles_mean"]),
    (["interview", "--nw", "30", "--nc", "5", "--d", "6", "--p", "0", "--q", "1"],
     ["diff_quantiles_mean"]),
    (["truncation", "--n", "2"], ["rest_mean_proposals"]),
    (["truncation", "--n", "5"], ["rest_mean_proposals"]),
    (["truncation", "--nw", "30", "--nc", "5", "--d", "6"], []),
])
def test_experiment_summaries_over_empty_sets_are_null(argv, nulls, tmp_path, capsys):
    # Tier-1 turns a numpy RuntimeWarning into an error, so none is emitted
    out = tmp_path / "exp"
    assert main(["experiment", *argv, "--runs", "2", "--seed", "1", "--out", str(out)]) == 0
    summary = strict_json(out / "summary.json")["summary"]
    empty = {key for key, value in summary.items()
             if value is None or value == [None] * 3}
    assert empty == set(nulls)


def test_experiment_artifacts_strict_json(tmp_path, capsys):
    # complete interview lists match everyone, so the unmatched share is 0/0
    out = tmp_path / "exp"
    assert main(["experiment", "interview", "--n", "50", "--runs", "1", "--p", "1", "--q", "0",
                 "--seed", "5", "--format", "json", "--out", str(out)]) == 0
    summary = strict_json(out / "summary.json")
    assert summary["summary"]["bottom_two_decile_share"] is None
    assert strict_json(out / "report.json")


# every command that fills config fields from CONFIG_FLAGS, as argv
CONFIG_COMMANDS = [["generate"], ["run"], ["edges"],
                   *(["experiment", s] for s in sorted(EXPERIMENTS))]
CONFIG_DESTS = {kwargs.get("dest", filled[0]) for filled, _, kwargs in cli.CONFIG_FLAGS}


@pytest.mark.parametrize("command", CONFIG_COMMANDS, ids=" ".join)
def test_config_flags_carry_no_default(command):
    # defaults live only in ExperimentConfig: an omitted flag leaves no
    # value in the namespace, and a given one fills its destination
    parser = cli.build_parser()
    assert not CONFIG_DESTS & vars(parser.parse_args(command)).keys()
    assert vars(parser.parse_args([*command, "--lambda", "0.5"]))["weight"] == 0.5


def artifacts(out):
    """The file `out`, or every file in the directory `out`, by name, as bytes."""
    paths = [out] if out.is_file() else sorted(out.iterdir())
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("command", [["generate"], ["run"], ["edges"],
                                     ["run", "--edges", "acceptable", "--L", "0.3"]], ids=" ".join)
def test_market_size_spellings_write_identical_artifacts(command, tmp_path, capsys):
    written = []
    for sizes in (["--n", "30"], ["--n-left", "30", "--n-right", "30"], ["--nw", "30", "--nc", "30"]):
        out = tmp_path / str(len(written))
        if command == ["generate"]:
            out.mkdir()
            out = out / "market.npz"
        assert main([*command, *sizes, "--seed", "5", "--out", str(out)]) == 0
        written.append(artifacts(out))
    assert written[0] == written[1] == written[2]


def test_loss_cap_spellings_write_identical_acceptable_edges(tmp_path, capsys):
    written = []
    for k, caps in enumerate([["--L", "0.3"], ["--L-left", "0.3", "--L-right", "0.3"]]):
        out = tmp_path / str(k)
        assert main(["edges", "--n", "30", "--seed", "1", "--edges", "acceptable", *caps,
                     "--out", str(out)]) == 0
        written.append(artifacts(out))
    assert written[0] == written[1]
    assert 0 < json.loads(written[0]["edge_summary.json"])["edge_count"] < 900


def refuse_markets(monkeypatch):
    def no_market(*args, **kwargs):
        raise AssertionError("a market was drawn")

    monkeypatch.setattr(experiments, "generate_market", no_market)


@pytest.mark.parametrize("caps,flag", [(["--cap-right", "2"], "--cap-right"),
                                       (["--d", "3"], "--cap-right"),
                                       (["--propose-side", "right", "--cap-left", "2"], "--cap-left")])
def test_unique_partners_refuses_capacitated_receivers_before_any_market(caps, flag, tmp_path,
                                                                          capsys, monkeypatch):
    refuse_markets(monkeypatch)
    code = main(["experiment", "unique-partners", "--n", "6", *caps, "--runs", "1", "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unique-partners") and f"{flag} 1" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_unique_partners_reads_capacitated_proposers(tmp_path, capsys):
    # the receivers keep capacity 1, so each has one partner per matching
    out = tmp_path / "up"
    assert main(["experiment", "unique-partners", "--n", "30", "--cap-left", "2", "--runs", "1",
                 "--seed", "1", "--out", str(out)]) == 0
    assert strict_json(out / "summary.json")["summary"]["blocking_pairs_total"] == 0


def test_truncation_refuses_one_agent_without_loss_bound_before_any_market(tmp_path, capsys,
                                                                          monkeypatch):
    with monkeypatch.context() as patched:
        refuse_markets(patched)
        code = main(["experiment", "truncation", "--n", "1", "--runs", "2", "--seed", "1",
                     "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: truncation needs n_left >= 2 or a loss_bound")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()
    # an explicit bound needs no second agent
    out = tmp_path / "bound"
    assert main(["experiment", "truncation", "--n", "1", "--loss-bound", "0.2", "--runs", "2",
                 "--seed", "1", "--out", str(out)]) == 0
    assert len(strict_json(out / "summary.json")["run_seeds"]) == 2

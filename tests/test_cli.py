import csv
import json
import os

import numpy as np
import pytest

import matchlab as ml
from matchlab.cli import main


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--seed", "--out", "--format", "--jobs", "--edges", "--L",
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


def test_experiment_unknown_id_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "nonsense", "--n", "10"])


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


def test_experiment_artifacts_strict_json(tmp_path, capsys):
    # complete interview lists match everyone, so the unmatched share is 0/0
    out = tmp_path / "exp"
    assert main(["experiment", "interview", "--n", "50", "--runs", "1", "--p", "1", "--q", "0",
                 "--seed", "5", "--format", "json", "--out", str(out)]) == 0
    summary = strict_json(out / "summary.json")
    assert summary["summary"]["bottom_two_decile_share"] is None
    assert strict_json(out / "report.json")

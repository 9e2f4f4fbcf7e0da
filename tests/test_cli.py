import json
import math

import pytest
import yaml

from satdefsim.cli import main

SMALL_SCENARIO = {
    "horizon": 120,
    "window": 5,
    "tasks": [
        {"id": "routine", "nature": "mission", "priority": "low",
         "arrival": {"kind": "aperiodic", "rate": 0.3},
         "demand": [0.05, 0.15], "power": 0.13, "processing": 18, "deadline": 50},
        {"id": "relay", "nature": "mission", "priority": "high",
         "arrival": {"kind": "periodic", "interval": 30},
         "demand": [0.20, 0.10], "power": 0.15, "processing": 8, "deadline": 15,
         "firm_deadline": True},
    ],
    "scan": {"demand": [0.15, 0.05], "power": 0.25, "duration": 5},
    "channel": {
        "fading": {"b0": 0.158, "m": 19.4, "omega": 1.29},
        "geometry": {"d_min_km": 550, "d_max_km": 1600, "peak_snr_db": 12},
    },
    "policy": "star",
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(SMALL_SCENARIO))
    return str(path)


def test_simulate_writes_traces(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", scenario_file, "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "slots.csv").exists()
    assert (out / "windows.csv").exists()
    doc = json.loads((out / "episode.json").read_text())
    assert doc["config"]["horizon"] == 120
    assert "build_id" in doc
    assert "defender_utility" in capsys.readouterr().out


def test_simulate_policy_override(tmp_path, scenario_file):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", scenario_file, "--policy", "fcfs", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "episode.json").read_text())
    assert doc["policy"] == "fcfs"


def test_benchmark_table(tmp_path, scenario_file):
    out = tmp_path / "bench"
    rc = main([
        "benchmark", "--config", scenario_file, "--seeds", "0..2",
        "--policies", "fcfs,star", "--out", str(out),
    ])
    assert rc == 0
    text = (out / "benchmark.csv").read_text()
    assert "defender_utility" in text and "fcfs" in text
    doc = json.loads((out / "benchmark.json").read_text())
    assert doc["normalized_defender_utility"]["fcfs"] == pytest.approx(1.0)


@pytest.mark.parametrize("command", [
    ["benchmark", "--seeds", "0..3", "--policies", "fcfs,sp,stra"],
    ["sweep", "--param", "credibility", "--seeds", "0..3", "--policies", "star,stra"],
], ids=["benchmark", "sweep"])
def test_unknown_policy_fails_before_any_episode(tmp_path, scenario_file, monkeypatch, capsys, command):
    from satdefsim import engine

    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran before the policy list was checked")

    monkeypatch.setattr(engine, "run_episode", no_episode)
    out = tmp_path / "out"
    assert main([*command, "--config", scenario_file, "--out", str(out)]) == 2
    assert "unknown policy 'stra'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("resources", [["cpu"], ["cpu", "gpu"]])
def test_benchmark_summary_has_one_utilization_per_resource(tmp_path, capsys, resources):
    n = len(resources)
    doc = dict(SMALL_SCENARIO, resources=resources)
    doc["tasks"] = [dict(t, demand=t["demand"][:n]) for t in SMALL_SCENARIO["tasks"]]
    doc["scan"] = dict(SMALL_SCENARIO["scan"], demand=SMALL_SCENARIO["scan"]["demand"][:n])
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(path), "--seeds", "0,1", "--policies", "fcfs,star", "--out", str(out)])
    assert rc == 0
    stats = json.loads((out / "benchmark.json").read_text())["stats"]
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line, pol in zip(lines, ["fcfs", "star"]):
        want = "/".join(f"{stats[pol][f'util_{r}_pct']['mean']:.1f}" for r in resources)
        assert f" util={want}% " in line
    assert all(stats[pol][f"util_{resources[-1]}_pct"]["mean"] > 0 for pol in stats)


def test_sweep_credibility(tmp_path, scenario_file):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--config", scenario_file, "--param", "credibility",
        "--values", "0.05,0.3", "--seeds", "0,1", "--policies", "stardis",
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "sweep_credibility.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rows


@pytest.mark.parametrize("flags,message", [
    (["--values", ""], "need at least one sweep value"),
    (["--seeds", "3..2"], "need at least one seed"),
], ids=["no-values", "no-seeds"])
def test_empty_sweep_fails_before_any_episode(tmp_path, scenario_file, monkeypatch, capsys, flags, message):
    from satdefsim import engine

    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran before the sweep arguments were checked")

    monkeypatch.setattr(engine, "run_episode", no_episode)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", scenario_file, "--param", "credibility", *flags, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_persuasion_solve(tmp_path):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({
        "attack_payoff": [1.0, -1.0],
        "prior": [0.5, 0.5],
        "credibility": 0.0,
    }))
    out = tmp_path / "pers"
    rc = main(["persuasion-solve", "--game", str(game), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "persuasion_solution.json").read_text())
    assert doc["objective"] == pytest.approx(0.5, abs=1e-6)
    assert doc["credibility_cost"] == pytest.approx(0.0, abs=1e-9)
    assert doc["schema_version"] == 3
    assert doc["budget_slack"] == doc["credibility_budget"] - doc["credibility_cost"]
    assert doc["budget_slack"] >= -1e-9
    assert doc["support_size"] == len(doc["weights"]) == len(doc["posteriors"])
    assert 1 <= doc["support_size"] <= 3  # at most n_states + 1
    assert doc["lp_columns"] == 3  # the 2 vertices and the edge point (.5, .5)
    assert len(doc["pivots"]) == 2 and all(isinstance(p, int) and p >= 0 for p in doc["pivots"])
    assert "pricing_rounds" not in doc


def test_persuasion_solve_rejects_too_few_signals(tmp_path):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({"attack_payoff": [1.0, -1.0], "prior": [0.5, 0.5], "n_signals": 2}))
    assert main(["persuasion-solve", "--game", str(game), "--out", str(tmp_path / "pers")]) == 2


@pytest.mark.parametrize("field, game", [
    ("attack_payoff", {"attack_payoff": [math.nan, -1.0], "prior": [0.5, 0.5]}),
    ("prior", {"attack_payoff": [1.0, -1.0], "prior": [math.nan, 0.5]}),
    ("prior", {"attack_payoff": [1.0, -1.0], "prior": [0.6, 0.6]}),
    ("attack_payoff", {"attack_payoff": [1.0, -1.0, 0.5], "prior": [0.5, 0.5]}),
    ("attack_payoff", {"attack_payoff": [1.0], "prior": [0.5, 0.5]}),
])
def test_persuasion_solve_rejects_malformed_games(tmp_path, capsys, field, game):
    path = tmp_path / "game.yaml"
    path.write_text(yaml.safe_dump(game))
    out = tmp_path / "pers"
    assert main(["persuasion-solve", "--game", str(path), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "persuasion_solution.json").exists()


def test_persuasion_solve_rejects_zero_subdivisions(tmp_path, capsys):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({"attack_payoff": [1.0, -1.0], "prior": [0.5, 0.5]}))
    out = tmp_path / "pers"
    assert main(["persuasion-solve", "--game", str(game), "--out", str(out), "--subdivisions", "0"]) == 2
    assert "subdivisions" in capsys.readouterr().err
    assert not (out / "persuasion_solution.json").exists()


def test_persuasion_sweep_mode(tmp_path):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({"attack_payoff": [1.0, -1.0], "prior": [0.5, 0.5]}))
    out = tmp_path / "pers"
    rc = main([
        "persuasion-solve", "--game", str(game), "--out", str(out),
        "--sweep", "--sweep-points", "5", "--subdivisions", "100",
    ])
    assert rc == 0
    lines = (out / "persuasion_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    objs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))


def test_channel_validate(tmp_path):
    out = tmp_path / "chan"
    rc = main(["channel-validate", "--out", str(out), "--points", "401"])
    assert rc == 0
    lines = (out / "envelope_distribution.csv").read_text().strip().splitlines()
    assert lines[0] == "r,pdf,cdf"
    assert len(lines) == 402


def test_bad_config_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"horizon": 10}))
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_key_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.yaml"
    doc = dict(SMALL_SCENARIO)
    doc["mystery"] = 1
    bad.write_text(yaml.safe_dump(doc))
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_missing_config_file(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("points", ["0", "-1"])
def test_persuasion_sweep_rejects_too_few_points(tmp_path, capsys, points):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({"attack_payoff": [1.0, -1.0], "prior": [0.5, 0.5]}))
    out = tmp_path / "pers"
    rc = main(["persuasion-solve", "--game", str(game), "--out", str(out), "--sweep", "--sweep-points", points])
    assert rc == 2
    assert "--sweep-points must be >= 1" in capsys.readouterr().err
    assert not (out / "persuasion_sweep.csv").exists()


def test_persuasion_sweep_accepts_one_point(tmp_path):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({"attack_payoff": [1.0, -1.0], "prior": [0.5, 0.5]}))
    out = tmp_path / "pers"
    assert main(["persuasion-solve", "--game", str(game), "--out", str(out), "--sweep", "--sweep-points", "1"]) == 0
    assert len((out / "persuasion_sweep.csv").read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("flags,message", [
    (["--points", "0"], "--points must be >= 2"),
    (["--points", "1"], "--points must be >= 2"),
    (["--r-max", "0"], "--r-max must be > 0"),
    (["--r-max", "-2"], "--r-max must be > 0"),
    (["--r-max", "nan"], "--r-max must be > 0"),
])
def test_channel_validate_rejects_bad_grid(tmp_path, capsys, flags, message):
    out = tmp_path / "chan"
    assert main(["channel-validate", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "envelope_distribution.csv").exists()


@pytest.mark.parametrize("flag,field", [
    ("--b0", "b0"), ("--m", "m must"), ("--omega", "omega"), ("--threshold-db", "snr_threshold_db"),
])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_channel_validate_rejects_non_finite_parameters(tmp_path, capsys, flag, field, bad):
    out = tmp_path / "chan"
    assert main(["channel-validate", "--out", str(out), flag, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_channel_validate_accepts_two_points(tmp_path):
    out = tmp_path / "chan"
    assert main(["channel-validate", "--out", str(out), "--points", "2", "--r-max", "1.5"]) == 0
    assert len((out / "envelope_distribution.csv").read_text().strip().splitlines()) == 3

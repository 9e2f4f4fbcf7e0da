"""The deception ledger of tools/explain_deception.py, on a short run."""
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.stats import binomtest

from satdefsim.config import default_scenario, with_scenario_values
from satdefsim.engine import run_episode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import explain_deception  # noqa: E402

SEEDS = [1, 2]


@pytest.mark.parametrize("n", [1, 2, 20, 25])
def test_sign_test_equals_binomtest(n):
    for wins in range(n + 1):
        want = binomtest(wins, n, alternative="greater").pvalue
        assert explain_deception.sign_test_p(wins, n) == pytest.approx(want, rel=1e-12, abs=0)


def test_ledger_rows_equal_plain_episodes():
    cfg = default_scenario(horizon=200)
    entries = explain_deception.ledger(cfg, SEEDS)
    assert [e["name"] for e in entries] == list(explain_deception.ROWS)
    for entry, changes in zip(entries, explain_deception.ROWS.values()):
        cfg_row = with_scenario_values(cfg, changes)
        realized = {}
        for pol in explain_deception.POLICIES:
            episodes = [run_episode(cfg_row, s, pol)[0] for s in SEEDS]
            realized[pol] = np.array([m.attacker_realized for m in episodes])
            assert entry["realized"][pol] == float(np.mean(realized[pol]))
            assert entry["believed"][pol] == float(np.mean([m.attacker_believed for m in episodes]))
        wins = (int(np.sum(realized["star-static"] < realized["star"])),
                int(np.sum(realized["stardis"] < realized["star-static"])))
        assert entry["wins"] == wins
        for w, p in zip(wins, entry["p"]):
            assert p == pytest.approx(binomtest(w, len(SEEDS), alternative="greater").pvalue, rel=1e-12)


def test_main_prints_one_table_line_per_row(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(default_scenario(horizon=200).to_jsonable()))
    assert explain_deception.main(["--config", str(path), "--seeds", "1,2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 + len(explain_deception.ROWS)
    assert [line.split(" | ")[0] for line in lines[2:]] == [f"| {name}" for name in explain_deception.ROWS]

"""Smoke runs of the experiment scripts on small inputs."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_chain_experiment(tmp_path):
    out = tmp_path / "chain"
    proc = run_script("run_chain_experiment.py", "--nodes", "4", "--tmax", "5",
                      "--ndatasets", "2", "--neval", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    expected = ["truth.net", "contrast.tsv", "summary.tsv"]
    for i in range(2):
        expected += [f"dataset-{i}.obs", f"chain-toggle-{i}.tsv",
                     f"chain-norepl-{i}.tsv"]
    for name in expected:
        assert (out / name).is_file(), name
    assert len((out / "summary.tsv").read_text().splitlines()) == 1 + 2 * 2


def test_rare_event_histogram(tmp_path):
    out = tmp_path / "hist.tsv"
    proc = run_script("run_rare_event_histogram.py", "--nodes", "4", "--tmax",
                      "5", "--nssa", "50", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    # tmax 5 on the default grid of 0.1: 50 intervals plus the header
    assert len(lines) == 1 + 50
    assert lines[0].split("\t") == ["interval", "truth_ssa", "truth_tt",
                                    "guess_ssa", "guess_tt"]

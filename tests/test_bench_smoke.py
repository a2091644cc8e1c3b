"""The benchmark still imports, runs and sees every call site it traces.

The benchmark wraps module attributes by name from outside the package, so
a refactor that renames or moves one of them breaks it without any other
test noticing.  Each run takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("infer-austria9-dense", "loglik-austria9-tt", "contrast-austria9-dense")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_complete(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"correct": true' in proc.stdout
    assert "absent call sites: none" in proc.stdout
    if workload == "loglik-austria9-tt":
        # evolve_tt calls cp_apply and tt_round once per Poisson term, where
        # the trace wraps them; a fused or bypassed call site would hide the
        # tt layer from the trace without failing the run
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert metrics["forward.evolve_tt.cp_apply_per_call"]["value"] == 15
        assert metrics["tt.tt_round.busy_s"]["value"] > 0

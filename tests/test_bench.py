import json
import subprocess
import sys
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "bench" / "probe.py"


# bv_probe is left out: its traced probe alone takes about 29 s
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["density", "moment", "detector"])
def test_probe_at_seed_0_fails_nothing(workload, trace):
    # seed 0 is checked against the stored reference documents, and traced
    # rounds must repeat every count: drift in either fails an operation
    run = subprocess.run(
        [sys.executable, str(PROBE), "--workload", workload, "--seed", "0", "--budget", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    record = json.loads(run.stdout.strip().splitlines()[-1])
    assert record["attempted"] > 0
    assert (record["failed"], record["problems"]) == (0, [])

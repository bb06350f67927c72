"""The benchmark's first-round outputs stay byte-identical.

Each workload in perfbench/ prints a SHA-256 of its first round's canonical
outputs (JSON text, table entries, zero-space bases).  A changed seed-1
digest below means a changed output, which must then be declared and the
digest rewritten.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

SEED_1_DIGESTS = {
    "center_tables": "6b7313d7b6bf295c13b9b8ac4350366f29e8b7ea7b2b34d161940d546a427ac7",
    "zero_spaces": "475fe81b7b825d7667dfa1cfb9d2fa408f9aaf7cc410daff287b55366c57dfa8",
    "cli_mix": "c6004560b19aa552348151c9d21d0423fe1b7cdbd4e18ee7f3e58d3e11f32a69",
}


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_first_round_digest_is_unchanged(workload, tmp_path):
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", "1"]
    argv += ["--workdir", str(tmp_path), "--rounds", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result.get("errors")
    assert result["digest"] == SEED_1_DIGESTS[workload]

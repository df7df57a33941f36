"""The demo scripts run and print exactly the bytes they printed when recorded.

Demo 05 (the threshold experiment) takes under a second and prints the same
bytes serially and with ``HQEC_THREADS=2``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hqec

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each demo's stdout.
DEMO_STDOUT_SHA256 = {
    "01_quaternion_basics.py": "162f2e01187ba2660fcbcb502a0efe8a9b89406f364def46e8cff2f1f43836ae",
    "02_gates_and_bell.py": "23b1d73f57c40b63c3b69370689c68a6be29f1f7149d898f82b45e7d989c1424",
    "03_codes_and_syndromes.py": "6cd1b45c8598820cf10347159180faacd982fa2fb43ba6ada1ca54532c53b28b",
    "04_rotation_noise.py": "bce2dca534d6d6ea0d5cc448610559eb3f8733d165d5cecc91707672c49a301c",
    "05_threshold_experiment.py": "2e87201e83fac3c9f870e87d12b470d149f8f445930732b80be02e1355fdd9dd",
}


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_bytes(name):
    # The child interpreter imports hqec from the tree this test imported.
    src_dir = os.path.dirname(os.path.dirname(hqec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]

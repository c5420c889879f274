"""Byte-identical regeneration of the committed golden files.

The golden directory holds small CLI outputs frozen at build time; any
change in formatting, ordering, or values shows up as a diff here.  Each
case runs with and without `python -O`, which strips `assert` statements,
so no output may depend on one.
"""

import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "identity_tower_n6.json": ["tower", "--name", "identity", "--nmax", "6"],
    "jminus_tower_n6.json": ["tower", "--name", "jminus", "--nmax", "6"],
    "orbit_N1_deg3.json": ["orbit", "--N", "1", "--deg", "3"],
    "chi0_q3_z2.json": ["char", "--formula", "chi0", "--qmax", "3", "--zmax", "2"],
}


def test_golden_files_regenerate_exactly():
    for python in ([sys.executable], [sys.executable, "-O"]):
        for name, argv in CASES.items():
            want = (GOLDEN / name).read_text()
            got = subprocess.run(
                python + ["-m", "qcycle.cli"] + argv,
                capture_output=True, text=True, check=True,
            ).stdout
            assert got == want, (python, name)

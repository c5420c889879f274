"""Differential check of the printed divided raising action.

`act --family xplus2` prints its coefficients as unreduced fractions, so the
bytes depend on which cancellations the engine makes on the way.  Each
invocation below was run through the engine as it stood before binomial
denominator factors got the factor-theorem test ahead of trial division; its
exit code and the first 16 hex digits of the sha256 of its stdout were
recorded, and the current engine must reproduce both.
"""

import hashlib
import json

import pytest

from qcycle import cli, serialize
from qcycle.laurent import LaurentPoly, sym_elementary, sym_power
from qcycle.wedge import WedgeElem

INPUTS = {
    "n3l2": lambda: WedgeElem(3, 2, {
        (0, 1): sym_elementary(3, 1),
        (0, 2): sym_elementary(3, 2) + LaurentPoly.const(2),
        (1, 2): sym_power(3, -1),
    }),
    "n4l3": lambda: WedgeElem(4, 3, {
        (0, 1, 2): sym_elementary(4, 1),
        (1, 2, 3): LaurentPoly.one() - sym_power(4, -1),
    }),
}

GRID = ["act --family xplus2 %s --in %s" % (mode, name)
        for name in INPUTS for mode in ("--k 0", "--series --order 3")]

RECORDED = """
    1b120ff2b82d5e74 a1bf69130cb016b8 9f1f9ded882b4422 5ddddb2ae85ddd2d
""".split()


def test_grid_is_fully_recorded():
    assert len(GRID) == len(RECORDED) == 4


@pytest.mark.parametrize("invocation, recorded", zip(GRID, RECORDED), ids=GRID)
def test_act_output_matches_record(invocation, recorded, tmp_path, capsys):
    argv = invocation.split()
    name = argv[-1]
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(serialize.wedge_to_json(INPUTS[name]())))
    code = cli.main(argv[:-1] + [str(path)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest[:16]) == (0, recorded)

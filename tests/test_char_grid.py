"""Differential check of the char verb against recorded output.

Each invocation below was run through the engine as it stood before the
character series moved onto LaurentPoly, when they had their own
(4q, z) -> Fraction container.  Its exit code and the first 16 hex digits of
the sha256 of its stdout were recorded; the current engine must reproduce
both.  The one exception is `char --verify product --L2 3 --i 1`.  With the
fixed `--nmax 6` of that engine it summed too few lengths for its window and
exited 1 without a verdict.  Its entry is recorded from the engine that picks
the lengths itself, so every invocation exits 0.
"""

import hashlib
import json

import pytest

from qcycle import cli

# the --measured input: DIMS in an invocation stands for its path
DIMS = {"N": 2, "dims": [{"deg0": d, "weight": w, "dim": k} for d, w, k in (
    (0, 2, 1), (0, 0, 1), (0, -2, 1), (1, 0, 2), (1, 2, 1), (2, 0, 3))]}

GRID = (["char --formula chi%d --qmax %d --zmax %d" % (i, q, z)
         for i in (0, 1) for q in range(7) for z in range(4)]
        + ["char --formula demazure --L2 %d" % L2 for L2 in range(7)]
        + ["char --formula minimal --N %d --qmax %d" % (N, q) for N in range(5) for q in range(6)]
        + ["char --verify sum-identity --L2 %d" % L2 for L2 in range(5)]
        + ["char --verify product --L2 %d --i %d" % (L2, i) for L2 in range(4) for i in (0, 1)]
        + ["char --verify stabilization --i %d" % i for i in (0, 1)]
        + ["char --measured DIMS --N 2"])

RECORDED = """
    d8348bddba76bff0 d8348bddba76bff0 d8348bddba76bff0 d8348bddba76bff0
    89f90432192ab2d0 89f90432192ab2d0 9e5d082010b9e4be 9e5d082010b9e4be
    6f2f2872e1b7437d 6f2f2872e1b7437d 413716cd6c0a2a7e 413716cd6c0a2a7e
    1e79a579acbc7fc0 1e79a579acbc7fc0 aabc8bbe2ff7851b aabc8bbe2ff7851b
    b0d1ad3328077a9f b0d1ad3328077a9f e9ccc36b213534c5 e9ccc36b213534c5
    f55f3f94d394cbd3 f55f3f94d394cbd3 1aacec179c5cdb89 1aacec179c5cdb89
    b51ef7bd3d9c3cb3 b51ef7bd3d9c3cb3 ec34eced7264bc3d ec34eced7264bc3d
    71117287a49f3215 71117287a49f3215 71117287a49f3215 71117287a49f3215
    71117287a49f3215 d0d78bbb34f335da d0d78bbb34f335da d0d78bbb34f335da
    71117287a49f3215 87b3c4af02ce4590 87b3c4af02ce4590 87b3c4af02ce4590
    71117287a49f3215 64791ad53c15cc81 64791ad53c15cc81 a08686773343bfab
    71117287a49f3215 477831765ee0c82b 477831765ee0c82b b14b01368e428c50
    71117287a49f3215 0bf33512c5b7e23c 0bf33512c5b7e23c 36f13002a6e5bc83
    71117287a49f3215 6cc0ddef4f572c9b 6cc0ddef4f572c9b ab83c7d436d149a2
    45c4ddf105a046ab c4a9f6363b7adf1f 1a192a21524f438f 49e126d0365c7f8c
    010c16a7c1706e08 a2d5a68421f9a724 cb4058bb56c84268 be2acdae74838bf1
    be2acdae74838bf1 be2acdae74838bf1 be2acdae74838bf1 be2acdae74838bf1
    be2acdae74838bf1 3a2d8c5935c2f1f6 e30f9d6e1cd165dc 3b6a97c1399b1eb0
    9db9757b29271b7d 35397d4f20fef72e 827e5af7e72bc07e 57e0f7041bd426a3
    163ad79e72dfcade 6e4509f46e0065ab a5a049da3e5bbfc5 b72a1f67187bcd35
    586a704bfc70b7fa e3b9a12d6cf8b22f 80dec4a16595f0db 73a93f70e5a27c21
    a263f3552c6fb86c de2cbeb3b9886049 9ec4ac3aa7135b91 cd94c6dbe233b14b
    a474ef5d978eb81b fb9c3b5e2143e690 346bcd2ed4934ae7 825beedf01066d05
    afbbd767a10ced54 e8fb294d79372bda 614266738af4c323 32bfc9bf7ad3ec65
    e468818e0014fbda 3c250d00833f86f7 a2d3e82a9ca8a893 05d334823ab38a4c
    00e8e666cb9e39d0 b67eae9eba642dfb be717ec26253d77e cc2522c2fffc219d
    78fb2e46f7b12708 4fedf14a5707268a 9825c247a135d638 1d2f37125de6c1f7
    14494d9404ed9bda
""".split()

def test_grid_is_fully_recorded():
    assert len(GRID) == len(RECORDED) == 109


@pytest.mark.parametrize("invocation, recorded", zip(GRID, RECORDED), ids=GRID)
def test_char_output_matches_record(invocation, recorded, tmp_path, capsys):
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps(DIMS))
    code = cli.main([str(dims) if a == "DIMS" else a for a in invocation.split()])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest[:16]) == (0, recorded)

"""End-to-end command line checks through subprocess."""

import json
import os
import subprocess
import sys

import pytest


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qcycle.cli"] + list(argv),
        capture_output=True, text=True, env=env,
    )


def _element(coeff="1", exps=(), drop_elem=(), drop_poly=()):
    """JSON for coeff * z1^exps on X^0, shape (1, 1), minus the named fields
    of the element (`drop_elem`) and of its coefficient (`drop_poly`)."""
    poly = {"vars": ["z1"][:len(exps)], "laurent": [True][:len(exps)],
            "terms": [{"exps": list(exps), "coeff": coeff}]}
    elem = {"n": 1, "l": 1, "terms": [{"subset": [0], "coeff": poly}]}
    for key in drop_elem:
        del elem[key]
    for key in drop_poly:
        del poly[key]
    return elem


def test_tower_and_link_check_pipeline(tmp_path):
    tower_path = tmp_path / "tower.json"
    r = run_cli("tower", "--name", "identity", "--nmax", "6", "--out", str(tower_path))
    assert r.returncode == 0, r.stderr
    obj = json.loads(tower_path.read_text())
    assert obj["weight"] == 0
    comps = {item["n"]: item["elem"] for item in obj["components"]}

    low = tmp_path / "low.json"
    high = tmp_path / "high.json"
    low.write_text(json.dumps(comps[2]))
    high.write_text(json.dumps(comps[4]))
    r = run_cli("link-check", "--low", str(low), "--high", str(high))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["linked"] is True

    # mismatched pair must fail with exit code 1
    r = run_cli("link-check", "--low", str(high).replace("high", "high"),
                "--high", str(high))
    assert r.returncode == 3  # shape mismatch


def test_act_and_minimal_check(tmp_path):
    tower_path = tmp_path / "tower.json"
    run_cli("tower", "--name", "identity", "--nmax", "4", "--out", str(tower_path))
    obj = json.loads(tower_path.read_text())
    comp2 = [item for item in obj["components"] if item["n"] == 2][0]["elem"]
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps(comp2))

    r = run_cli("act", "--family", "xminus", "--k", "1", "--in", str(elem))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["n"] == 2 and out["l"] == 2

    r = run_cli("minimal-check", "--in", str(elem))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["weakly_minimal"] is True
    assert report["minimal"] is False
    r = run_cli("minimal-check", "--in", str(elem), "--require", "minimal")
    assert r.returncode == 1


def test_tower_act_word(tmp_path):
    tower_path = tmp_path / "tower.json"
    run_cli("tower", "--name", "identity", "--nmax", "6", "--out", str(tower_path))
    r = run_cli("tower-act", "--word", "x+1", "--in", str(tower_path))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["weight"] == 2


def test_orbit_and_measured_char(tmp_path):
    dims_path = tmp_path / "dims.json"
    r = run_cli("orbit", "--N", "1", "--deg", "3", "--out", str(dims_path))
    assert r.returncode == 0, r.stderr
    dims = json.loads(dims_path.read_text())
    assert {"deg0": 0, "weight": 1, "dim": 1} in dims["dims"]

    r = run_cli("char", "--measured", str(dims_path), "--N", "1")
    assert r.returncode == 0
    table = json.loads(r.stdout)["table"]
    assert ["1/4", 1, "1"] in [list(row) for row in table]


def test_char_identities():
    r = run_cli("char", "--verify", "sum-identity", "--L2", "2")
    assert r.returncode == 0, r.stderr
    r = run_cli("char", "--verify", "product", "--L2", "1", "--i", "1")
    assert r.returncode == 0, r.stderr
    r = run_cli("char", "--formula", "chi0", "--qmax", "3")
    assert r.returncode == 0


def test_act_series_output(tmp_path):
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({
        "n": 1, "l": 1,
        "terms": [{"subset": [0], "coeff": {
            "vars": [], "laurent": [], "terms": [{"exps": [], "coeff": "1"}]}}],
    }))
    r = run_cli("act", "--family", "xplus", "--series", "--order", "2",
                "--in", str(elem))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["family"] == "xplus"
    powers = [row["t_power"] for row in out["coefficients"]]
    assert powers == sorted(powers) and 0 in powers and 2 in powers


def test_act_series_honours_low_order(tmp_path):
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({
        "n": 1, "l": 1,
        "terms": [{"subset": [0], "coeff": {
            "vars": [], "laurent": [], "terms": [{"exps": [], "coeff": "1"}]}}],
    }))
    r = run_cli("act", "--family", "xplus", "--series", "--order", "1",
                "--in", str(elem))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["order"] == 1
    powers = [row["t_power"] for row in out["coefficients"]]
    assert powers == [0, 1]


def test_tower_act_on_unlinked_tower(tmp_path):
    tower_path = tmp_path / "tz.json"
    r = run_cli("tower", "--name", "Tz", "--nmax", "4", "--out", str(tower_path))
    assert r.returncode == 0, r.stderr
    r = run_cli("tower-act", "--word", "x+1", "--in", str(tower_path))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr


def test_accept_rejects_unknown_suite():
    r = run_cli("accept", "--suite", "bogus")
    assert r.returncode == 2


def test_oracle_verb():
    r = run_cli("oracle", "--family", "xminus", "--n", "2", "--l", "0",
                "--samples", "2", "--order", "2", "--seed", "5")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["passed"] and rep["scalar"] == "1"


def test_null_and_mod_null(tmp_path):
    r = run_cli("null", "--n", "2", "--l", "1")
    assert r.returncode == 0
    gens = json.loads(r.stdout)["generators"]
    assert len(gens) == 1

    gen = tmp_path / "g.json"
    gen.write_text(json.dumps(gens[0]))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 2, "l": 1, "terms": []}))
    r = run_cli("mod-null", "--in", str(gen), "--target", str(zero))
    assert r.returncode == 0
    assert json.loads(r.stdout)["equal_mod_null"] is True


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("act", "--family", "xminus", "--k", "1", "--in", str(bad))
    assert r.returncode == 2


@pytest.mark.parametrize("elem", [
    _element(drop_elem=["terms"]),
    _element(drop_poly=["terms"]),
    _element(drop_poly=["vars"]),
    _element(drop_elem=["n"]),
    _element(drop_elem=["l"]),
    _element(coeff="1/0"),
    _element(exps=[1.5]),
    _element(exps=["1"]),
], ids=["no-terms", "no-poly-terms", "no-vars", "no-n", "no-l", "coeff-1/0",
        "float-exponent", "string-exponent"])
def test_malformed_element_exits_2(tmp_path, elem):
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(elem))
    r = run_cli("act", "--family", "xminus", "--k", "1", "--in", str(path))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["act", "--family", "bogus", "--k", "1", "--in", "ELEM"],
    ["oracle", "--family", "t1", "--n", "2"],
    ["oracle", "--family", "bogus", "--n", "2"],
    ["orbit", "--N", "-1", "--deg", "2"],
    ["orbit", "--N", "1", "--deg", "-1"],
    ["act", "--family", "t1", "--series", "--in", "ELEM"],
    ["act", "--family", "aplus", "--k", "0", "--in", "ELEM"],
    ["act", "--family", "xminus", "--series", "--order", "-1", "--in", "ELEM"],
    ["oracle", "--family", "xminus", "--n", "2", "--l", "1", "--samples", "-1"],
    ["oracle", "--family", "xminus", "--n", "2", "--l", "1", "--samples", "0"],
    ["oracle", "--family", "xminus", "--n", "2", "--order", "-1"],
    ["char", "--formula", "chi0", "--qmax", "-1"],
    ["char", "--formula", "chi0", "--zmax", "-1"],
    ["char", "--formula", "minimal", "--N", "-1"],
    ["char", "--verify", "sum-identity", "--L2", "-1"],
    ["char", "--verify", "product", "--L2", "1", "--i", "2"],
    ["char", "--verify", "product", "--depth", "-1"],
    ["char", "--verify", "stabilization", "--i", "3"],
    ["oracle", "--family", "xminus", "--n", "-1"],
    ["oracle", "--family", "xminus", "--n", "0"],
    ["oracle", "--family", "xminus", "--n", "2", "--l", "5", "--samples", "1"],
    ["oracle", "--family", "xminus", "--n", "2", "--l", "-1"],
    ["oracle", "--family", "xplus", "--n", "2", "--l", "0", "--samples", "1"],
    ["null", "--n", "-1", "--l", "0"],
    ["null", "--n", "2", "--l", "5"],
    ["null", "--n", "2", "--l", "-1"],
    ["tower", "--name", "identity", "--nmax", "-1"],
    ["tower", "--name", "distinguished", "--weight", "-1"],
], ids=["act-family", "oracle-t1", "oracle-family", "orbit-N", "orbit-deg",
        "act-series-t1", "act-aplus-k0", "act-order-negative", "oracle-samples-negative",
        "oracle-samples-zero", "oracle-order-negative", "char-qmax-negative",
        "char-zmax-negative", "char-N-negative", "char-L2-negative", "char-product-i2",
        "char-depth-negative", "char-stabilization-i3", "oracle-n-negative", "oracle-n0-no-degree",
        "oracle-l-above-n", "oracle-l-negative", "oracle-l-not-applicable", "null-n-negative",
        "null-l-above-n", "null-l-negative", "tower-nmax-negative", "tower-weight-negative"])
def test_bad_arguments_exit_2(tmp_path, argv):
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(_element()))
    r = run_cli(*[str(path) if a == "ELEM" else a for a in argv])
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("dims", [
    {"x": 1},
    {"dims": [{"deg0": 0, "weight": 1}]},
    {"dims": [{"deg0": 0, "weight": 1, "dim": "1"}]},
], ids=["no-dims", "row-without-dim", "string-dim"])
def test_malformed_dims_exits_2(tmp_path, dims):
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(dims))
    r = run_cli("char", "--measured", str(path), "--N", "1")
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


def test_output_ignores_hash_seed(tmp_path):
    tower_path = tmp_path / "tower.json"
    r = run_cli("tower", "--name", "identity", "--nmax", "6", "--out", str(tower_path))
    assert r.returncode == 0, r.stderr
    for argv in (["tower-act", "--word", "a2 a-1", "--in", str(tower_path)],
                 ["oracle", "--family", "aminus", "--n", "3", "--samples", "1"]):
        outs = []
        for seed in ("1", "2"):
            r = run_cli(*argv, env=dict(os.environ, PYTHONHASHSEED=seed))
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1], argv


def test_determinism_of_tower_output(tmp_path):
    a = run_cli("tower", "--name", "jminus", "--nmax", "6")
    b = run_cli("tower", "--name", "jminus", "--nmax", "6")
    assert a.stdout == b.stdout and a.returncode == 0

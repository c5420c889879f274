"""Checks over the qcycle source text."""

import ast
import importlib
import importlib.util
import pathlib

import qcycle


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # python -O strips assert, so invariants must raise explicitly, and a
    # math invariant raises ArithmeticError rather than an AssertionError
    root = pathlib.Path(qcycle.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and node.exc is not None
                  and _raises_assertion_error(node)]
    assert found == []


# Verification helpers that no verb or criterion calls but that stay as
# public checks of the paper's identities, and qpoch_finite, the test
# reference for inv_qpoch_finite.
_KEEP_UNREFERENCED = {
    "relation_spotcheck", "sigma_phi_forms", "sigma_block_injective", "t_eigenvalue",
    "check_g_identities", "alpha_map", "qpoch_finite",
}


def _referenced_names(node) -> set:
    """Identifiers used under node, and string constants (qbench traces by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_no_unreferenced_functions():
    # every top-level function and class is used in src/qcycle outside its
    # own definition, or by the benchmark in qbench/
    root = pathlib.Path(qcycle.__file__).parent
    bench = pathlib.Path(__file__).resolve().parents[1] / "qbench"
    used = set()
    for path in sorted(bench.glob("*.py")):
        used |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    defined = []
    for path in sorted(root.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _referenced_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, stmt.name))
                # a definition's own body does not count as a use of its name
                names.discard(stmt.name)
            used |= names
    unused = ["%s:%s" % d for d in defined if d[1] not in used and d[1] not in _KEEP_UNREFERENCED]
    assert unused == []


def test_no_floats():
    # an exact engine computes with no floats: no float literal (so no
    # `** 0.5`), no float() and no sqrt.  The exceptions are the
    # `rng.random() < p` thresholds of sampling.py and acceptance.py, which
    # fix the shape of each random draw.
    root = pathlib.Path(qcycle.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines), filename=str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                    and not (path.name in ("sampling.py", "acceptance.py")
                             and "rng.random() < " in lines[node.lineno - 1])
                    or getattr(func, "id", getattr(func, "attr", None)) in ("float", "sqrt")):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


# caches the benchmark tracer still lists after their code was deleted
_KNOWN_ABSENT_CACHES = {"_DET_CACHE"}


def test_traced_names_resolve():
    # the benchmark tracer wraps layers and reads caches by name, and drops a
    # layer or a cache silently when a name no longer resolves
    path = pathlib.Path(__file__).resolve().parents[1] / "qbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("qbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for layer, targets in tracing.LAYERS.items():
        for modname, qual in targets:
            owner = importlib.import_module("qcycle." + modname)
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                unresolved.append("%s: %s.%s" % (layer, modname, qual))
    assert unresolved == []
    absent = {name for name, modname in tracing.CACHES.items()
              if not isinstance(getattr(importlib.import_module("qcycle." + modname), name, None),
                                dict)}
    assert absent == _KNOWN_ABSENT_CACHES

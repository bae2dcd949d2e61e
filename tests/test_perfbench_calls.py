"""The benchmark's calls into ``iflt`` still resolve.

``perfbench/workloads.py`` and ``perfbench/harness.py`` reach ``iflt`` through
module attributes (``iflt.fit``, ``bench.nodes_for``, ``cli.cli_main``) and
build configs with ``replace(bench.ExperimentConfig(), ...)``. A rename in
``src/`` that misses one of them passes every other test and ends a benchmark
run as ``run_failed``. The files are parsed with ``ast``, not run or edited.
"""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

import pytest

import iflt
from iflt import bench, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("workloads.py", "harness.py")
MODULES = {"iflt": iflt, "bench": bench, "cli": cli}


def _tree(path):
    return ast.parse(path.read_text(), filename=path.name)


def _chains(tree) -> set[tuple[str, ...]]:
    """Every dotted name in ``tree`` whose root is one of ``MODULES``."""
    out = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in MODULES:
            out.add((node.id, *reversed(chain)))
    return out


def _unresolved(tree) -> list[str]:
    """The names ``tree`` reads from ``iflt`` (dotted or imported) that do not exist."""
    out = []
    for root, *attrs in _chains(tree):
        obj = MODULES[root]
        for attr in attrs:
            if not hasattr(obj, attr):
                out.append(".".join((root, *attrs)))
                break
            obj = getattr(obj, attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("iflt"):
            module = importlib.import_module(node.module)
            out += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    return out


@pytest.mark.parametrize("name", FILES)
def test_every_iflt_attribute_the_benchmark_reads_resolves(name):
    tree = _tree(PERFBENCH / name)
    assert _chains(tree), "no call into iflt found"
    assert _unresolved(tree) == []


def test_every_config_field_the_benchmark_replaces_exists():
    known = {f.name for f in fields(bench.ExperimentConfig)}
    keywords = [kw.arg for name in FILES for node in ast.walk(_tree(PERFBENCH / name))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "replace" for kw in node.keywords]
    assert {"seed", "n_signals", "include_baselines"} <= set(keywords)
    assert set(keywords) <= known, sorted(set(keywords) - known)


def test_no_benchmark_file_reads_a_name_iflt_lacks():
    # the error bound takes its constants as a dict: no file under perfbench/
    # needs the dataclass that used to carry them, nor any other removed name
    for path in PERFBENCH.rglob("*.py"):
        assert _unresolved(_tree(path)) == [], path.name

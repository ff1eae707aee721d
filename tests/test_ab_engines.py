"""tools/ab_engines.py: the interleaved in-process engine A/B."""

import importlib.util
import io
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "ab_engines", os.path.join(ROOT, "tools", "ab_engines.py"))
ab_engines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_engines)


def test_working_tree_against_itself():
    tree = ab_engines.Tree("repro", seed=1)
    out = io.StringIO()
    totals = ab_engines.compare(tree, tree, rounds=1, engines=["simple"],
                                programs=["LLL1"], out=out)
    assert set(totals) == {"simple"}
    parent_s, change_s = totals["simple"]
    assert parent_s > 0 and change_s > 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("round 1: parent ")
    assert lines[1].split() == ["simple", f"{parent_s / change_s:.3f}x"]


def test_the_grid_is_the_zoo_grid():
    tree = ab_engines.Tree("repro", seed=1)
    assert ab_engines.WINDOWS == (12, 50)
    assert len(tree.programs) == 16
    assert "gen-alias" in tree.programs and "gen-branchy" in tree.programs


def test_differing_results_stop_the_comparison():
    tree = ab_engines.Tree("repro", seed=1)
    other = ab_engines.Tree("repro", seed=2)
    # Seed 2 generates other programs under the same role names.
    with pytest.raises(SystemExit, match="results differ"):
        ab_engines.compare(tree, other, rounds=1, engines=["simple"],
                           programs=["gen-alias"], out=io.StringIO())

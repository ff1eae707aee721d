"""Reproduction-shape tests: the paper's qualitative claims must hold.

These run the actual Tables 1-6 machinery (on the default-size loops, a
reduced size grid) and assert the properties the paper's evaluation
rests on.  EXPERIMENTS.md records the full-grid numbers.
"""

import pytest

from repro.analysis import (
    monotonic_fraction,
    ordering_holds,
    paper_data,
    run_suite,
    saturation_size,
    spearman,
    sweep_sizes,
)
from repro.machine import MachineConfig

SIZES = [3, 6, 10, 20, 50]
RSTU_SIZES = [3, 6, 10, 20, 30]


@pytest.fixture(scope="module")
def baseline(livermore_loops):
    return run_suite("simple", livermore_loops)


@pytest.fixture(scope="module")
def curves(livermore_loops, baseline):
    out = {}
    for name, sizes in [
        ("rstu", RSTU_SIZES),
        ("ruu-bypass", SIZES),
        ("ruu-nobypass", SIZES),
        ("ruu-limited", SIZES),
    ]:
        sweep = sweep_sizes(name, sizes, workloads=livermore_loops,
                            baseline=baseline)
        out[name] = sweep.speedups()
    out["rstu-2path"] = sweep_sizes(
        "rstu", RSTU_SIZES, workloads=livermore_loops, baseline=baseline,
        dispatch_paths=2,
    ).speedups()
    return out


class TestBaseline:
    def test_issue_rate_well_below_one(self, baseline):
        """Table 1's point: dependencies keep the simple machine far
        from the theoretical limit of 1 instruction/cycle."""
        assert 0.15 < baseline.issue_rate < 0.6

    def test_dominant_stall_is_data_dependencies(self, baseline):
        from repro.machine import StallReason
        stalls = baseline.stalls
        assert stalls[StallReason.SOURCE_BUSY] > stalls[
            StallReason.BRANCH_DEAD
        ]


class TestTable2Shape:
    def test_monotone(self, curves):
        assert monotonic_fraction(curves["rstu"], tolerance=0.02) == 1.0

    def test_saturates(self, curves):
        # The paper's RSTU is within 5% of its peak by 15 entries on a
        # 3..30 grid; ours must saturate in the same region.
        assert saturation_size(curves["rstu"], threshold=0.9) <= 15

    def test_meaningful_speedup(self, curves):
        assert curves["rstu"][20] > 1.5

    def test_small_window_near_baseline(self, curves):
        # Paper: RSTU with 3 entries is ~0.97 (slightly *below* 1).
        assert curves["rstu"][3] < 1.35

    def test_rank_correlation_with_paper(self, curves):
        paper = {s: v[0] for s, v in paper_data.TABLE2_RSTU.items()}
        assert spearman(curves["rstu"], paper) > 0.95


class TestTable3Shape:
    def test_second_dispatch_path_helps_little(self, curves):
        """The paper's reservoir argument: issue fills at 1/cycle, so a
        second drain path gains only a few percent."""
        for size in RSTU_SIZES:
            one = curves["rstu"][size]
            two = curves["rstu-2path"][size]
            assert two >= one - 0.02
            assert two <= one * 1.10


class TestTables456Shape:
    @pytest.mark.parametrize("name", ["ruu-bypass", "ruu-nobypass",
                                      "ruu-limited"])
    def test_monotone(self, curves, name):
        assert monotonic_fraction(curves[name], tolerance=0.02) == 1.0

    def test_bypass_ordering_at_large_size(self, curves):
        """Paper ordering at size 50: full > limited > none."""
        assert ordering_holds(
            curves,
            ["ruu-bypass", "ruu-limited", "ruu-nobypass"],
            at_size=50,
        )

    def test_nobypass_clearly_worse(self, curves):
        assert curves["ruu-nobypass"][50] < 0.9 * curves["ruu-bypass"][50]

    def test_limited_recovers_much_of_the_gap(self, curves):
        full = curves["ruu-bypass"][50]
        none = curves["ruu-nobypass"][50]
        limited = curves["ruu-limited"][50]
        assert limited > none + 0.3 * (full - none)

    def test_ruu_approaches_rstu(self, curves):
        """Paper: RUU-with-bypass at 50 reaches ~98% of the RSTU's
        saturated speedup while also giving precise interrupts."""
        assert curves["ruu-bypass"][50] >= 0.80 * curves["rstu"][30]

    def test_ruu_below_rstu_at_small_sizes(self, curves):
        """Entries held until commit make small RUUs weaker than small
        RSTUs (paper: 0.853 vs 0.965 at 3 entries)."""
        assert curves["ruu-bypass"][3] <= curves["rstu"][3] + 0.02

    @pytest.mark.parametrize("name", ["ruu-bypass", "ruu-nobypass",
                                      "ruu-limited"])
    def test_rank_correlation_with_paper(self, curves, name):
        table = {
            "ruu-bypass": paper_data.TABLE4_RUU_BYPASS,
            "ruu-nobypass": paper_data.TABLE5_RUU_NOBYPASS,
            "ruu-limited": paper_data.TABLE6_RUU_LIMITED,
        }[name]
        paper = {s: v[0] for s, v in table.items() if s in curves[name]}
        assert spearman(curves[name], paper) > 0.95


class TestSpeculationExtension:
    def test_speculative_ruu_at_least_as_fast(self, livermore_loops,
                                              baseline):
        config = MachineConfig(window_size=20)
        plain = run_suite("ruu-bypass", livermore_loops,
                          config)
        spec = run_suite("spec-ruu", livermore_loops,
                         config)
        assert spec.cycles <= plain.cycles * 1.02

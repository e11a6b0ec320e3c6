"""Per-layer microbench: conventional within-state area recovery alone.

The datapath is fixed: the pipelined ``rows=8`` IDCT point with the most
downgrades (the conventional flow's D8, the first of the Table-4 points to
reach the maximum), bound without recovery.  Every round times
``recover_area`` on a freshly built copy, so rounds never see each other's
downgrades; the result must match the full-recompute specification
``recover_area_reference`` in downgrade count and final area.
"""

from repro.flows import conventional_flow, idct_design_points
from repro.rtl.area_recovery import recover_area, recover_area_reference
from repro.workloads.factories import IDCTPointFactory

ROWS = 8
POINT = next(p for p in idct_design_points() if p.name == "D8")


def _unrecovered_datapath(library):
    design = IDCTPointFactory(rows=ROWS)(POINT)
    return conventional_flow(design, library, clock_period=POINT.clock_period,
                             pipeline_ii=POINT.pipeline_ii,
                             scheduling="pipeline",
                             area_recovery=False).datapath


def test_recover_area_pipelined_idct(benchmark, library):
    expected = recover_area_reference(_unrecovered_datapath(library))

    def fresh():
        return (_unrecovered_datapath(library),), {}

    result = benchmark.pedantic(recover_area, setup=fresh, rounds=5,
                                iterations=1)
    assert expected.downgrades > 0
    assert result.downgrades == expected.downgrades
    assert result.area_after == expected.area_after
    benchmark.extra_info["downgrades"] = result.downgrades
    print()
    print(f"recover_area on pipelined IDCT rows={ROWS} {POINT.name}: "
          f"{result.downgrades} downgrades, area "
          f"{result.area_before:.1f} -> {result.area_after:.1f}")

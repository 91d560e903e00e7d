"""The benchmark's collective-scan and ladder-campaign workloads against their recorded outputs.

Each test runs the workload's seed-0 inputs through ``perfbench/workloads.py``
and holds every recorded column to ``perfbench/reference/``.  The validate
workload's traces and verdicts are held in ``test_acceptance.py``, which has
already computed them.
"""

import qfel
import qfel.cli
from recorded import assert_matches_reference, bench_module


def test_collective_scan_matches_the_recorded_reference(tmp_path):
    # The four seed-0 N = 1000 collective-scan traces, and N2000_dicke_only,
    # whose eigenbasis GEMM is cut to its support panels on both edges, with
    # all seven recorded columns: the trace, its closed form and both peaks.
    workloads = bench_module("workloads")
    specs = [
        s for s in workloads.scan_inputs(workloads.NOMINAL_SEED)
        if s["electrons"] == 1000 or s["name"] == "N2000_dicke_only"
    ]
    assert len(specs) == 5
    result = workloads.scan_pass(qfel, specs, tmp_path)
    assert [op.error for op in result.ops] == [None] * len(specs)
    reference, _ = bench_module("check").load_reference("collective-scan")
    for spec in specs:
        assert_matches_reference(spec["name"], result.tables[spec["name"]], reference[spec["name"]])


def test_ladder_campaign_matches_the_recorded_reference(tmp_path):
    # fig2 and fig4 at three couplings and the three sweeps, through the CLI,
    # judged by the benchmark's own checker: every CSV column within its bar
    # of the reference, every sweep row filled and free of error text.
    workloads, check = bench_module("workloads"), bench_module("check")
    result = workloads.campaign_pass(qfel, workloads.campaign_inputs(workloads.NOMINAL_SEED), tmp_path)
    failures, _ = check.check_pass(result, check.load_reference("ladder-campaign"))
    assert failures == []

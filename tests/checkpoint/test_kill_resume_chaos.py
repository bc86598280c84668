"""Chaos across the restore boundary: kill, resume, then check invariants.

``run_kill_resume_chaos`` runs a faulted experiment (crashes, partitions,
lossy links) to completion as a control, reruns it with checkpointing +
pruning, kills it at a checkpoint boundary, resumes, and then demands
(a) the resumed fleet's snapshot is byte-identical to the control's and
(b) the five chaos invariants plus liveness hold on the resumed fleet.
"""

import pytest

from repro.chaos import run_kill_resume_chaos
from tests.integration.test_chaos import reports_sha256

#: sha256 of each run's report (``reports_sha256`` of a one-report list).
REPORT_SHA256 = {
    (7, False): "fcf3bcc92fd15736dfee9f10a7a888697a5a4863a625800891f722162b680a6e",
    (11, True): "9ab0b1e87c6a2fd738b733fdebf2dd72207ef4fc33b87d91f7337ef205367422",
}


@pytest.mark.parametrize(
    "seed,fabric_plus_plus", [(7, False), (11, True)]
)
def test_kill_resume_chaos_passes(seed, fabric_plus_plus):
    report = run_kill_resume_chaos(seed, fabric_plus_plus=fabric_plus_plus)
    assert reports_sha256([report]) == REPORT_SHA256[seed, fabric_plus_plus]
    assert report.passed, report.details
    assert all(report.invariants.values())
    assert report.liveness and report.converged
    assert any("resumed" in fault for fault in report.faults)

"""Strategy-differential fuzzing: alt-strategy compiles vs the oracle.

``check_case(strategy=...)`` recompiles every generated module under
the requested strategy and holds it to the same bar as the reference
compile — verifier-clean and interpreter-exact — plus a fingerprint
separation check.  These tests run a small slice of what the CI fuzz
shard runs at scale.
"""

import pytest

from repro.fuzz import FuzzFailure, check_case, run_fuzz


class TestStrategyOracle:
    @pytest.mark.parametrize("strategy", ["smem-spill"])
    def test_clean_cases(self, strategy):
        failures, checked = check_case(3, "branchy", strategy=strategy)
        assert failures == []
        # The alt compile's versions were actually checked, on top of
        # the reference compile's.
        assert checked > 0

    def test_run_fuzz_smem_spill_slice(self):
        report = run_fuzz(seed=0, cases=4, strategy="smem-spill")
        assert report.ok
        assert report.strategy == "smem-spill"
        assert report.versions_checked > 0

    def test_default_report_unchanged(self):
        report = run_fuzz(seed=0, cases=2)
        assert report.ok
        assert report.strategy == "local-spill"


class TestFailureRepro:
    def test_repro_line_names_the_strategy(self):
        failure = FuzzFailure(
            seed=7, shape="branchy", kind="diff", detail="x", strategy="smem-spill"
        )
        assert "--strategy smem-spill" in failure.repro

    def test_default_repro_line_unchanged(self):
        failure = FuzzFailure(seed=7, shape="branchy", kind="diff", detail="x")
        assert "--strategy" not in failure.repro

"""Tests for the NVM log, recovery from it, and the checkers."""

import pytest

from repro.core.replica import ZERO_VERSION
from repro.faults.validate import (
    check_completed_writes_recovered,
    check_monotonic_reads,
    check_read_values_recovered,
    check_scope_atomicity,
)
from repro.recovery.log import NvmLog
from repro.recovery.recovery import recover_latest

NODES = [0, 1, 2]


@pytest.fixture
def log():
    return NvmLog(NODES)


class TestNvmLog:
    def test_record_and_read_back(self, log):
        log.record(0, key=1, version=(1, 0), value="a")
        entry = log.durable_entry(0, 1)
        assert entry.value == "a"
        assert log.durable_entry(1, 1) is None

    def test_newer_version_wins(self, log):
        log.record(0, 1, (2, 0), "new")
        log.record(0, 1, (1, 0), "old-late-arrival")
        assert log.durable_entry(0, 1).value == "new"

    def test_scope_entries_staged_until_commit(self, log):
        log.record(0, 1, (1, 0), "scoped", scope_id=9)
        assert log.durable_entry(0, 1) is None       # partial scope
        log.commit_scope(0, 9)
        assert log.durable_entry(0, 1).value == "scoped"
        assert log.is_scope_committed(0, 9)

    def test_uncommitted_scope_does_not_clobber_older_commit(self, log):
        log.record(0, 1, (1, 0), "committed")
        log.record(0, 1, (2, 0), "partial", scope_id=5)
        # Crash before scope 5 commits: the old committed value survives.
        assert log.durable_entry(0, 1).value == "committed"

    def test_durable_keys(self, log):
        log.record(0, 1, (1, 0), "a")
        log.record(0, 2, (1, 0), "b", scope_id=3)
        assert log.durable_keys(0) == [1]

    def test_durable_version_default(self, log):
        assert log.durable_version(0, 99) == ZERO_VERSION


class TestRecovery:
    def test_latest_takes_max_across_nodes(self, log):
        log.record(0, 1, (1, 0), "old")
        log.record(1, 1, (2, 0), "new")
        recovered = recover_latest(log, NODES)
        assert recovered.value_of(1) == "new"
        assert recovered.version_of(1) == (2, 0)

    def test_latest_empty_log(self, log):
        recovered = recover_latest(log, NODES)
        assert len(recovered) == 0
        assert recovered.version_of(5) == ZERO_VERSION


class TestCheckers:
    def test_completed_writes_recovered_pass(self, log):
        log.record(0, 1, (3, 0), "v")
        recovered = recover_latest(log, NODES)
        result = check_completed_writes_recovered(recovered, [(1, (3, 0))])
        assert result.ok

    def test_completed_writes_recovered_fail(self, log):
        log.record(0, 1, (1, 0), "v")
        recovered = recover_latest(log, NODES)
        result = check_completed_writes_recovered(recovered, [(1, (5, 0))])
        assert not result.ok
        assert "lost" in result.details[0]["detail"]

    def test_read_values_recovered_ignores_initial_reads(self, log):
        recovered = recover_latest(log, NODES)
        result = check_read_values_recovered(recovered, [(1, ZERO_VERSION)])
        assert result.ok and result.vacuous

    def test_read_values_recovered_fail(self, log):
        recovered = recover_latest(log, NODES)
        result = check_read_values_recovered(recovered, [(1, (2, 0))])
        assert not result.ok
        assert result.details[0]["rule"] == "lost-read-value"

    def test_scope_atomicity_committed_complete(self, log):
        log.record(0, 1, (1, 0), "a", scope_id=7)
        log.record(0, 2, (1, 0), "b", scope_id=7)
        log.commit_scope(0, 7)
        result = check_scope_atomicity(
            log, [0], {7: [(1, (1, 0)), (2, (1, 0))]})
        assert result.ok and result.checked == 1

    def test_scope_atomicity_partial_discarded(self, log):
        log.record(0, 1, (1, 0), "a", scope_id=7)
        # Crash before commit: scope is simply not recoverable — that is
        # legal (all-or-nothing), so the checker passes.
        result = check_scope_atomicity(
            log, [0], {7: [(1, (1, 0)), (2, (1, 0))]})
        assert result.ok and result.vacuous
        assert log.durable_entry(0, 1) is None

    def test_monotonic_reads_pass(self):
        result = check_monotonic_reads([[(1, (1, 0)), (1, (2, 0)), (2, (1, 0))]])
        assert result.ok and result.checked == 3

    def test_monotonic_reads_fail(self):
        result = check_monotonic_reads([[(1, (2, 0)), (1, (1, 0))]])
        assert not result.ok
        assert result.details[0]["rule"] == "monotonic-reads"

    def test_monotonic_reads_restart_with_each_session(self):
        result = check_monotonic_reads([[(1, (2, 0))], [(1, (1, 0))]])
        assert result.ok and result.checked == 2

"""History recorder and ``repro.history/1`` serialization."""

import dataclasses
import json

import pytest

import repro.obs.history as history_module
from repro.obs.history import (HISTORY_SCHEMA, History, HistoryOpRecord,
                               HistoryRecorder, load_history,
                               write_history)


class _FakeSim:
    def __init__(self):
        self.now = 0.0


def _recorder():
    rec = HistoryRecorder()
    rec.sim = _FakeSim()
    return rec


class TestRecorder:
    def test_invoke_complete_round(self):
        rec = _recorder()
        rec.invoke(client=3, node=1, op="write", key=5, value=42)
        rec.sim.now = 1500.0
        rec.complete(3, version=(7, 1))
        (op,) = rec.ops
        assert op.op == "write" and op.key == 5 and op.version == (7, 1)
        assert op.invoke_us == 0.0 and op.respond_us == 1.5
        assert op.ok and not op.pending

    def test_run_end_leaves_op_pending(self):
        rec = _recorder()
        rec.invoke(client=3, node=1, op="read", key=5)
        rec.finalize()
        (op,) = rec.ops
        assert op.pending and op.respond_us is None and not op.severed

    def test_severed_op_flagged(self):
        rec = _recorder()
        rec.invoke(client=3, node=1, op="write", key=5, value=1)
        rec.sever(3)
        (op,) = rec.ops
        assert op.severed and op.pending
        assert rec.severed_ops == 1

    def test_failed_op_marked_not_ok(self):
        rec = _recorder()
        rec.invoke(client=3, node=1, op="read", key=5, txn_id=9)
        rec.fail(3)
        (op,) = rec.ops
        assert not op.ok and op.respond_us is not None

    def test_txn_outcome_stamped_retroactively(self):
        rec = _recorder()
        rec.invoke(client=3, node=1, op="write", key=5, txn_id=9)
        rec.complete(3, version=(1, 1))
        rec.invoke(client=3, node=1, op="write", key=6, txn_id=9)
        rec.complete(3, version=(1, 1))
        rec.set_txn_outcome(9, committed=False)
        assert [op.committed for op in rec.ops] == [False, False]

    def test_restart_opens_a_new_session(self):
        rec = _recorder()
        rec.invoke(client=3, node=1, op="write", key=5)
        rec.complete(3, version=(1, 1))
        rec.restart_session(3)
        rec.invoke(client=3, node=1, op="read", key=5)
        rec.complete(3, version=(1, 1))
        assert [op.session for op in rec.ops] == [0, 1]

    def test_bound_drops_and_truncates(self, monkeypatch):
        monkeypatch.setattr(history_module, "MAX_OPS", 2)
        rec = _recorder()
        for i in range(4):
            rec.invoke(client=i, node=0, op="read", key=i)
            rec.complete(i, version=(1, 0))
        assert len(rec.ops) == 2
        assert rec.dropped == 2
        assert rec.truncated
        assert rec.history().truncated


class TestSerialization:
    def _sample(self):
        ops = [
            HistoryOpRecord(index=0, client=1, session=0, node=0,
                            op="write", key=5, value=42, invoke_us=0.0,
                            respond_us=1.0, version=(1, 0)),
            HistoryOpRecord(index=1, client=2, session=1, node=1,
                            op="read", key=5, value=42, invoke_us=2.0,
                            respond_us=3.0, version=(1, 0)),
            HistoryOpRecord(index=2, client=1, session=0, node=0,
                            op="write", key=6, value=7, invoke_us=4.0,
                            severed=True),
            HistoryOpRecord(index=3, client=3, session=0, node=2,
                            op="persist", key=None, value=None,
                            invoke_us=5.0, respond_us=6.0,
                            scope_id=3_000_000, committed=True),
        ]
        recovered = {"merged": {"5": {"version": [1, 0], "value": 42}},
                     "per_node": {"0": {}}}
        return History(meta={"consistency": "causal", "seed": 2021},
                       ops=ops, recovered=recovered)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        original = self._sample()
        write_history(path, original)
        loaded = load_history(path)
        assert loaded.meta == original.meta
        assert loaded.recovered == original.recovered
        assert loaded.dropped == 0
        assert [dataclasses.asdict(op) for op in loaded.ops] == \
            [dataclasses.asdict(op) for op in original.ops]
        assert loaded.recovered_versions() == {5: (1, 0)}

    def test_an_older_files_degraded_flag_is_ignored(self, tmp_path):
        """Histories written before restarts caught up marked each
        post-restart op ``"degraded": true``; the loader reads past it."""
        path = str(tmp_path / "h.jsonl")
        write_history(path, self._sample())
        lines = open(path).read().splitlines()
        op = json.loads(lines[2])
        op["degraded"] = True
        lines[2] = json.dumps(op)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        loaded = load_history(path)
        assert dataclasses.asdict(loaded.ops[1]) == \
            dataclasses.asdict(self._sample().ops[1])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_history(str(path))

    def test_non_jsonl_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSONL"):
            load_history(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"schema": "repro.run_report/6"}\n')
        with pytest.raises(ValueError, match=HISTORY_SCHEMA.replace(
                "/", "/")):
            load_history(str(path))

    def test_declared_count_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        original = self._sample()
        write_history(path, original)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])      # drop one op line
        with pytest.raises(ValueError, match="declares"):
            load_history(path)

    def test_bad_op_line_rejected(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        write_history(path, self._sample())
        with open(path, "a") as fh:
            fh.write("garbage\n")
        with pytest.raises(ValueError, match="bad op line"):
            load_history(path)

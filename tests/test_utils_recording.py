"""Tests for run recording."""

import math

from repro.utils.recording import RoundRecord, RunRecorder


def make_record(i, acc=None, benign=(8, 10), byz=(0, 2)):
    return RoundRecord(
        round_index=i,
        train_loss=1.0 / (i + 1),
        test_accuracy=acc,
        benign_selected=benign[0],
        benign_total=benign[1],
        byzantine_selected=byz[0],
        byzantine_total=byz[1],
    )


class TestRoundRecord:
    def test_selection_rates(self):
        record = make_record(0, benign=(9, 10), byz=(1, 2))
        assert record.benign_selection_rate == 0.9
        assert record.byzantine_selection_rate == 0.5

    def test_rates_nan_when_no_population(self):
        record = make_record(0, benign=(0, 0), byz=(0, 0))
        assert math.isnan(record.benign_selection_rate)
        assert math.isnan(record.byzantine_selection_rate)

    def test_to_dict_contains_core_fields(self):
        payload = make_record(3, acc=0.5).to_dict()
        assert payload["round_index"] == 3
        assert payload["test_accuracy"] == 0.5


class TestRunRecorder:
    def test_best_and_final_accuracy(self):
        recorder = RunRecorder("demo")
        for i, acc in enumerate([0.2, 0.8, 0.6]):
            recorder.add(make_record(i, acc))
        assert recorder.best_accuracy() == 0.8
        assert recorder.final_accuracy() == 0.6

    def test_accuracies_skip_unevaluated_rounds(self):
        recorder = RunRecorder()
        recorder.add(make_record(0, None))
        recorder.add(make_record(1, 0.4))
        assert recorder.accuracies == [0.4]

    def test_empty_recorder_returns_nan(self):
        recorder = RunRecorder()
        assert math.isnan(recorder.best_accuracy())
        assert math.isnan(recorder.final_accuracy())

    def test_mean_selection_rates(self):
        recorder = RunRecorder()
        recorder.add(make_record(0, benign=(10, 10), byz=(0, 2)))
        recorder.add(make_record(1, benign=(5, 10), byz=(2, 2)))
        assert recorder.mean_benign_selection_rate() == 0.75
        assert recorder.mean_byzantine_selection_rate() == 0.5

    def test_len_and_iteration(self):
        recorder = RunRecorder()
        recorder.add(make_record(0))
        recorder.add(make_record(1))
        assert len(recorder) == 2
        assert [r.round_index for r in recorder] == [0, 1]

    def test_summary_and_to_dict(self):
        recorder = RunRecorder("exp")
        recorder.add(make_record(0, 0.9))
        assert "exp" in recorder.summary()
        payload = recorder.to_dict()
        assert payload["best_accuracy"] == 0.9
        assert len(payload["rounds"]) == 1


class TestRecoverySerialization:
    """Round-trip fidelity of the fault-tolerance bookkeeping fields."""

    def make_recovery_record(self):
        record = make_record(4, acc=0.7)
        record.num_redispatched = 3
        record.num_reconnects = 1
        record.num_retries = 2
        record.quorum_met = False
        record.selected_clients = (0, 2, 5)
        return record

    def test_recovery_fields_survive_to_dict(self):
        payload = self.make_recovery_record().to_dict()
        assert payload["num_redispatched"] == 3
        assert payload["num_reconnects"] == 1
        assert payload["num_retries"] == 2
        assert payload["quorum_met"] is False

    def test_round_record_from_dict_round_trips(self):
        original = self.make_recovery_record()
        restored = RoundRecord.from_dict(original.to_dict())
        assert restored == original

    def test_from_dict_defaults_missing_recovery_fields(self):
        # Checkpoints written before these fields existed must stay
        # readable: absent keys fall back to the healthy-round defaults.
        restored = RoundRecord.from_dict({"round_index": 1, "train_loss": 0.5})
        assert restored.num_redispatched == 0
        assert restored.num_reconnects == 0
        assert restored.num_retries == 0
        assert restored.quorum_met is True

    def test_from_dict_ignores_the_retired_extra_key(self):
        # Records written before RoundRecord.extra was retired carry an
        # "extra" key; their checkpoints must still load.
        original = self.make_recovery_record()
        payload = original.to_dict()
        assert "extra" not in payload
        payload["extra"] = {"note": "degraded"}
        assert RoundRecord.from_dict(payload) == original

    def test_recorder_recovery_totals(self):
        recorder = RunRecorder()
        for redispatched, reconnects, retries in [(4, 1, 0), (0, 0, 2), (2, 1, 1)]:
            record = make_record(len(recorder))
            record.num_redispatched = redispatched
            record.num_reconnects = reconnects
            record.num_retries = retries
            recorder.add(record)
        assert recorder.total_redispatched() == 6
        assert recorder.total_reconnects() == 2
        assert recorder.total_retries() == 3

    def test_recorder_from_dict_round_trips(self):
        recorder = RunRecorder("chaos run")
        recorder.metadata = {"config": {"seed": 3}}
        recorder.add(self.make_recovery_record())
        recorder.add(make_record(5, acc=0.8))
        restored = RunRecorder.from_dict(recorder.to_dict())
        assert restored.description == "chaos run"
        assert restored.metadata == {"config": {"seed": 3}}
        assert restored.rounds == recorder.rounds
        assert restored.total_redispatched() == 3
        assert restored.to_dict() == recorder.to_dict()

    def test_recorder_from_dict_tolerates_empty_payload(self):
        restored = RunRecorder.from_dict({})
        assert restored.description == ""
        assert len(restored) == 0

"""Tests for crash-safe checkpointing of the ETA2 system."""

import base64
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import ETA2System, IncomingTask
from repro.core.serialization import state_fingerprint, system_state_to_dict
from repro.observability.tracer import RunTracer, canonical_json
from repro.reliability.checkpoint import CheckpointError, CheckpointManager
from repro.reliability.faults import SimulatedCrash, crashing_writer

#: A service checkpoint in the layout written before the state was stored
#: canonically (one ``json.dumps`` of the whole record, state keys in
#: insertion order): the newest checkpoint of an ``IngestionService`` over
#: ``ETA2System(n_users=12, capacities=trace.capacities, seed=3)`` after
#: ``generate_traffic(n_users=12, n_tasks=30, n_days=3, seed=1)``.
EARLIER_LAYOUT_DIR = Path(__file__).parent / "data" / "earlier_layout"
EARLIER_LAYOUT_FINGERPRINT = "bae3e5004f74873195e22cf7ac638b29ec8491ba4a114f3e9db4674bdf320f08"

#: A service checkpoint in the canonical version-1 layout (the state
#: stored once as canonical JSON, floats as text): the newest checkpoint of
#: an ``IngestionService`` over
#: ``ETA2System(n_users=12, capacities=trace.capacities, seed=3)`` after
#: ``generate_traffic(n_users=12, n_tasks=30, n_days=4, seed=2)``.
CANONICAL_V1_DIR = Path(__file__).parent / "data" / "canonical_v1"
CANONICAL_V1_FINGERPRINT = "1ecee10a89f0a13c8acf52456b949a69d4c7e424cccf9f056e59fd4bbafc4850"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _make_system(seed=0, n_users=10):
    rng = np.random.default_rng(seed)
    return ETA2System(
        n_users=n_users, capacities=rng.uniform(5, 9, n_users), alpha=0.5, seed=seed
    )


def _day_tasks(rng, n_tasks=12, n_domains=3):
    return [
        IncomingTask(
            processing_time=float(rng.uniform(0.5, 1.5)), domain=int(rng.integers(n_domains))
        )
        for _ in range(n_tasks)
    ]


def _observer(rng, true_u):
    def observe(pairs, _tasks=[]):
        return [10.0 + rng.standard_normal() / true_u[user % true_u.shape[0]] for user, _ in pairs]

    return observe


def _warmed_system(seed=0):
    rng = np.random.default_rng(seed)
    system = _make_system(seed=seed)
    true_u = rng.uniform(0.5, 3.0, 10)
    system.warmup(_day_tasks(rng), _observer(rng, true_u))
    return system, rng, true_u


def _write_earlier_layout(path, system, step):
    """Write ``system`` as checkpoints were written before the state was
    stored canonically: ``json.dumps`` of the whole record."""
    record = {
        "checkpoint_version": 1,
        "step": step,
        "metadata": {},
        "checksum": state_fingerprint(system),
        "state": system_state_to_dict(system),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))
    return path


class TestManagerBasics:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, prefix="bad/prefix")
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path).path_for(-1)

    def test_save_and_restore_round_trip(self, tmp_path):
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path)
        path = manager.save(system, step=1, metadata={"kind": "warm-up"})
        assert path.exists()
        record = manager.load_record(path)
        assert record["step"] == 1
        assert record["metadata"]["kind"] == "warm-up"

        fresh = _make_system(seed=99)
        restored_step = CheckpointManager(tmp_path).restore(fresh)
        assert restored_step == 1
        assert fresh.is_warmed_up
        original = system.expertise_matrix()
        restored = fresh.expertise_matrix()
        assert original.domain_ids == restored.domain_ids
        for domain_id in original.domain_ids:
            assert np.allclose(original.column(domain_id), restored.column(domain_id))

    def test_rotation_keeps_newest(self, tmp_path):
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path, keep=2)
        for step in range(1, 6):
            manager.save(system, step=step)
        names = [path.name for path in manager.checkpoints()]
        assert names == ["checkpoint-00000004.json", "checkpoint-00000005.json"]

    def test_rotation_happens_before_the_save_is_visible(self, tmp_path, monkeypatch):
        """Regression: rotation used to run *after* the write, so a crash
        in the window left keep+1 files and latest_valid() resumed from a
        step the caller never saw save() acknowledge."""
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2):
            manager.save(system, step=step)

        def crash_at_rotation(pending=None):
            raise SimulatedCrash("drill: killed during checkpoint rotation")

        monkeypatch.setattr(manager, "_rotate", crash_at_rotation)
        with pytest.raises(SimulatedCrash):
            manager.save(system, step=3)
        monkeypatch.undo()

        # At most `keep` files at every instant, and the newest valid
        # checkpoint is still the last *acknowledged* save.
        assert len(manager.checkpoints()) <= manager.keep
        found = manager.latest_valid()
        assert found is not None and found[1]["step"] == 2

    def test_resaving_the_same_step_does_not_shrink_retention(self, tmp_path):
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(system, step=1)
        manager.save(system, step=2)
        manager.save(system, step=2)  # overwrite in place
        names = [path.name for path in manager.checkpoints()]
        assert names == ["checkpoint-00000001.json", "checkpoint-00000002.json"]

    def test_stray_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a checkpoint")
        (tmp_path / "checkpoint-0000001.json").write_text("{}")  # wrong digit count
        manager = CheckpointManager(tmp_path)
        assert manager.checkpoints() == []
        assert manager.latest_valid() is None


class TestValidation:
    def test_truncated_file_clear_error(self, tmp_path):
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path)
        path = manager.save(system, step=1)
        path.write_text(path.read_text()[: 40])
        with pytest.raises(CheckpointError, match="truncated or invalid JSON"):
            manager.load_record(path)

    def test_checksum_mismatch_detected(self, tmp_path):
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path)
        path = manager.save(system, step=1)
        record = json.loads(path.read_text())
        record["state"]["iteration_log"] = [999]  # silent corruption
        path.write_text(json.dumps(record))
        with pytest.raises(CheckpointError, match="checksum"):
            manager.load_record(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "checkpoint-00000001.json"
        path.write_text(json.dumps({"checkpoint_version": 99}))
        with pytest.raises(CheckpointError, match="version"):
            CheckpointManager(tmp_path).load_record(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "checkpoint-00000001.json"
        path.write_text(json.dumps({"checkpoint_version": 1, "step": 1}))
        with pytest.raises(CheckpointError, match="checksum"):
            CheckpointManager(tmp_path).load_record(path)

    @pytest.mark.parametrize(
        "packed",
        [
            pytest.param("not*base64!", id="bad-base64"),
            pytest.param(base64.b64encode(bytes(12)).decode("ascii"), id="not-whole-float64s"),
            pytest.param([1.0, 2.0], id="list-not-string"),
            pytest.param(None, id="map-missing"),
        ],
    )
    def test_undecodable_sums_rejected(self, tmp_path, packed):
        """A version-2 file whose checksum is valid but whose packed sums
        do not decode raises CheckpointError, and restore skips it."""
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path)
        manager.save(system, step=1)
        path = manager.save(system, step=2)
        state = json.loads(path.read_text())["state"]
        if packed is None:
            del state["updater"]["denominators"]
        else:
            state["updater"]["numerators"]["0"] = packed
        text = canonical_json(state)
        header = {"checkpoint_version": 2, "step": 2, "metadata": {}, "checksum": _sha256(text)}
        path.write_text(f'{json.dumps(header)[:-1]}, "state": {text}}}')
        with pytest.raises(CheckpointError, match="undecodable updater sums"):
            manager.load_record(path)
        assert manager.restore(_make_system(seed=99)) == 1


class TestStoredLayout:
    def test_checksum_is_the_state_fingerprint_of_the_stored_text(self, tmp_path):
        """The checksum covers the stored (packed) state text, and the state
        ``load_record`` decodes from that text hashes to ``state_fingerprint``
        bit for bit."""
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path)
        path = manager.save(system, step=1, metadata={"kind": "warm-up"})
        text = path.read_text()
        stored = canonical_json(json.loads(text)["state"])
        # The state is stored once, verbatim in canonical form.
        assert text.endswith(f'"state": {stored}}}')
        record = manager.load_record(path)
        assert record["checkpoint_version"] == 2
        assert record["checksum"] == _sha256(stored)
        assert _sha256(canonical_json(record["state"])) == state_fingerprint(system)
        assert record["state"] == system_state_to_dict(system)

    def test_sums_are_stored_as_float64_bytes(self, tmp_path):
        system, _, _ = _warmed_system()
        path = CheckpointManager(tmp_path).save(system, step=1)
        stored = json.loads(path.read_text())["state"]["updater"]
        expected = system_state_to_dict(system)["updater"]
        for key in ("numerators", "denominators"):
            assert stored[key].keys() == expected[key].keys()
            for domain, packed in stored[key].items():
                assert base64.b64decode(packed) == np.asarray(
                    expected[key][domain], dtype="<f8"
                ).tobytes()

    def test_save_event_bytes_is_the_file_size(self, tmp_path):
        system, _, _ = _warmed_system()
        tracer = RunTracer()
        manager = CheckpointManager(tmp_path, manifest={"config_hash": "abc"}, tracer=tracer)
        path = manager.save(system, step=4, metadata={"kind": "daily"})
        [event] = tracer.events("checkpoint.save")
        assert event["data"]["bytes"] == path.stat().st_size

    def test_checkpoint_in_the_earlier_layout_restores(self):
        manager = CheckpointManager(EARLIER_LAYOUT_DIR, prefix="serve")
        [path] = manager.checkpoints()
        assert '"state": {"format_version": 1, ' in path.read_text()  # not canonical
        fresh = ETA2System(n_users=12, capacities=np.full(12, 10.0), seed=3)
        assert manager.restore(fresh) == 3
        assert state_fingerprint(fresh) == EARLIER_LAYOUT_FINGERPRINT

    def test_checkpoint_in_the_canonical_v1_layout_restores(self):
        manager = CheckpointManager(CANONICAL_V1_DIR, prefix="serve")
        [path] = manager.checkpoints()
        text = path.read_text()
        assert text.startswith('{"checkpoint_version": 1, ')
        assert '"state": {"clustering":' in text  # canonical, floats as text
        assert manager.load_record(path)["checksum"] == CANONICAL_V1_FINGERPRINT
        fresh = ETA2System(n_users=12, capacities=np.full(12, 10.0), seed=3)
        assert manager.restore(fresh) == 4
        assert state_fingerprint(fresh) == CANONICAL_V1_FINGERPRINT

    def test_twelve_domain_resume_matches_the_earlier_layout_day_by_day(self, tmp_path):
        """Canonical order puts domains "10" and "11" before "2", so a
        restored updater registers its columns in another order than from
        an earlier-layout file of the same state; the days after the
        restore must not notice."""
        rng = np.random.default_rng(5)
        true_u = rng.uniform(0.5, 3.0, 10)
        system = _make_system(seed=5)
        warmup_tasks = [
            IncomingTask(processing_time=float(rng.uniform(0.5, 1.5)), domain=i % 12)
            for i in range(36)
        ]
        system.warmup(warmup_tasks, _observer(rng, true_u))
        assert system.expertise_matrix().domain_ids == list(range(12))
        canonical = CheckpointManager(tmp_path / "canonical").save(system, step=1)
        earlier = _write_earlier_layout(
            tmp_path / "earlier" / "checkpoint-00000001.json", system, step=1
        )
        for path, ten_first in ((canonical, True), (earlier, False)):
            text = path.read_text()
            assert (text.index('"10":') < text.index('"2":')) is ten_first

        per_day = []
        for path in (canonical, earlier):
            restored = _make_system(seed=5)
            assert CheckpointManager(path.parent).restore(restored) == 1
            day_rng = np.random.default_rng(11)
            fingerprints = [state_fingerprint(restored)]
            for _ in range(3):
                restored.step(
                    _day_tasks(day_rng, n_tasks=24, n_domains=12), _observer(day_rng, true_u)
                )
                fingerprints.append(state_fingerprint(restored))
            per_day.append(fingerprints)
        assert per_day[0] == per_day[1]
        assert per_day[0][0] == state_fingerprint(system)


class TestRecovery:
    def test_latest_valid_skips_corrupt_newest(self, tmp_path):
        """latest_valid itself (not just restore) walks past bad files."""
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path, keep=3)
        older = manager.save(system, step=1)
        newest = manager.save(system, step=2)
        record = json.loads(newest.read_text())
        record["state"]["iteration_log"] = [999]  # checksum now mismatches
        newest.write_text(json.dumps(record))

        found = manager.latest_valid()
        assert found is not None
        path, loaded = found
        assert path == older
        assert loaded["step"] == 1
        # The corrupt file is skipped, not deleted — rotation still sees it.
        assert newest.exists()

    def test_latest_valid_none_when_all_corrupt(self, tmp_path):
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path, keep=3)
        for step in (1, 2):
            path = manager.save(system, step=step)
            path.write_text(path.read_text()[:25])  # truncate both
        assert manager.latest_valid() is None

    def test_restore_after_latest_valid_fallback(self, tmp_path):
        """restore applies the fallback record's state, not the corrupt one."""
        system, rng, true_u = _warmed_system()
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(system, step=1)
        expected = system.expertise_matrix()
        system.step(_day_tasks(rng), _observer(rng, true_u))
        newest = manager.save(system, step=2)
        newest.write_text(newest.read_text()[:-40])

        fresh = _make_system(seed=99)
        assert manager.restore(fresh) == 1
        restored = fresh.expertise_matrix()
        assert expected.domain_ids == restored.domain_ids
        for domain_id in expected.domain_ids:
            assert np.allclose(expected.column(domain_id), restored.column(domain_id))

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(system, step=1)
        newest = manager.save(system, step=2)
        newest.write_text(newest.read_text()[:-30])  # corrupt the newest

        fresh = _make_system(seed=99)
        assert manager.restore(fresh) == 1  # older valid one wins
        assert fresh.is_warmed_up

    def test_no_valid_checkpoint_returns_none(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        fresh = _make_system()
        assert manager.restore(fresh) is None
        assert not fresh.is_warmed_up

    def test_mid_write_crash_preserves_previous_checkpoint(self, tmp_path):
        system, _, _ = _warmed_system()
        manager = CheckpointManager(tmp_path)
        manager.save(system, step=1)
        with pytest.raises(SimulatedCrash):
            manager.save(system, step=2, _writer=crashing_writer(0.5))
        # The interrupted step-2 write must not have produced a visible
        # checkpoint file, and step 1 must still restore cleanly.
        assert [p.name for p in manager.checkpoints()] == ["checkpoint-00000001.json"]
        fresh = _make_system(seed=99)
        assert manager.restore(fresh) == 1


class TestSystemIntegration:
    def test_auto_checkpoint_after_each_step(self, tmp_path):
        rng = np.random.default_rng(0)
        system = _make_system(seed=0)
        system.enable_checkpointing(tmp_path, keep=2)
        true_u = rng.uniform(0.5, 3.0, 10)
        system.warmup(_day_tasks(rng), _observer(rng, true_u))
        system.step(_day_tasks(rng), _observer(rng, true_u))
        system.step(_day_tasks(rng), _observer(rng, true_u))
        assert system.completed_steps == 3
        names = [path.name for path in system.checkpoint_manager.checkpoints()]
        assert names == ["checkpoint-00000002.json", "checkpoint-00000003.json"]
        record = system.checkpoint_manager.load_record(
            system.checkpoint_manager.checkpoints()[-1]
        )
        assert record["metadata"]["kind"] == "daily"

    def test_resume_classmethod_recovers_and_continues(self, tmp_path):
        rng = np.random.default_rng(1)
        system = _make_system(seed=1)
        system.enable_checkpointing(tmp_path)
        true_u = rng.uniform(0.5, 3.0, 10)
        system.warmup(_day_tasks(rng), _observer(rng, true_u))
        system.step(_day_tasks(rng), _observer(rng, true_u))

        resumed = ETA2System.resume(
            tmp_path, n_users=10, capacities=np.full(10, 7.0), alpha=0.5, seed=1
        )
        assert resumed.is_warmed_up
        assert resumed.completed_steps == 2
        # The resumed system keeps stepping (and keeps checkpointing).
        resumed.step(_day_tasks(rng), _observer(rng, true_u))
        assert resumed.completed_steps == 3
        assert resumed.checkpoint_manager.checkpoints()[-1].name == "checkpoint-00000003.json"

    def test_resume_from_empty_directory_starts_cold(self, tmp_path):
        resumed = ETA2System.resume(tmp_path, n_users=4, capacities=np.full(4, 7.0))
        assert not resumed.is_warmed_up
        assert resumed.completed_steps == 0

    def test_restore_latest_requires_checkpointing(self):
        with pytest.raises(RuntimeError):
            _make_system().restore_latest()

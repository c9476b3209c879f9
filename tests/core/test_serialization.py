"""Tests for ETA2 state persistence."""

import json

import numpy as np
import pytest

from repro.clustering.dynamic import DynamicHierarchicalClustering
from repro.core.pipeline import ETA2System, IncomingTask
from repro.core.serialization import (
    atomic_write_text,
    clustering_from_dict,
    clustering_to_dict,
    load_system_state,
    save_system_state,
    updater_from_dict,
    updater_to_dict,
)
from repro.core.update import ExpertiseUpdater
from repro.reliability.faults import SimulatedCrash, crashing_writer
from repro.truthdiscovery.base import ObservationMatrix


def _trained_updater(seed=0):
    rng = np.random.default_rng(seed)
    updater = ExpertiseUpdater(n_users=10, alpha=0.5)
    domains = rng.integers(0, 3, 30)
    mask = rng.random((10, 30)) < 0.5
    values = np.where(mask, rng.normal(5.0, 2.0, (10, 30)), 0.0)
    updater.incorporate(ObservationMatrix(values=values, mask=mask), domains)
    return updater


class TestUpdaterRoundTrip:
    def test_round_trip_preserves_expertise(self):
        updater = _trained_updater()
        restored = updater_from_dict(json.loads(json.dumps(updater_to_dict(updater))))
        assert restored.domain_ids == updater.domain_ids
        for domain_id in updater.domain_ids:
            assert np.allclose(
                restored.expertise_column(domain_id), updater.expertise_column(domain_id)
            )

    def test_restored_updater_keeps_learning(self):
        updater = _trained_updater(seed=1)
        restored = updater_from_dict(updater_to_dict(updater))
        rng = np.random.default_rng(2)
        domains = rng.integers(0, 3, 10)
        mask = rng.random((10, 10)) < 0.5
        values = np.where(mask, rng.normal(5.0, 2.0, (10, 10)), 0.0)
        obs = ObservationMatrix(values=values, mask=mask)
        a = updater.incorporate(obs, domains)
        b = restored.incorporate(obs, domains)
        assert np.allclose(a.truths, b.truths, equal_nan=True)

    def test_bad_length_rejected(self):
        data = updater_to_dict(_trained_updater())
        data["numerators"]["0"] = [1.0]  # wrong length
        with pytest.raises(ValueError):
            updater_from_dict(data)

    @pytest.mark.parametrize("sums", ["numerators", "denominators"])
    def test_negative_sum_rejected(self, sums):
        data = updater_to_dict(_trained_updater())
        data[sums]["1"][3] = -0.5
        with pytest.raises(ValueError, match="domain 1: .*non-negative"):
            updater_from_dict(data)

    @pytest.mark.parametrize("sums", ["numerators", "denominators"])
    def test_nan_sum_rejected(self, sums):
        data = updater_to_dict(_trained_updater())
        data[sums]["2"][0] = float("nan")
        with pytest.raises(ValueError, match="domain 2: .*finite"):
            updater_from_dict(data)

    def test_unpaired_domain_rejected(self):
        data = updater_to_dict(_trained_updater())
        del data["denominators"]["0"]
        with pytest.raises(ValueError, match="domain 0: .*'denominators'"):
            updater_from_dict(data)

    def test_round_trip_is_byte_identical(self):
        data = updater_to_dict(_trained_updater())
        text = json.dumps(data)
        assert json.dumps(updater_to_dict(updater_from_dict(json.loads(text)))) == text


class TestClusteringRoundTrip:
    def test_unfitted_round_trip(self):
        clustering = DynamicHierarchicalClustering(gamma=0.4)
        restored = clustering_from_dict(clustering_to_dict(clustering))
        assert not restored.is_fitted
        assert restored.gamma == 0.4

    def test_fitted_round_trip_continues_identically(self):
        rng = np.random.default_rng(3)
        clustering = DynamicHierarchicalClustering(gamma=0.25)
        points = np.vstack(
            [rng.normal(0.0, 0.1, (6, 4)), rng.normal(4.0, 0.1, (6, 4))]
        )
        clustering.fit(points)
        restored = clustering_from_dict(json.loads(json.dumps(clustering_to_dict(clustering))))
        assert np.array_equal(restored.labels(), clustering.labels())
        assert restored.d_star == clustering.d_star
        new_points = rng.normal(0.0, 0.1, (3, 4))
        a = clustering.add(new_points)
        b = restored.add(new_points)
        assert np.array_equal(a.added_labels, b.added_labels)

    def test_corrupt_membership_rejected(self):
        rng = np.random.default_rng(4)
        clustering = DynamicHierarchicalClustering(gamma=0.3)
        clustering.fit(rng.normal(size=(4, 2)))
        data = clustering_to_dict(clustering)
        first_domain = next(iter(data["domains"]))
        data["domains"][first_domain] = data["domains"][first_domain][:-1]
        with pytest.raises(ValueError):
            clustering_from_dict(data)


class TestSystemStateFile:
    def _run_system(self, seed=5):
        rng = np.random.default_rng(seed)
        system = ETA2System(n_users=12, capacities=rng.uniform(6, 10, 12), alpha=0.5, seed=seed)
        true_u = rng.uniform(0.3, 3.0, (12, 3))
        tasks = [
            IncomingTask(processing_time=float(rng.uniform(0.5, 1.5)), domain=int(rng.integers(3)))
            for _ in range(15)
        ]
        domains = np.array([t.domain for t in tasks])
        truths = rng.uniform(0, 20, 15)

        def observe(pairs):
            return [
                truths[task] + rng.standard_normal() / true_u[user, domains[task]]
                for user, task in pairs
            ]

        system.warmup(tasks, observe)
        return system, rng, true_u

    def test_save_load_round_trip(self, tmp_path):
        system, rng, _ = self._run_system()
        path = tmp_path / "state.json"
        save_system_state(system, path)

        fresh = ETA2System(n_users=12, capacities=np.full(12, 8.0), seed=0)
        load_system_state(fresh, path)
        assert fresh.is_warmed_up
        assert fresh.iteration_log == system.iteration_log
        original = system.expertise_matrix()
        restored = fresh.expertise_matrix()
        assert original.domain_ids == restored.domain_ids
        for domain_id in original.domain_ids:
            assert np.allclose(original.column(domain_id), restored.column(domain_id))

    def test_user_count_mismatch_rejected(self, tmp_path):
        system, _, _ = self._run_system(seed=6)
        path = tmp_path / "state.json"
        save_system_state(system, path)
        fresh = ETA2System(n_users=5, capacities=np.full(5, 8.0))
        with pytest.raises(ValueError):
            load_system_state(fresh, path)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"format_version": 999}))
        fresh = ETA2System(n_users=3, capacities=np.full(3, 8.0))
        with pytest.raises(ValueError):
            load_system_state(fresh, path)

    def test_round_trip_after_domain_merge(self, tmp_path):
        """State survives the merge path (pipeline merges updater domains
        when the clustering decides two domains were one)."""
        system, _, _ = self._run_system(seed=7)
        merged_from = system._updater.domain_ids
        assert len(merged_from) >= 2
        system._updater.merge_domains(merged_from[0], merged_from[1])
        path = tmp_path / "state.json"
        save_system_state(system, path)

        fresh = ETA2System(n_users=12, capacities=np.full(12, 8.0), seed=0)
        load_system_state(fresh, path)
        original = system.expertise_matrix()
        restored = fresh.expertise_matrix()
        assert restored.domain_ids == original.domain_ids
        assert merged_from[1] not in restored.domain_ids
        for domain_id in original.domain_ids:
            assert np.allclose(original.column(domain_id), restored.column(domain_id))

    def test_round_trip_in_min_cost_mode(self, tmp_path):
        """ETA2-mc state (same learned sums, different allocator) round-trips
        and the restored system keeps running min-cost steps."""
        rng = np.random.default_rng(8)
        system = ETA2System(
            n_users=12,
            capacities=rng.uniform(6, 10, 12),
            allocator="min-cost",
            min_cost_round_budget=40.0,
            seed=8,
        )
        truths = rng.uniform(0, 20, 30)

        def tasks(n):
            return [
                IncomingTask(processing_time=float(rng.uniform(0.5, 1.5)), domain=int(rng.integers(3)))
                for _ in range(n)
            ]

        def observe_for(indices):
            def observe(pairs):
                return [truths[indices[task]] + rng.standard_normal() for _, task in pairs]

            return observe

        system.warmup(tasks(15), observe_for(list(range(15))))
        system.step(tasks(15), observe_for(list(range(15, 30))))
        path = tmp_path / "state.json"
        save_system_state(system, path)

        fresh = ETA2System(
            n_users=12,
            capacities=np.full(12, 8.0),
            allocator="min-cost",
            min_cost_round_budget=40.0,
            seed=0,
        )
        load_system_state(fresh, path)
        assert fresh.is_warmed_up
        original = system.expertise_matrix()
        restored = fresh.expertise_matrix()
        assert restored.domain_ids == original.domain_ids
        for domain_id in original.domain_ids:
            assert np.allclose(original.column(domain_id), restored.column(domain_id))
        result = fresh.step(tasks(15), observe_for(list(range(15, 30))))
        assert result.observations.observation_count > 0

    def test_truncated_file_clear_error(self, tmp_path):
        system, _, _ = self._run_system(seed=9)
        path = tmp_path / "state.json"
        save_system_state(system, path)
        path.write_text(path.read_text()[:25])
        fresh = ETA2System(n_users=12, capacities=np.full(12, 8.0))
        with pytest.raises(ValueError, match="truncated or invalid JSON"):
            load_system_state(fresh, path)

    def test_garbage_file_clear_error(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("not json at all {{{")
        fresh = ETA2System(n_users=3, capacities=np.full(3, 8.0))
        with pytest.raises(ValueError, match="corrupt"):
            load_system_state(fresh, path)


class TestAtomicWrite:
    def test_writes_and_cleans_up_temp(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, '{"a": 1}')
        assert path.read_text() == '{"a": 1}'
        assert not (tmp_path / "out.json.tmp").exists()

    def test_crash_mid_write_preserves_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "old content")
        with pytest.raises(SimulatedCrash):
            atomic_write_text(path, "new content", writer=crashing_writer(0.5))
        assert path.read_text() == "old content"  # never half-written

    def test_stale_temp_file_overwritten(self, tmp_path):
        path = tmp_path / "out.json"
        (tmp_path / "out.json.tmp").write_text("stale debris")
        atomic_write_text(path, "fresh")
        assert path.read_text() == "fresh"
        assert not (tmp_path / "out.json.tmp").exists()

    def test_save_system_state_is_atomic(self, tmp_path):
        """A crash while saving must leave the previous state loadable."""
        system_a = ETA2System(n_users=6, capacities=np.full(6, 8.0), seed=1)
        rng = np.random.default_rng(1)
        tasks = [
            IncomingTask(processing_time=1.0, domain=int(rng.integers(2))) for _ in range(8)
        ]
        system_a.warmup(tasks, lambda pairs: [5.0 + rng.standard_normal() for _ in pairs])
        path = tmp_path / "state.json"
        save_system_state(system_a, path)

        with pytest.raises(SimulatedCrash):
            atomic_write_text(path, "{garbage", writer=crashing_writer(0.9))
        fresh = ETA2System(n_users=6, capacities=np.full(6, 8.0))
        load_system_state(fresh, path)  # still the good save
        assert fresh.is_warmed_up


class TestAtomicWriteDurability:
    """Satellite: atomic writes must fsync the file AND the directory entry."""

    def _record_fsyncs(self, monkeypatch):
        import os as os_module
        import stat

        calls = []
        real_fsync = os_module.fsync

        def recording_fsync(fd):
            calls.append(stat.S_ISDIR(os_module.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os_module, "fsync", recording_fsync)
        return calls

    def test_file_and_directory_both_fsynced(self, tmp_path, monkeypatch):
        calls = self._record_fsyncs(monkeypatch)
        atomic_write_text(tmp_path / "state.json", "{}")
        assert calls.count(False) >= 1, "the temp file itself was never fsynced"
        assert calls.count(True) >= 1, "the parent directory was never fsynced"
        # Order matters: the file's data must be durable before the rename
        # is (directory fsync last).
        assert calls[0] is False and calls[-1] is True
        assert (tmp_path / "state.json").read_text() == "{}"

    def test_directory_fsync_failure_tolerated(self, tmp_path, monkeypatch):
        import os as os_module

        from repro.core.serialization import fsync_directory

        def refusing_fsync(fd):
            raise OSError("EINVAL: directory fsync unsupported here")

        monkeypatch.setattr(os_module, "fsync", refusing_fsync)
        fsync_directory(tmp_path)  # must not raise on EINVAL-style platforms

    def test_fsync_directory_missing_path_tolerated(self, tmp_path):
        from repro.core.serialization import fsync_directory

        fsync_directory(tmp_path / "does-not-exist")  # silently a no-op

    def test_crashing_writer_leaves_no_partial_file(self, tmp_path, monkeypatch):
        calls = self._record_fsyncs(monkeypatch)
        target = tmp_path / "state.json"
        atomic_write_text(target, "old")
        before = len(calls)
        with pytest.raises(SimulatedCrash):
            atomic_write_text(target, "new", writer=crashing_writer(crash_after_fraction=0.5))
        assert target.read_text() == "old"  # the crash never reached the rename
        assert len(calls) == before  # ...nor any further fsync

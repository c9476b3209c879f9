"""Tests for the three dataset generators and shared helpers."""

import numpy as np
import pytest

from repro.datasets import sfv_dataset, survey_dataset, synthetic_dataset, uniform_capacities
from repro.datasets.base import CrowdsourcingDataset, evenly_distributed_days
from repro.simulation.entities import TaskTable, UserSpec


class TestHelpers:
    def test_uniform_capacities_range(self):
        rng = np.random.default_rng(0)
        caps = uniform_capacities(1000, tau=12.0, rng=rng)
        assert caps.shape == (1000,)
        assert np.all(caps >= 8.0)
        assert np.all(caps <= 16.0)

    def test_uniform_capacities_small_tau_stays_positive(self):
        rng = np.random.default_rng(1)
        caps = uniform_capacities(100, tau=3.0, rng=rng)
        assert np.all(caps > 0)

    def test_evenly_distributed_days_balance(self):
        rng = np.random.default_rng(2)
        days = evenly_distributed_days(100, 5, rng)
        counts = np.bincount(days, minlength=5)
        assert counts.sum() == 100
        assert counts.max() - counts.min() <= 1

    def test_evenly_distributed_days_validation(self):
        with pytest.raises(ValueError):
            evenly_distributed_days(10, 0, np.random.default_rng(0))


class TestSynthetic:
    def test_paper_recipe_defaults(self):
        ds = synthetic_dataset(seed=0)
        assert ds.n_users == 100
        assert ds.n_tasks == 1000
        assert ds.n_true_domains == 8
        assert ds.domains_known
        expertise = ds.world().true_expertise_matrix()
        assert expertise.min() >= 0.0
        assert expertise.max() <= 3.0
        truths = ds.world().true_values()
        assert truths.min() >= 0.0 and truths.max() <= 20.0
        sigmas = ds.world().base_numbers()
        assert sigmas.min() >= 0.5 and sigmas.max() <= 5.0
        times = ds.tasks.processing_time
        assert times.min() >= 0.5 and times.max() <= 1.5

    def test_no_descriptions(self):
        ds = synthetic_dataset(n_users=5, n_tasks=10, seed=1)
        assert all(task.description is None for task in ds.tasks)

    def test_seeded_reproducibility(self):
        a = synthetic_dataset(n_users=5, n_tasks=10, seed=2)
        b = synthetic_dataset(n_users=5, n_tasks=10, seed=2)
        assert _same_tasks(a.tasks, b.tasks)
        assert [a.user(i) for i in range(5)] == [b.user(i) for i in range(5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_dataset(n_users=0)


class TestSurvey:
    def test_paper_shape(self):
        ds = survey_dataset(seed=0)
        assert ds.n_users == 60
        assert ds.n_tasks == 150
        assert not ds.domains_known
        assert all(task.description for task in ds.tasks)
        times = ds.tasks.processing_time
        assert times.min() >= 2.0 and times.max() <= 4.0

    def test_replicated_questions_carry_qualifiers(self):
        ds = survey_dataset(seed=1)
        replicas = [ds.tasks[j] for j in range(89, ds.n_tasks)]
        assert any("during" in t.description or "in the" in t.description for t in replicas)

    def test_strong_domains_exist_per_user(self):
        ds = survey_dataset(seed=2)
        expertise = ds.world().true_expertise_matrix()
        assert np.all(expertise.max(axis=1) >= 1.6)

    def test_base_question_bound_checked(self):
        with pytest.raises(ValueError):
            survey_dataset(n_tasks=10, base_questions=20)


class TestSFV:
    def test_shape_and_specialisation(self):
        ds = sfv_dataset(seed=0)
        assert ds.n_users == 18
        assert ds.n_tasks == 180
        assert not ds.domains_known
        expertise = ds.world().true_expertise_matrix()
        # Strong specialisation: each system has high peaks and a weak floor.
        assert np.all(expertise.max(axis=1) >= 1.8)
        assert np.all(np.median(expertise, axis=1) < 1.0)

    def test_descriptions_are_questions(self):
        ds = sfv_dataset(seed=1)
        assert all(task.description.endswith("?") for task in ds.tasks)


class TestContainer:
    def test_with_capacities_replaces_only_capacity(self):
        ds = synthetic_dataset(n_users=4, n_tasks=6, seed=3)
        new_caps = np.full(4, 99.0)
        replaced = ds.with_capacities(new_caps)
        assert np.all(replaced.capacities == 99.0)
        assert _same_tasks(replaced.tasks, ds.tasks)
        with pytest.raises(ValueError, match="one entry per user"):
            ds.with_capacities(np.ones(3))

    def test_text_dataset_requires_descriptions(self):
        with pytest.raises(ValueError, match="description"):
            CrowdsourcingDataset(
                name="bad",
                tasks=_one_task(),
                expertise=[[1.0]],
                capacities=[5.0],
                n_true_domains=1,
                domains_known=False,
            )

    def test_domain_bounds_checked(self):
        with pytest.raises(ValueError, match="out-of-range true domain"):
            CrowdsourcingDataset(
                name="bad",
                tasks=_one_task(true_domain=3),
                expertise=[[1.0]],
                capacities=[5.0],
                n_true_domains=1,
                domains_known=True,
            )

    def test_expertise_length_checked(self):
        with pytest.raises(ValueError, match="expertise vector length mismatch"):
            CrowdsourcingDataset(
                name="bad",
                tasks=_one_task(),
                expertise=[[1.0, 2.0]],
                capacities=[5.0],
                n_true_domains=1,
                domains_known=True,
            )

    @pytest.mark.parametrize(
        "expertise, capacities, message",
        [
            (np.zeros((0, 1)), [], "no users"),
            ([[1.0]], [-1.0], "capacity must be non-negative"),
            ([[-1.0]], [1.0], "expertise must be non-negative"),
        ],
    )
    def test_user_columns_checked(self, expertise, capacities, message):
        with pytest.raises(ValueError, match=message):
            CrowdsourcingDataset(
                name="bad",
                tasks=_one_task(),
                expertise=expertise,
                capacities=capacities,
                n_true_domains=1,
                domains_known=True,
            )

    def test_user_rows(self):
        ds = synthetic_dataset(n_users=4, n_tasks=6, n_domains=3, seed=4)
        row = ds.user(2)
        assert row == UserSpec(
            user_id=2, expertise=tuple(ds.expertise[2]), capacity=float(ds.capacities[2])
        )


class TestTaskTable:
    def test_rows_and_take(self):
        ds = survey_dataset(n_users=5, n_tasks=12, seed=5)
        tasks = ds.tasks
        row = tasks[7]
        assert row.task_id == 7
        assert row.true_value == tasks.true_value[7]
        assert row.description == ds.descriptions()[7]
        assert tasks[-1].task_id == len(tasks) - 1
        assert len(list(tasks)) == len(tasks)
        with pytest.raises(IndexError):
            tasks[len(tasks)]
        picked = tasks.take(np.array([7, 2]))
        assert len(picked) == 2
        assert picked.descriptions == (tasks.descriptions[7], tasks.descriptions[2])
        assert picked[0].base_number == row.base_number

    def test_columns_are_read_only(self):
        tasks = synthetic_dataset(n_users=3, n_tasks=4, seed=6).tasks
        with pytest.raises(ValueError):
            tasks.cost[0] = 2.0

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("base_number", 0.0, "base_number must be positive"),
            ("processing_time", 0.0, "processing_time must be positive"),
            ("cost", -1.0, "cost must be non-negative"),
        ],
    )
    def test_columns_checked_like_rows(self, column, value, message):
        with pytest.raises(ValueError, match=message):
            _one_task(**{column: value})
        with pytest.raises(ValueError, match="one entry per task"):
            TaskTable([1.0, 2.0], [1.0], [1.0], [1.0], [0])


def _one_task(true_value=1.0, base_number=1.0, processing_time=1.0, cost=1.0, true_domain=0):
    return TaskTable([true_value], [base_number], [processing_time], [cost], [true_domain])


def _same_tasks(a: TaskTable, b: TaskTable) -> bool:
    columns = ("true_value", "base_number", "processing_time", "cost", "true_domain")
    same = all(np.array_equal(getattr(a, name), getattr(b, name)) for name in columns)
    return same and a.descriptions == b.descriptions

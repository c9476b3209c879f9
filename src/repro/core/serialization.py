"""Persistence for the ETA2 closed loop.

A deployed crowdsourcing server runs for many time steps; restarting it must
not forget what it learned.  This module serialises the two stateful pieces
of :class:`~repro.core.pipeline.ETA2System` — the expertise updater's running
``N``/``D`` sums and the dynamic clustering's points/domains — to plain JSON
(arrays as nested lists), and restores them.

The embedding model is *not* serialised: it is deterministic given its
configuration (the default backend is rebuilt from the bundled corpus), and
hash-backed models carry no state at all.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable

import numpy as np

from repro.clustering.dynamic import DynamicHierarchicalClustering
from repro.core.pipeline import ETA2System
from repro.core.update import ExpertiseUpdater

__all__ = [
    "updater_to_dict",
    "updater_from_dict",
    "clustering_to_dict",
    "clustering_from_dict",
    "system_state_to_dict",
    "apply_system_state",
    "save_system_state",
    "load_system_state",
    "state_fingerprint",
    "atomic_write_text",
    "fsync_directory",
]

_FORMAT_VERSION = 1


def fsync_directory(path: "str | Path") -> None:
    """``fsync`` a directory so renames/creations inside it survive power loss.

    ``os.replace`` makes a rename atomic but not durable: the directory
    entry lives in the parent's metadata, which the kernel may keep dirty
    until the directory itself is synced.  Platforms without directory
    fsync (opening a directory raises) are tolerated silently — there is
    nothing stronger available there.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: "str | Path", text: str, writer: "Callable | None" = None) -> None:
    """Write ``text`` to ``path`` atomically and durably.

    Temp file + ``fsync`` + ``os.replace`` + parent-directory ``fsync``: a
    crash at any point leaves either the old file or the new file at
    ``path`` — never a half-written mixture — and once this returns the
    rename survives power loss.  A stray ``<name>.tmp`` may survive an
    interrupted write; it is ignored by all readers and overwritten by the
    next save.

    ``writer`` is a fault-injection hook taking ``(path, text)`` (see
    :func:`repro.reliability.faults.crashing_writer`); the default writes
    with :meth:`Path.write_text`.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if writer is None:
        tmp.write_text(text)
    else:
        writer(tmp, text)
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    fsync_directory(path.parent)


def updater_to_dict(updater: ExpertiseUpdater) -> dict:
    """Snapshot an :class:`ExpertiseUpdater` as JSON-compatible data."""
    columns = {d: updater._columns[d] for d in updater.domain_ids}
    return {
        "n_users": updater.n_users,
        "alpha": updater.alpha,
        "numerators": {str(d): updater._numerators[:, c].tolist() for d, c in columns.items()},
        "denominators": {str(d): updater._denominators[:, c].tolist() for d, c in columns.items()},
    }


def updater_from_dict(data: dict) -> ExpertiseUpdater:
    """Rebuild an :class:`ExpertiseUpdater` from :func:`updater_to_dict` data.

    Both sum maps must cover the same domains with finite, non-negative
    per-user values; anything else raises a :class:`ValueError` naming the
    offending domain (a NaN sum would otherwise read silently as the
    default expertise and survive every decay).
    """
    updater = ExpertiseUpdater(n_users=int(data["n_users"]), alpha=float(data["alpha"]))
    numerators, denominators = data["numerators"], data["denominators"]
    unpaired = set(numerators).symmetric_difference(denominators)
    if unpaired:
        raise ValueError(
            f"domain {min(unpaired)}: sums present in only one of "
            "'numerators' and 'denominators'"
        )
    for key, numerator in numerators.items():
        domain_id = int(key)
        numerator = np.asarray(numerator, dtype=float)
        denominator = np.asarray(denominators[key], dtype=float)
        if numerator.shape != (updater.n_users,) or denominator.shape != (updater.n_users,):
            raise ValueError(f"domain {domain_id}: sums have the wrong length")
        sums = np.concatenate([numerator, denominator])
        if not np.all(np.isfinite(sums)) or np.any(sums < 0):
            raise ValueError(f"domain {domain_id}: sums must be finite and non-negative")
        updater.ensure_domain(domain_id)
        updater._numerators[:, updater._columns[domain_id]] = numerator
        updater._denominators[:, updater._columns[domain_id]] = denominator
    return updater


def clustering_to_dict(clustering: DynamicHierarchicalClustering) -> dict:
    """Snapshot a :class:`DynamicHierarchicalClustering` (fitted or not)."""
    data = {
        "gamma": clustering.gamma,
        "refresh_d_star": clustering._refresh_d_star,
        "metric": clustering._metric,
        "fitted": clustering.is_fitted,
    }
    if clustering.is_fitted:
        data.update(
            {
                "points": clustering._points.tolist(),
                "d_star": clustering._d_star,
                "domains": {str(d): members for d, members in clustering._domains.items()},
                "next_domain_id": clustering._next_domain_id,
            }
        )
    return data


def clustering_from_dict(data: dict) -> DynamicHierarchicalClustering:
    """Rebuild a :class:`DynamicHierarchicalClustering` snapshot."""
    clustering = DynamicHierarchicalClustering(
        gamma=float(data["gamma"]),
        refresh_d_star=bool(data["refresh_d_star"]),
        metric=data.get("metric", "euclidean"),
    )
    if not data.get("fitted", False):
        return clustering
    points = np.asarray(data["points"], dtype=float)
    clustering._set_points(points)
    clustering._d_star = float(data["d_star"])
    domains = {int(d): [int(i) for i in members] for d, members in data["domains"].items()}
    covered = sorted(index for members in domains.values() for index in members)
    if covered != list(range(points.shape[0])):
        raise ValueError("domain membership does not partition the stored points")
    clustering._domains = domains
    clustering._next_domain_id = int(data["next_domain_id"])
    return clustering


def system_state_to_dict(system: ETA2System) -> dict:
    """Snapshot an :class:`ETA2System`'s learned state as JSON-compatible data.

    Captures the expertise history, the clustering state, the warm-up flag
    and the iteration log.  Allocator settings and the embedding model are
    construction-time configuration and must be supplied again on restore.
    """
    state = {
        "format_version": _FORMAT_VERSION,
        "warmed_up": system.is_warmed_up,
        "iteration_log": list(system.iteration_log),
        "updater": updater_to_dict(system._updater),
        "clustering": clustering_to_dict(system._clustering),
    }
    # Optional keys keep the format at version 1: old readers ignore them,
    # old files simply lack them.
    if system.reputation is not None:
        state["reputation"] = system.reputation.state_dict()
    return state


def apply_system_state(system: ETA2System, state: dict) -> ETA2System:
    """Restore a :func:`system_state_to_dict` snapshot into ``system``.

    ``system`` must be freshly constructed with the same ``n_users``; its
    gamma/alpha construction parameters are overridden by the stored values.
    Returns ``system`` for chaining.
    """
    if not isinstance(state, dict):
        raise ValueError("system state must be a JSON object")
    version = state.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported state format version: {version!r}")
    try:
        updater = updater_from_dict(state["updater"])
        clustering = clustering_from_dict(state["clustering"])
        warmed_up = bool(state["warmed_up"])
        iteration_log = [int(i) for i in state["iteration_log"]]
    except KeyError as missing:
        raise ValueError(f"system state is missing the {missing} field") from None
    if updater.n_users != system.n_users:
        raise ValueError(
            f"state has {updater.n_users} users but the system was built for {system.n_users}"
        )
    system._updater = updater
    system._clustering = clustering
    system._warmed_up = warmed_up
    system.iteration_log = iteration_log
    reputation_state = state.get("reputation")
    if reputation_state is not None:
        from repro.reliability.reputation import ReputationHook, ReputationTracker

        tracker = ReputationTracker.load_state(reputation_state)
        if tracker.n_users != system.n_users:
            raise ValueError(
                f"reputation state has {tracker.n_users} users but the system "
                f"was built for {system.n_users}"
            )
        # A restored tracker keeps scoring and excluding users: hook it in.
        system.reputation = tracker
        system._install("reputation", ReputationHook())
    return system


def save_system_state(system: ETA2System, path: "str | Path") -> None:
    """Write an :class:`ETA2System`'s learned state to ``path`` (JSON).

    The write is atomic (:func:`atomic_write_text`): a crash mid-write
    leaves any previous state file intact instead of a corrupt one.
    """
    atomic_write_text(path, json.dumps(system_state_to_dict(system)))


def load_system_state(system: ETA2System, path: "str | Path") -> ETA2System:
    """Restore state saved by :func:`save_system_state` into ``system``.

    Truncated or otherwise corrupt files raise a :class:`ValueError` with a
    clear message rather than a raw JSON traceback.
    """
    path = Path(path)
    try:
        state = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(
            f"state file {path} is corrupt (truncated or invalid JSON): {error.msg}"
        ) from None
    return apply_system_state(system, state)


def state_fingerprint(system: ETA2System) -> str:
    """SHA-256 over the canonical JSON of the system's learned state.

    Two systems have equal fingerprints iff their serialised state is
    byte-identical — the equality contract the crash-recovery drills
    assert (an interrupted-and-resumed run must land on the same
    fingerprint as an uninterrupted one).
    """
    from repro.observability.tracer import canonical_json

    return hashlib.sha256(
        canonical_json(system_state_to_dict(system)).encode("utf-8")
    ).hexdigest()

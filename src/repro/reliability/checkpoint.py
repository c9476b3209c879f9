"""Crash-safe checkpointing for :class:`~repro.core.pipeline.ETA2System`.

A production server checkpoints after every completed step so a crash costs
at most one day of learning.  The format hardens the plain state snapshot
of :mod:`repro.core.serialization` against the ways persistence actually
fails:

- **atomic writes** — temp file + ``os.replace``, so a crash mid-write
  leaves the previous checkpoint intact (never a half-written file under
  the real name);
- **packed sums** — version 2 stores the updater's decayed N and D sums
  (Section 4.2, Eqs. 7-8) per domain as base64 of their little-endian
  float64 bytes, which is exact and far cheaper to encode than float
  text; the rest of :func:`~repro.core.serialization.system_state_to_dict`
  is stored as is.  :meth:`CheckpointManager.load_record` decodes them
  back into plain lists, so a loaded record's ``"state"`` is the
  float-text snapshot whatever the version, and version-1 files (sums as
  float text) still load;
- **checksums** — the stored state is encoded once, as canonical JSON
  stored verbatim under ``"state"``, and ``checksum`` is the SHA-256 of
  exactly those bytes; silent corruption (truncation, bit rot, concurrent
  writers) is detected at load time rather than producing subtly wrong
  expertise.  The reader re-canonicalises the parsed stored state, so
  files written before the state was stored canonically still load.  For
  version 1 the checksum equals ``state_fingerprint`` of the saved system;
  for version 2 the decoded state hashes to it;
- **rotation** — only the newest ``keep`` checkpoints are retained;
- **fallback recovery** — :meth:`CheckpointManager.restore` walks
  checkpoints newest-to-oldest and restores the first *valid* one, logging
  (not crashing on) every corrupt file it skips.

File layout: ``<directory>/<prefix>-<step:08d>.json``; stray ``*.tmp``
files from interrupted writes are ignored and overwritten.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import re
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.hooks import StepHook
from repro.observability.tracer import canonical_json

__all__ = ["CheckpointError", "CheckpointHook", "CheckpointManager", "CHECKPOINT_VERSION"]

_LOG = logging.getLogger(__name__)

CHECKPOINT_VERSION = 2

#: Version 1 stores the updater sums as float text, version 2 packed.
_READABLE_VERSIONS = (1, 2)

#: The updater maps that version 2 stores as base64 of float64 bytes.
_PACKED_SUMS = ("numerators", "denominators")


class CheckpointError(ValueError):
    """A checkpoint file is missing, corrupt, or from an unknown format."""


class CheckpointManager:
    """Write, rotate, validate, and restore system checkpoints."""

    def __init__(
        self,
        directory: "str | Path",
        keep: int = 3,
        prefix: str = "checkpoint",
        manifest: "dict | None" = None,
        tracer=None,
    ):
        if keep < 1:
            raise ValueError("keep must be at least 1")
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", prefix):
            raise ValueError("prefix must be a simple filename fragment")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self.prefix = prefix
        # The run manifest (repro.observability.run_manifest) is stamped
        # into every save's metadata; restore compares its config_hash
        # against the stored one and warns on drift.
        self.manifest = manifest
        self.tracer = tracer
        self._pattern = re.compile(rf"^{re.escape(prefix)}-(\d{{8}})\.json$")

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def path_for(self, step: int) -> Path:
        if step < 0:
            raise ValueError("step must be non-negative")
        return self.directory / f"{self.prefix}-{step:08d}.json"

    def save(
        self,
        system,
        step: int,
        metadata: "dict | None" = None,
        _writer: "Callable | None" = None,
    ) -> Path:
        """Checkpoint ``system`` as of completed step ``step`` (atomic).

        ``_writer`` is a fault-injection hook (see
        :func:`repro.reliability.faults.crashing_writer`); leave it None in
        production.
        """
        from repro.core.serialization import atomic_write_text, system_state_to_dict

        state = system_state_to_dict(system)
        updater = state["updater"]
        for key in _PACKED_SUMS:
            updater[key] = {
                domain: base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")
                for domain, values in updater[key].items()
            }
        state = canonical_json(state)
        merged = dict(metadata or {})
        if self.manifest is not None and "manifest" not in merged:
            merged["manifest"] = self.manifest
        record = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "step": int(step),
            "metadata": merged,
            "checksum": hashlib.sha256(state.encode("utf-8")).hexdigest(),
        }
        path = self.path_for(step)
        # The state is encoded once: its checksummed text is spliced in
        # verbatim as the record's last field.
        text = f'{json.dumps(record)[:-1]}, "state": {state}}}'
        # Rotate *before* the new checkpoint becomes visible.  The old
        # order (write, then rotate) had a crash window in which keep+1
        # files existed and latest_valid() resumed from the unrotated
        # extra — a step the caller never saw save() acknowledge.  Trimming
        # to keep-1 first keeps "at most `keep` checkpoint files" true at
        # every instant; a crash mid-write still leaves the keep-1 newest
        # previous checkpoints restorable.
        self._rotate(pending=path)
        atomic_write_text(path, text, writer=_writer)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # File *name* only (not the tmp-dir-dependent full path) so
            # same-seed traces stay byte-identical across machines.
            tracer.emit(
                "checkpoint.save", step=int(step), file=path.name, bytes=len(text)
            )
        return path

    def _rotate(self, pending: "Path | None" = None) -> None:
        """Trim old checkpoints; ``pending`` reserves a slot for a save.

        With a ``pending`` path the budget for *existing* files is
        ``keep - 1`` (the about-to-be-written file takes the last slot);
        re-saving an existing step does not shrink the budget because the
        pending path is excluded from the count.
        """
        checkpoints = [path for path in self.checkpoints() if path != pending]
        budget = self.keep - 1 if pending is not None else self.keep
        for path in checkpoints[: max(0, len(checkpoints) - budget)]:
            try:
                path.unlink()
            except OSError as error:  # pragma: no cover — racing cleanup
                _LOG.warning("could not remove old checkpoint %s: %s", path, error)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def checkpoints(self) -> list:
        """All checkpoint paths in this directory, oldest first."""
        found = []
        for path in self.directory.iterdir():
            match = self._pattern.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _, path in sorted(found)]

    def load_record(self, path: "str | Path") -> dict:
        """Parse and validate one checkpoint file.

        Raises :class:`CheckpointError` (a ``ValueError``) with a clear
        message on truncation, corruption, checksum mismatch, or an unknown
        format version — never a raw JSON traceback.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as error:
            raise CheckpointError(f"cannot read checkpoint {path}: {error}") from None
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"checkpoint {path} is corrupt (truncated or invalid JSON): {error.msg}"
            ) from None
        if not isinstance(record, dict):
            raise CheckpointError(f"checkpoint {path} does not contain a record object")
        version = record.get("checkpoint_version")
        if version not in _READABLE_VERSIONS:
            raise CheckpointError(f"checkpoint {path} has unsupported version {version!r}")
        for key in ("step", "checksum", "state"):
            if key not in record:
                raise CheckpointError(f"checkpoint {path} is missing the {key!r} field")
        actual = hashlib.sha256(canonical_json(record["state"]).encode("utf-8")).hexdigest()
        if actual != record["checksum"]:
            raise CheckpointError(
                f"checkpoint {path} failed checksum validation "
                f"(stored {record['checksum'][:12]}…, computed {actual[:12]}…)"
            )
        if version == 2:
            _unpack_sums(record["state"], path)
        return record

    def latest_valid(self) -> "tuple[Path, dict] | None":
        """The newest checkpoint that passes validation, or None.

        Corrupt checkpoints are skipped with a warning — a bad newest file
        must not make older good ones unreachable.
        """
        for path in reversed(self.checkpoints()):
            try:
                return path, self.load_record(path)
            except CheckpointError as error:
                _LOG.warning("skipping invalid checkpoint: %s", error)
        return None

    def restore(self, system) -> "int | None":
        """Restore the newest valid checkpoint into ``system``.

        Returns the restored step number, which also becomes the system's
        ``completed_steps``, or None when no valid checkpoint exists (the
        system is left untouched and starts cold, with a warning).
        """
        from repro.core.serialization import apply_system_state

        found = self.latest_valid()
        if found is None:
            _LOG.warning("no valid checkpoint found in %s; starting cold", self.directory)
            return None
        path, record = found
        self._check_drift(path, record)
        apply_system_state(system, record["state"])
        system.completed_steps = int(record["step"])
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit("checkpoint.restore", step=int(record["step"]), file=path.name)
        _LOG.info("restored checkpoint %s (step %d)", path.name, record["step"])
        return int(record["step"])

    def _check_drift(self, path: Path, record: dict) -> None:
        """Warn when the checkpoint was written under a different config.

        Resuming yesterday's state under today's edited configuration is
        the classic silent failure this catches: the comparison is on the
        manifests' ``config_hash``.  No-op when either side lacks a
        manifest (pre-telemetry checkpoints stay restorable).
        """
        if self.manifest is None:
            return
        stored = record.get("metadata", {}).get("manifest")
        if not isinstance(stored, dict):
            return
        stored_hash = stored.get("config_hash")
        current_hash = self.manifest.get("config_hash")
        if stored_hash is None or current_hash is None or stored_hash == current_hash:
            return
        _LOG.warning(
            "checkpoint %s was written under a different configuration "
            "(stored config hash %s…, current %s…); resuming anyway",
            path.name,
            str(stored_hash)[:12],
            str(current_hash)[:12],
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                "checkpoint.config_drift",
                file=path.name,
                stored=stored_hash,
                current=current_hash,
            )


def _unpack_sums(state, path: Path) -> None:
    """Decode a version-2 state's packed updater sums into float lists, in
    place; anything that does not decode raises :class:`CheckpointError`."""
    try:
        updater = state["updater"]
        for key in _PACKED_SUMS:
            decoded = {}
            for domain, packed in updater[key].items():
                if not isinstance(packed, str):
                    raise ValueError(f"domain {domain} of {key!r} is not a string")
                raw = base64.b64decode(packed, validate=True)
                if len(raw) % 8:
                    raise ValueError(
                        f"domain {domain} of {key!r} has {len(raw)} bytes, "
                        "not a whole number of float64 values"
                    )
                decoded[domain] = np.frombuffer(raw, dtype="<f8").tolist()
            updater[key] = decoded
    except (KeyError, TypeError, AttributeError, ValueError) as error:
        # binascii.Error (bad base64) is a ValueError.
        raise CheckpointError(
            f"checkpoint {path} has undecodable updater sums: {error!r}"
        ) from None


class CheckpointHook(StepHook):
    """Saves ``system.checkpoint_manager``'s checkpoint after every counted
    step (``enable_checkpointing``) and, with metrics attached, its size."""

    def after_step(self, system, result, kind: str):
        path = system.checkpoint_manager.save(
            system,
            system.completed_steps,
            metadata={
                "kind": kind,
                "converged": bool(result.converged),
                "mle_iterations": int(result.mle_iterations),
                "pair_count": int(result.pair_count),
            },
        )
        if system.metrics is not None:
            nbytes = path.stat().st_size
            system.metrics.counter(
                "repro_checkpoint_bytes_total", "Bytes written to checkpoint files."
            ).inc(nbytes)
            system.metrics.gauge(
                "repro_checkpoint_last_bytes", "Size of the most recent checkpoint file."
            ).set(nbytes)
        return result

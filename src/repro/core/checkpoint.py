"""Checkpointing: crash-safe save/restore of a full training state.

A checkpoint captures everything needed to resume a run bit-exactly:
model parameters, optimizer state (momentum/Adam moments), the sampling
RNG state, and the step counter. Stored as a single ``.npz`` file (numpy's
portable container) with non-array state pickled into a header array.

Crash safety (a rank can die *while* checkpointing):

- Writes go to a temp file in the same directory, fsync'd, then published
  atomically with ``os.replace`` — a reader never observes a
  half-written ``.npz``.
- The header embeds a CRC32 over the pickled header and every parameter
  array; :func:`load_checkpoint` verifies it and raises a typed
  :class:`CheckpointCorruptError` on any mismatch, truncation, or
  unparseable container — instead of failing mid-unpickle.
- :meth:`CheckpointCallback.restore_latest` walks the checkpoint directory
  newest-first and restores the newest checkpoint that *verifies*, so a
  corrupted latest file degrades to the previous one instead of killing
  the resume.

Resume-exactness is tested: train k steps, checkpoint, train k more; vs
restore and train the same k — identical parameters.

Format v3 stores a masked layer's weight packed, its connected entries only
(:class:`~repro.nn.linear.MaskedLinear`), and the optimizer moments in the
same layout. A v2 file holds the dense matrices and dense moments:
:func:`load_checkpoint` refuses it, and every other version it was not
written for, with :class:`CheckpointFormatError`.
"""

from __future__ import annotations

import io
import os
import pickle
import re
import zlib
from pathlib import Path

import numpy as np

from repro.core.vqmc import VQMC
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "verify_checkpoint",
    "restore_elastic",
    "CheckpointCallback",
    "CheckpointCorruptError",
    "CheckpointFormatError",
]

_FORMAT_VERSION = 3


class CheckpointCorruptError(RuntimeError):
    """The checkpoint file is truncated, unparseable, or fails its CRC32."""

    def __init__(self, path: Path | str, reason: str):
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"corrupt checkpoint {path}: {reason}")


class CheckpointFormatError(ValueError):
    """The checkpoint verifies, but in a format version this code does not read.

    v2 files hold dense masked-layer weights and optimizer moments."""

    def __init__(self, path: Path | str, version):
        self.path = Path(path)
        self.version = version
        super().__init__(
            f"checkpoint {path} is format v{version}, not v{_FORMAT_VERSION}: "
            "v3 stores masked layers' connected weights only"
        )


def _payload_crc(header_bytes: bytes, params: dict[str, np.ndarray]) -> int:
    """CRC32 over the pickled header and every parameter array (sorted by
    name, so the digest is independent of dict order)."""
    crc = zlib.crc32(header_bytes)
    for name in sorted(params):
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = zlib.crc32(np.ascontiguousarray(params[name]).tobytes(), crc)
    return crc & 0xFFFFFFFF


def save_checkpoint(vqmc: VQMC, path: str | Path) -> None:
    """Write the trainer's full state to ``path`` (.npz), atomically."""
    path = Path(path)
    tracer = getattr(vqmc, "tracer", None) or NULL_TRACER
    with tracer.span("checkpoint.save", step=vqmc.global_step) as span:
        header = {
            "version": _FORMAT_VERSION,
            "global_step": vqmc.global_step,
            "optimizer_state": vqmc.optimizer.state_dict(),
            "rng_state": vqmc.rng.bit_generator.state,
            "model_class": type(vqmc.model).__name__,
        }
        # The evaluation stream is a seeded fork of the training stream
        # (see repro.core.vqmc.derive_eval_rng); it must resume where it
        # left off, or a restored run's interleaved evaluations would
        # replay different draws than the original's. Optional key: v2
        # checkpoints written before the fork existed restore fine.
        eval_rng = getattr(vqmc, "eval_rng", None)
        if eval_rng is not None:
            header["eval_rng_state"] = eval_rng.bit_generator.state
        # A HealthMonitor registers itself as vqmc.health on run begin; its
        # report rides in the header so a restored run knows how healthy its
        # source was. Absent/reportless monitors leave the header unchanged
        # (old checkpoints stay byte-identical in shape).
        health = getattr(vqmc, "health", None)
        if health is not None and hasattr(health, "report"):
            header["health"] = health.report()
        buf = io.BytesIO()
        pickle.dump(header, buf)
        header_bytes = buf.getvalue()
        params = {name: p for name, p in vqmc.model.state_dict().items()}
        arrays = {f"param/{name}": p for name, p in params.items()}
        arrays["__header__"] = np.frombuffer(header_bytes, dtype=np.uint8)
        arrays["__crc32__"] = np.array([_payload_crc(header_bytes, params)], dtype=np.uint32)

        # Temp file in the same directory (os.replace must not cross devices);
        # savez via an open handle so numpy does not append its own suffix.
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        if getattr(span, "attrs", None) is not None:  # real span, not the no-op
            span.attrs["bytes"] = path.stat().st_size


def _read_verified(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load and CRC-verify ``path``; returns ``(header, params)``.

    Any parse failure — truncated zip, bad pickle, missing members, CRC
    mismatch — raises :class:`CheckpointCorruptError`.
    """
    try:
        with np.load(path) as data:
            if "__header__" not in data.files or "__crc32__" not in data.files:
                raise CheckpointCorruptError(
                    path, "missing header/CRC members (truncated or foreign file)"
                )
            header_bytes = data["__header__"].tobytes()
            stored_crc = int(data["__crc32__"][0])
            params = {
                key[len("param/"):]: data[key]
                for key in data.files
                if key.startswith("param/")
            }
            header = pickle.loads(header_bytes)
    except CheckpointCorruptError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, EOFError, pickle errors, ...
        raise CheckpointCorruptError(path, f"unreadable container: {exc}") from exc
    actual_crc = _payload_crc(header_bytes, params)
    if actual_crc != stored_crc:
        raise CheckpointCorruptError(
            path, f"CRC32 mismatch (stored {stored_crc:#010x}, actual {actual_crc:#010x})"
        )
    return header, params


def verify_checkpoint(path: str | Path) -> dict:
    """Verify ``path`` end to end; returns its header dict.

    Raises :class:`CheckpointCorruptError` if the file does not check out.
    """
    header, _ = _read_verified(Path(path))
    return header


def load_checkpoint(vqmc: VQMC, path: str | Path) -> None:
    """Restore a trainer's state in place from ``path`` (CRC-verified).

    The VQMC object must be constructed with the same model architecture
    and optimizer type; shapes are validated by ``load_state_dict``.
    """
    path = Path(path)
    tracer = getattr(vqmc, "tracer", None) or NULL_TRACER
    with tracer.span("checkpoint.restore", bytes=path.stat().st_size):
        header, params = _read_verified(path)
        if header["version"] != _FORMAT_VERSION:
            raise CheckpointFormatError(path, header["version"])
        if header["model_class"] != type(vqmc.model).__name__:
            raise TypeError(
                f"checkpoint was written for {header['model_class']}, "
                f"got {type(vqmc.model).__name__}"
            )
        vqmc.model.load_state_dict(params)
        vqmc.optimizer.load_state_dict(header["optimizer_state"])
        vqmc.rng.bit_generator.state = header["rng_state"]
        if "eval_rng_state" in header:
            vqmc.eval_rng.bit_generator.state = header["eval_rng_state"]
        else:
            # Pre-fork checkpoint: re-derive deterministically from the
            # (just restored) training stream, matching a fresh trainer.
            from repro.core.vqmc import derive_eval_rng

            vqmc.eval_rng = derive_eval_rng(vqmc.rng)
        vqmc.global_step = header["global_step"]


_RANKED = re.compile(r"^checkpoint_(\d{8})\.rank(\d{3})\.npz$")


def restore_elastic(  # repro-lint: disable=api-unreachable-export -- fault-recovery code: restart at a different world size (docs/fault_tolerance.md)
    vqmc: VQMC,
    directory: str | Path,
    *,
    rank: int,
    world_size: int,
    at_step: int | None = None,
    seed: int = 0,
) -> dict:
    """Restore rank ``rank`` of a ``world_size`` world from a checkpoint
    directory possibly written at a *different* world size.

    The elastic restart story: a run checkpointed at world=4 must come back
    at world=2 (survivors) or world=6 (grown). Per-rank files are
    rank-suffixed, so:

    - A rank whose own file exists restores it verbatim — parameters,
      optimizer moments, RNG stream, step — making the unchanged-world (and
      shrink-to-prefix) case *bit-exact*.
    - A new rank (no file of its own) borrows the full state of donor rank
      ``rank % n_available`` — parameters and optimizer moments are
      identical on every rank of a lock-step run, so any donor is correct —
      but must NOT inherit the donor's RNG stream (two ranks sampling the
      same stream would correlate the global batch): it derives a fresh
      deterministic stream from ``(seed, step, rank)``.

    Returns ``{"step", "source_rank", "exact", "path"}``; raises
    :class:`CheckpointCorruptError` if the directory holds no verifiable
    rank-suffixed checkpoint (at ``at_step``, if given).
    """
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} out of range for world size {world_size}")
    directory = Path(directory)
    by_step: dict[int, dict[int, Path]] = {}
    if directory.is_dir():
        for path in directory.iterdir():
            match = _RANKED.match(path.name)
            if match:
                by_step.setdefault(int(match.group(1)), {})[
                    int(match.group(2))
                ] = path
    steps = (
        sorted(by_step, reverse=True)
        if at_step is None
        else ([at_step] if at_step in by_step else [])
    )
    for step in steps:
        sources = by_step[step]
        donors = sorted(sources)
        own = sources.get(rank)
        candidates = [own] if own is not None else []
        # Donor order: start at rank % n for an even spread of borrowers
        # over donors, then rotate — so a corrupt first choice degrades to
        # the next donor instead of failing the restore.
        for i in range(len(donors)):
            path = sources[donors[(rank + i) % len(donors)]]
            if path != own:
                candidates.append(path)
        for path in candidates:
            exact = path == own
            try:
                load_checkpoint(vqmc, path)
            except CheckpointCorruptError:
                continue
            if not exact:
                # vqmc.rng now holds the donor's stream — replace it (see above)
                vqmc.rng = np.random.default_rng(
                    np.random.SeedSequence([seed, vqmc.global_step, rank])
                )
            return {
                "step": step,
                "source_rank": int(_RANKED.match(path.name).group(2)),
                "exact": exact,
                "path": path,
            }
    raise CheckpointCorruptError(
        directory,
        f"no verifiable rank-suffixed checkpoint for rank {rank} "
        f"(world {world_size}, at_step={at_step})",
    )


class CheckpointCallback:
    """Callback writing a checkpoint every ``every`` steps (and at run end).

    With ``rank`` set, filenames carry a rank suffix so all ranks of a
    data-parallel run can share one directory (each rank's RNG state
    differs, so each needs its own file).
    """

    def __init__(
        self,
        directory: str | Path,
        every: int = 50,
        keep_last: int = 3,
        rank: int | None = None,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = every
        self.keep_last = keep_last
        self.rank = rank
        self._written: list[Path] = []

    def on_run_begin(self, vqmc) -> None:
        pass

    def on_step(self, step: int, result) -> None:
        if step % self.every == 0:
            self.write(result.vqmc, step)

    def on_run_end(self, vqmc) -> None:
        self.write(vqmc, vqmc.global_step)

    def _path_for(self, step: int) -> Path:
        if self.rank is None:
            return self.directory / f"checkpoint_{step:08d}.npz"
        return self.directory / f"checkpoint_{step:08d}.rank{self.rank:03d}.npz"

    def _pattern(self) -> re.Pattern:
        if self.rank is None:
            return re.compile(r"^checkpoint_(\d{8})\.npz$")
        return re.compile(rf"^checkpoint_(\d{{8}})\.rank{self.rank:03d}\.npz$")

    def write(self, vqmc, step: int) -> Path:
        path = self._path_for(step)
        save_checkpoint(vqmc, path)
        if path not in self._written:
            self._written.append(path)
        while len(self._written) > self.keep_last:
            old = self._written.pop(0)
            old.unlink(missing_ok=True)
        return path

    # back-compat alias (pre-fault-tolerance name)
    _write = write

    def latest(self) -> Path | None:
        return self._written[-1] if self._written else None

    # -- recovery -------------------------------------------------------------

    def candidates(self) -> list[tuple[int, Path]]:
        """All on-disk checkpoints for this (directory, rank), newest first.

        Scans the directory rather than ``self._written`` so a fresh
        process can resume a run it did not start.
        """
        pattern = self._pattern()
        found = []
        for path in self.directory.iterdir():
            match = pattern.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found, reverse=True)

    def newest_verified_step(self) -> int | None:
        """Step of the newest checkpoint that passes verification."""
        for step, path in self.candidates():
            try:
                verify_checkpoint(path)
            except CheckpointCorruptError:
                continue
            return step
        return None

    def restore_latest(self, vqmc, at_step: int | None = None) -> Path | None:
        """Restore the newest checkpoint that verifies (or the one at
        ``at_step``); corrupt files are skipped. Returns the path used, or
        ``None`` if no checkpoint verified."""
        for step, path in self.candidates():
            if at_step is not None and step != at_step:
                continue
            try:
                load_checkpoint(vqmc, path)
            except CheckpointCorruptError:
                continue
            return path
        return None

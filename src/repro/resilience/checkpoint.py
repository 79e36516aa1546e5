"""Full training-state checkpoints: everything ``Trainer.fit`` needs to
restart mid-run *bit-compatibly*.

A model-only checkpoint (``repro.nn.save_checkpoint``) is enough to serve
predictions, but resuming training from one silently changes the run:
Adam's moments restart cold, the lr schedule resets, and every RNG stream
(batch shuffling, Algorithm-1 discrepancy sampling, scheduled-sampling
coin flips) re-derives from the base seed instead of continuing where it
left off.  :class:`TrainingCheckpoint` captures the complete loop state —
model parameters, best-so-far parameters, optimizer moments, scheduler
position, named RNG bit-generator states, and the
:class:`~repro.training.trainer.TrainingHistory` — so a killed run
resumed from its checkpoint finishes with the *same* ``state_hash`` and
loss curve as an uninterrupted one (asserted by the tier-1 resume test).

Writes are atomic (``repro.ioutil``) and integrity-hashed: a truncated or
bit-flipped file raises :class:`~repro.nn.CheckpointCorruptionError`
instead of resuming from garbage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ioutil import atomic_savez
from ..nn.serialization import CheckpointCorruptionError, read_archive, state_hash

_META_KEY = "__training_meta__"
_HASH_KEY = "__training_hash__"
_FORMAT_VERSION = 1

# Array-key prefixes inside the .npz.
_MODEL = "model/"
_BEST = "best/"
_OPT_M = "opt/m_"
_OPT_V = "opt/v_"


@dataclass
class TrainingCheckpoint:
    """Resumable snapshot of one training loop, taken between epochs.

    ``epoch`` is the *next* epoch to run (a checkpoint written after
    epoch 3 completes has ``epoch == 4``).  ``rng_states`` maps stream
    names (``"trainer"``, ``"loader"``, ``"model_sampling"``) to numpy
    bit-generator state dicts.  ``history`` is the plain-dict form of
    :class:`~repro.training.trainer.TrainingHistory`.
    """

    epoch: int
    model_state: dict
    best_state: dict
    optimizer_state: dict
    scheduler_state: dict
    rng_states: dict
    history: dict
    bad_epochs: int = 0
    metadata: dict = field(default_factory=dict)
    version: int = _FORMAT_VERSION


def save_training_checkpoint(path: str | Path, checkpoint: TrainingCheckpoint) -> Path:
    """Serialize a :class:`TrainingCheckpoint` atomically with an
    integrity hash; returns the final path (``.npz`` suffix enforced)."""
    arrays: dict[str, np.ndarray] = {}
    for name, value in checkpoint.model_state.items():
        arrays[_MODEL + name] = np.asarray(value)
    for name, value in checkpoint.best_state.items():
        arrays[_BEST + name] = np.asarray(value)
    opt = checkpoint.optimizer_state
    for i, (m, v) in enumerate(zip(opt["m"], opt["v"])):
        arrays[_OPT_M + str(i)] = np.asarray(m)
        arrays[_OPT_V + str(i)] = np.asarray(v)
    meta = {
        "version": checkpoint.version,
        "epoch": checkpoint.epoch,
        "optimizer": {"step_count": opt["step_count"], "lr": opt["lr"],
                      "slots": len(opt["m"])},
        "scheduler": checkpoint.scheduler_state,
        "rng_states": checkpoint.rng_states,
        "history": checkpoint.history,
        "bad_epochs": checkpoint.bad_epochs,
        "metadata": checkpoint.metadata,
    }
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    # Hash covers every payload array *and* the metadata blob, in sorted
    # key order so the digest is layout-independent.
    digest = state_hash({key: arrays[key] for key in sorted(arrays)})
    arrays[_HASH_KEY] = np.frombuffer(digest.encode(), dtype=np.uint8)
    return atomic_savez(path, arrays)


def load_training_checkpoint(path: str | Path) -> TrainingCheckpoint:
    """Read and verify a checkpoint written by
    :func:`save_training_checkpoint`.

    Raises :class:`~repro.nn.CheckpointCorruptionError` when the archive
    is truncated/unreadable, the integrity hash mismatches, or the
    metadata blob is malformed.
    """
    path = Path(path)
    arrays = read_archive(path)
    hash_blob = arrays.pop(_HASH_KEY, None)
    if hash_blob is None:
        raise CheckpointCorruptionError(path, "missing integrity hash")
    expected = bytes(hash_blob.tobytes()).decode()
    actual = state_hash({key: arrays[key] for key in sorted(arrays)})
    if actual != expected:
        raise CheckpointCorruptionError(
            path,
            f"state hash {actual[:16]}… does not match the embedded {expected[:16]}…",
            expected=expected,
            actual=actual,
        )
    meta_blob = arrays.pop(_META_KEY, None)
    if meta_blob is None:
        raise CheckpointCorruptionError(path, "missing training metadata")
    try:
        meta = json.loads(bytes(meta_blob.tobytes()).decode())
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptionError(path, f"malformed metadata ({exc})") from exc
    if meta.get("version") != _FORMAT_VERSION:
        raise CheckpointCorruptionError(
            path, f"unsupported checkpoint version {meta.get('version')!r}"
        )

    model_state = {k[len(_MODEL):]: v for k, v in arrays.items() if k.startswith(_MODEL)}
    best_state = {k[len(_BEST):]: v for k, v in arrays.items() if k.startswith(_BEST)}
    slots = int(meta["optimizer"]["slots"])
    try:
        optimizer_state = {
            "step_count": int(meta["optimizer"]["step_count"]),
            "lr": float(meta["optimizer"]["lr"]),
            "m": [arrays[_OPT_M + str(i)] for i in range(slots)],
            "v": [arrays[_OPT_V + str(i)] for i in range(slots)],
        }
    except KeyError as exc:
        raise CheckpointCorruptionError(path, f"missing optimizer slot {exc}") from exc
    return TrainingCheckpoint(
        epoch=int(meta["epoch"]),
        model_state=model_state,
        best_state=best_state,
        optimizer_state=optimizer_state,
        scheduler_state=meta["scheduler"],
        rng_states=meta["rng_states"],
        history=meta["history"],
        bad_epochs=int(meta.get("bad_epochs", 0)),
        metadata=meta.get("metadata", {}),
    )

"""Loaders for the *real* datasets' public file formats.

The evaluation data itself cannot ship with this reproduction (see
DESIGN.md §2), but users who obtain it can plug it straight in:

* **Metro (HZMetro / SHMetro)** — the PVCGN release distributes
  ``train/val/test.pkl`` dictionaries with ``x``/``y`` arrays of shape
  (S, P, N, 2) and ``xtime``/``ytime`` timestamp arrays.  We also accept
  the simpler "raw series" layout: a single array (T, N, 2).
* **UCI Electricity (LD2011_2014.txt)** — semicolon-separated, one row
  per 15-minute step, first column a timestamp, decimal commas.

Each loader returns a :class:`~repro.data.synthetic.SyntheticDataset`
-compatible container (values + calendar fields), so everything
downstream — windowing, scalers, Trainer, experiments — works unchanged.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from .datasets import ForecastingTask
from .scalers import StandardScaler
from .synthetic import SyntheticDataset
from .windows import WindowSet, make_windows


def load_raw_series(
    values: np.ndarray,
    steps_per_day: int,
    start_weekday: int = 0,
) -> SyntheticDataset:
    """Wrap a (T, N, d) array in the dataset container used everywhere."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[:, :, None]
    if values.ndim != 3:
        raise ValueError(f"expected (T, N, d) or (T, N), got shape {values.shape}")
    total, num_nodes = values.shape[:2]
    time_index = np.arange(total)
    return SyntheticDataset(
        values=values,
        time_index=time_index,
        slot_of_day=time_index % steps_per_day,
        day_of_week=(start_weekday + time_index // steps_per_day) % 7,
        coordinates=np.zeros((num_nodes, 2)),
        areas=np.zeros(num_nodes, dtype=int),
        line_edges=[],
        config=None,
        generator=None,
    )


def load_metro_pickles(
    directory: str | Path,
    steps_per_day: int = 73,
    start_weekday: int = 0,
) -> dict[str, WindowSet]:
    """Load the PVCGN-style ``{train,val,test}.pkl`` window dictionaries.

    Each pickle holds ``x`` (S, P, N, d), ``y`` (S, Q, N, d) and
    ``xtime``/``ytime`` (S, P) / (S, Q) arrays of absolute step indices
    (or datetime64 values, which are converted to step indices using the
    per-day slot count).
    """
    directory = Path(directory)
    splits: dict[str, WindowSet] = {}
    for split in ("train", "val", "test"):
        path = directory / f"{split}.pkl"
        if not path.exists():
            raise FileNotFoundError(f"missing {path}")
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        for key in ("x", "y", "xtime", "ytime"):
            if key not in payload:
                raise KeyError(f"{path} lacks key {key!r}")
        x = np.asarray(payload["x"], dtype=float)
        y = np.asarray(payload["y"], dtype=float)
        times = np.concatenate(
            [_as_step_index(payload["xtime"], steps_per_day),
             _as_step_index(payload["ytime"], steps_per_day)],
            axis=1,
        )
        splits[split] = WindowSet(inputs=x, targets=y, time_indices=times)
    return splits


def load_electricity_txt(
    path: str | Path,
    aggregate_hours: bool = True,
    max_clients: int | None = None,
) -> SyntheticDataset:
    """Parse the UCI ``LD2011_2014.txt`` dump (semicolons, decimal commas).

    ``aggregate_hours`` sums the four 15-minute readings into hourly
    consumption, matching the paper's 1-hour interval.
    """
    path = Path(path)
    rows: list[list[float]] = []
    with open(path) as handle:
        header = handle.readline()
        num_clients = len(header.rstrip("\n").split(";")) - 1
        keep = num_clients if max_clients is None else min(max_clients, num_clients)
        for line in handle:
            parts = line.rstrip("\n").split(";")
            if len(parts) < 2:
                continue
            cells = [p.strip().strip('"') for p in parts[1 : keep + 1]]
            rows.append([float(c.replace(",", ".")) if c else 0.0 for c in cells])
    values = np.asarray(rows, dtype=float)
    if aggregate_hours:
        usable = (values.shape[0] // 4) * 4
        values = values[:usable].reshape(-1, 4, values.shape[1]).sum(axis=1)
    return load_raw_series(values, steps_per_day=24 if aggregate_hours else 96)


def task_from_series(
    dataset: SyntheticDataset,
    name: str,
    history: int,
    horizon: int,
    train_fraction: float = 0.7,
    val_fraction: float = 0.1,
    steps_per_day: int | None = None,
) -> ForecastingTask:
    """Build a ForecastingTask from any raw-series dataset container.

    The same chronological split + train-only scaling protocol as
    :func:`~repro.data.datasets.load_task`.
    """
    from .windows import split_series_by_steps

    total = dataset.num_steps
    first = int(total * train_fraction)
    second = int(total * (train_fraction + val_fraction))
    segments = split_series_by_steps(dataset.values, dataset.time_index, (first, second))
    scaler = StandardScaler().fit(segments[0][0])
    windows = [
        make_windows(scaler.transform(values), times, history, horizon)
        for values, times in segments
    ]
    spd = steps_per_day or (
        dataset.config.steps_per_day if dataset.config else int(dataset.slot_of_day.max()) + 1
    )
    return ForecastingTask(
        name=name,
        spec=None,
        train=windows[0],
        val=windows[1],
        test=windows[2],
        scaler=scaler,
        dataset=dataset,
        steps_per_day=spd,
        num_nodes=dataset.num_nodes,
        history=history,
        horizon=horizon,
    )


def _as_step_index(times, steps_per_day: int) -> np.ndarray:
    """Convert timestamp arrays to integer absolute step indices."""
    arr = np.asarray(times)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64)
    if np.issubdtype(arr.dtype, np.datetime64):
        minutes = arr.astype("datetime64[m]").astype(np.int64)
        day_minutes = 24 * 60
        slot_minutes = day_minutes // steps_per_day if steps_per_day <= day_minutes else 1
        return (minutes // max(slot_minutes, 1)).astype(np.int64)
    raise TypeError(f"unsupported time dtype {arr.dtype}")

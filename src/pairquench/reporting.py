"""Deterministic artifact writers: CSV tables, JSON sidecars, gnuplot scripts.

All numeric CSV output is formatted with 12 significant digits and fixed row
ordering, so identical inputs byte-reproduce identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    """12-significant-digit decimal rendering of a number."""
    return f"{float(x):.12g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else fmt(cell) for cell in row))
            fh.write("\n")


def write_json(path: Path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_band_csv(path: Path, band) -> None:
    rows = []
    for group in band.states:
        for s in group:
            rows.append((s.momentum, s.branch, s.beta, s.energy))
    write_csv(path, ["K", "branch", "beta", "energy"], rows)


def write_trajectory_csv(path: Path, trajectory) -> None:
    rows = zip(
        trajectory.times,
        trajectory.transfer,
        trajectory.distance,
        trajectory.energy,
        trajectory.norm,
    )
    write_csv(path, ["t", "transfer", "distance", "energy", "norm"], rows)


def write_sweep_csv(path: Path, sweep) -> None:
    rows = [
        (f, t) for f, t in zip(sweep.f_values, sweep.transfer) if np.isfinite(t)
    ]
    write_csv(path, ["F", "transfer_tf"], rows)


def write_spectrum_csv(path: Path, slices, labels_per_slice) -> None:
    rows = []
    for slc, labels in zip(slices, labels_per_slice):
        for level_id, energy, rbar, label in zip(slc.level_ids, slc.energies, slc.correlations, labels):
            rows.append((slc.field, str(int(level_id)), energy, rbar, label))
    write_csv(path, ["F", "level_id", "energy", "rbar", "label"], rows)


def crossing_payload(scan) -> dict:
    def event(e, true_crossing):
        return {
            "F_center": float(e.f_center),
            "gap": float(e.gap),
            "level_pair": list(e.level_pair),
            "classification": list(e.classification),
            "true_crossing": true_crossing,
        }

    return {
        "avoided": [event(e, False) for e in scan.avoided],
        "true_crossings": [event(e, True) for e in scan.true_crossings],
        "ambiguous_segments": [
            {
                "F_from": float(a.f_from),
                "F_to": float(a.f_to),
                "track": int(a.track),
                "overlap": float(a.overlap),
            }
            for a in scan.ambiguous
        ],
    }


_GNUPLOT_HEADER = 'set datafile separator ","\nset key autotitle columnhead\nset grid\n'

_GNUPLOT_BODIES = {
    "quench": (
        'set xlabel "t"\n'
        'plot "{csv}" using 1:2 with lines title "bound weight", '
        '"{csv}" using 1:4 with lines title "energy"\n'
    ),
    "sweep": 'set xlabel "F"\nplot "{csv}" using 1:2 with linespoints title "transfer"\n',
    "band": 'set xlabel "K"\nplot "{csv}" using 1:4 with points title "bound energies"\n',
    "spectrum": 'set xlabel "F"\nplot "{csv}" using 1:3 with dots title "levels"\n',
    "three-site": (
        'set xlabel "t"\n'
        'plot "{csv}" using 1:2 with lines title "analytic", '
        '"{csv}" using 1:3 with lines title "exact"\n'
    ),
}


def write_gnuplot(path: Path, experiment: str, csv_name: str) -> None:
    body = _GNUPLOT_BODIES[experiment].format(csv=csv_name)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_GNUPLOT_HEADER + body, encoding="utf-8")


def versions() -> dict:
    """Versions of the libraries of the run; scipy's is None unless the run loaded it (only spectrum does)."""
    import platform
    import sys

    import numpy

    from . import __version__

    scipy = sys.modules.get("scipy")
    return {
        "pairquench": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": None if scipy is None else scipy.__version__,
    }

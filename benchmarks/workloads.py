"""Workloads of the pairquench benchmark and the correctness gate on their outputs.

Every workload uses ``kappa=1``, ``u=v=-6.24`` and the headline packet
(``K0=-0.9 pi``, width 0.2, centre site 36, upper branch).  The quench
workloads are the paper's fixed configurations: the engine has no randomness,
so their inputs do not depend on the seed.  The sweep workloads take a
contiguous sub-grid of the default sweep grid, and the seed chooses where it
starts.

The reference outputs in ``reference/`` were written by the seed commit's
``pairquench`` CLI with one BLAS thread: the two quench configurations below
and the full 61-point default sweep at ``t_f = 800``.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

MODEL = {"kappa": 1.0, "u": -6.24, "v": -6.24}
PACKET = {"k0_pi": -0.9, "width": 0.2, "center_site": 36, "branch": "upper"}
F_HEADLINE = -0.097120

#: default sweep grid of the CLI: start, step and point count
GRID_START, GRID_STEP, GRID_POINTS = -0.0995, 7.5e-5, 61
SWEEP_FIELDS = 4
T_FINAL = 800.0

#: |value - reference| <= CSV_TOL * (1 + |reference|) on every numeric CSV field
CSV_TOL = 1e-9
#: largest |norm - 1| allowed in a trajectory (CSV values carry 12 digits)
NORM_TOL = 1e-10
#: criterion 4: mean bound weight on t in [400, 800] of the headline quench
WINDOW = (400.0, 800.0)
WINDOW_RANGE = (0.90, 0.96)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    n_sites: int
    threads: int
    t_max: float = 0.0
    reference: str = ""
    #: worker count of the sweep run once per benchmark run for the byte-identity check
    cross_threads: int = 0


#: why each workload exists is recorded next to its name in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quench-headline", "quench", 111, 1,
            t_max=800.0, reference="trajectory_headline.csv",
        ),
        Workload(
            "sweep-serial", "sweep", 111, 1,
            reference="sweep_tf800.csv", cross_threads=2,
        ),
        Workload(
            "sweep-2proc", "sweep", 111, 2,
            reference="sweep_tf800.csv", cross_threads=1,
        ),
        Workload(
            "quench-n201", "quench", 201, 1,
            t_max=130.0, reference="trajectory_n201.csv",
        ),
    )
}


def sweep_offset(seed: int) -> int:
    """First default-grid index of the seed's contiguous sweep sub-grid."""
    return random.Random(seed).randrange(GRID_POINTS - SWEEP_FIELDS + 1)


def config_text(workload: Workload, seed: int) -> str:
    """INI config of the workload's inputs for this seed."""
    model = dict(n_sites=workload.n_sites, **MODEL)
    sections = {"model": model, "packet": PACKET}
    if workload.experiment == "quench":
        model["field"] = F_HEADLINE
        sections["time"] = {"t_max": workload.t_max, "dt": 1.0}
    else:
        start = GRID_START + GRID_STEP * sweep_offset(seed)
        sections["sweep"] = {
            "f_start": repr(start),
            "f_stop": repr(start + GRID_STEP * (SWEEP_FIELDS - 1)),
            "f_step": repr(GRID_STEP),
            "t_f": T_FINAL,
        }
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    return "\n".join(lines) + "\n"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(cell) for cell in row] for row in rows[1:]]


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= CSV_TOL * (1.0 + abs(reference))


def _compare(rows, reference_rows) -> str:
    """Empty when the rows match the reference rows, else the first mismatch."""
    if len(rows) != len(reference_rows):
        return f"{len(rows)} rows, reference has {len(reference_rows)}"
    for index, (row, ref) in enumerate(zip(rows, reference_rows)):
        if len(row) != len(ref) or not all(map(_close, row, ref)):
            return f"row {index + 1}: {row} against reference {ref}"
    return ""


def check_quench(workload: Workload, artifacts: Path) -> list[Check]:
    header, rows = _read_csv(artifacts / "trajectory.csv")
    ref_header, ref_rows = _read_csv(REFERENCE / workload.reference)
    mismatch = _compare(rows, ref_rows) if header == ref_header else f"header {header}"
    checks = [Check("trajectory matches seed reference", not mismatch, mismatch)]
    drift = max(abs(row[4] - 1.0) for row in rows)
    checks.append(Check("norm drift", drift <= NORM_TOL, f"max |norm - 1| = {drift:.3g}"))
    if workload.name == "quench-headline":
        window = [row[1] for row in rows if WINDOW[0] <= row[0] <= WINDOW[1]]
        mean = sum(window) / len(window)
        ok = WINDOW_RANGE[0] <= mean <= WINDOW_RANGE[1]
        checks.append(Check("criterion-4 window mean bound weight", ok, f"{mean:.6f}"))
    return checks


def check_sweep(workload: Workload, artifacts: Path, seed: int) -> tuple[list[Check], int]:
    """Checks of one sweep run and the number of failed grid points it reports."""
    header, rows = _read_csv(artifacts / "sweep.csv")
    _, ref_rows = _read_csv(REFERENCE / workload.reference)
    offset = sweep_offset(seed)
    expected = ref_rows[offset : offset + SWEEP_FIELDS]
    mismatch = _compare(rows, expected) if header == ["F", "transfer_tf"] else f"header {header}"
    failures = json.loads((artifacts / "sweep_period.json").read_text(encoding="utf-8"))["failures"]
    return [Check("sweep matches seed reference", not mismatch, mismatch)], len(failures)

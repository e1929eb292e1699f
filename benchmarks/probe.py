"""Run one ``pairquench`` command-line invocation in this process and record spans.

    python3 probe.py RECORD TRACE -- EXPERIMENT [CLI OPTIONS...]

RECORD receives a JSON object: the CLI exit code, the path pairquench was
imported from, the spans recorded around calls into the pairquench layers and
the kernel counts computed along the way.  With TRACE=0 only the boundary
spans are kept: the import, ``cli.main``, ``QuenchWorkspace.prepare`` (set-up
ends) and ``run_quench`` / ``sweep_transfer`` (solve ends).  With TRACE=1 the
public entry points of ``model``, ``bound_band``, ``propagation``, ``quench``
and ``reporting`` are wrapped as well.  The source tree is not modified: the
wrappers replace module and class attributes in this process only.

Spans stay in memory and are written once, when the invocation ends.  Forked
sweep workers inherit the wrappers; each appends its spans to RECORD.w<pid>
whenever it finishes a grid point, and the spans are merged here at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: counts summed over calls and processes; every other count keeps its peak
ADDITIVE_COUNTS = ("matvecs", "samples")


def _tally(counts: dict[str, int], key: str, value: int) -> None:
    if key in ADDITIVE_COUNTS:
        counts[key] = counts.get(key, 0) + value
    else:
        counts[key] = max(counts.get(key, 0), value)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and counters of one process."""

    def __init__(self, record: Path):
        self.record = record
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _adopt_process(self) -> None:
        pid = os.getpid()
        if pid != self.pid:  # first call in a forked pool worker
            self.pid, self.spans, self.stack, self.counts = pid, [], [], {}

    def tally(self, key: str, value: int) -> None:
        _tally(self.counts, key, value)

    @contextmanager
    def span(self, name: str):
        self._adopt_process()
        index = len(self.spans)
        entry = [name, time.monotonic(), None, self.stack[-1] if self.stack else None]
        self.spans.append(entry)
        self.stack.append(index)
        try:
            yield
        finally:
            entry[2] = time.monotonic()
            self.stack.pop()
            if not self.stack and self.pid != self.owner:
                self._flush_worker()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, result)
            return result

        return traced

    def _flush_worker(self) -> None:
        line = json.dumps({"spans": self.spans, "counts": self.counts})
        with open(f"{self.record}.w{self.pid}", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.spans, self.counts = [], {}

    def merged(self) -> tuple[list[list], dict[str, int]]:
        """This process's spans plus every worker's, each tagged with its pid."""
        spans = [span + [self.owner] for span in self.spans]
        counts = dict(self.counts)
        for path in sorted(self.record.parent.glob(self.record.name + ".w*")):
            pid = int(path.name.rsplit(".w", 1)[1])
            for line in path.read_text(encoding="utf-8").splitlines():
                batch = json.loads(line)
                offset = len(spans)
                for name, start, end, parent in batch["spans"]:
                    spans.append([name, start, end, None if parent is None else parent + offset, pid])
                for key, value in batch["counts"].items():
                    _tally(counts, key, value)
            path.unlink()
        return spans, counts


def _count_operator(tracer: Tracer, args, result) -> None:
    h = args[0].h
    tracer.tally("h_nnz", int(h.nnz))
    tracer.tally("h_dim", int(h.shape[0]))
    tracer.tally("h_value_bytes", h.data.itemsize)
    tracer.tally("h_index_bytes", h.indices.itemsize)


def _count_matvecs(tracer: Tracer, args, result) -> None:
    # one matvec per Chebyshev term after the zeroth; the coefficient array of
    # this step size is cached by the propagator, so reading it is free
    propagator, dt = args[0], args[2]
    tracer.tally("matvecs", len(propagator._coefficients(dt)) - 1)


def _count_bound_matrix(tracer: Tracer, args, result) -> None:
    tracer.tally("bound_matrix_bytes", int(result[0].nbytes))


def _count_samples(tracer: Tracer, args, result) -> None:
    tracer.tally("samples", len(result.times))


def instrument(tracer: Tracer, all_layers: bool) -> None:
    """Wrap the boundary calls, and with ``all_layers`` every layer's entry points."""
    from pairquench import bound_band, cli, propagation, quench, reporting

    def patch(owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(original.__func__, name, count)))
        else:
            setattr(owner, attr, tracer.wrap(original, name, count))

    patch(quench.QuenchWorkspace, "prepare", "quench.QuenchWorkspace.prepare")
    patch(cli, "run_quench", "quench.run_quench")
    patch(cli, "sweep_transfer", "quench.sweep_transfer")
    if not all_layers:
        return
    patch(quench, "build_basis", "model.build_basis")
    patch(quench, "build_h0", "model.build_h0")
    patch(quench, "band_scan", "bound_band.band_scan")
    patch(bound_band.BandStructure, "bound_matrix", "bound_band.bound_matrix", _count_bound_matrix)
    patch(quench, "prepare_wavepacket", "quench.prepare_wavepacket")
    patch(quench.QuenchWorkspace, "hamiltonian", "quench.hamiltonian")
    patch(quench, "evolve", "quench.evolve", _count_samples)
    patch(quench, "_sweep_point", "quench.sweep_point")
    patch(propagation.ChebyshevPropagator, "__init__", "propagation.init", _count_operator)
    patch(propagation, "spectral_bounds", "propagation.spectral_bounds")
    patch(propagation.ChebyshevPropagator, "advance", "propagation.advance", _count_matvecs)
    for writer in ("write_trajectory_csv", "write_sweep_csv", "write_json"):
        patch(reporting, writer, "reporting." + writer)


def main(argv: list[str]) -> int:
    record, traced = Path(argv[1]), argv[2] == "1"
    cli_args = argv[argv.index("--") + 1 :]
    tracer = Tracer(record)
    with tracer.span("cli.import"):
        from pairquench import cli
    instrument(tracer, all_layers=traced)
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    spans, counts = tracer.merged()
    payload = {
        "exit_code": code,
        "module": sys.modules["pairquench"].__file__,
        "spans": spans,
        "counts": counts,
    }
    record.write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))

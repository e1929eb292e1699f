"""Command-line entry point.

Each experiment reads a sectioned key=value config file (INI syntax), runs
deterministically, and writes CSV artifacts plus a JSON manifest recording
the resolved configuration, library versions and wall time.  Without
``--config`` the built-in defaults reproduce the headline quench study.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import sys
import time
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import reporting, three_site
from .bound_band import band_scan
from .model import ModelParams
from .quench import QuenchWorkspace, WavePacketSpec, packet_weights, run_quench, sweep_transfer

EXPERIMENTS = ("three-site", "band", "spectrum", "quench", "sweep")

#: most sample times, sweep fields or spectrum fields one run may ask for
MAX_POINTS = 10**6


def _sites(raw: str) -> int:
    value = int(raw)
    if value < 2:
        raise ValueError("need at least 2 sites")
    return value


def _odd_sites(raw: str) -> int:
    value = int(raw)
    if value < 3 or value % 2 == 0:
        raise ValueError("the ring momentum grid needs an odd site count of at least 3")
    return value


def _three_sites(raw: str) -> int:
    value = int(raw)
    if value != 3:
        raise ValueError("the three-site model has n_sites = 3")
    return value


def _open_boundary(raw: str) -> str:
    if raw != "open":
        raise ValueError("every experiment runs on the open chain")
    return raw


def _k0_pi(raw: str) -> float:
    value = float(raw)
    if not -1.0 <= value <= 1.0:
        raise ValueError("the center momentum in units of pi must lie in [-1, 1]")
    return value


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _positive(raw: str) -> float:
    value = _finite(raw)
    if value <= 0.0:
        raise ValueError("must be positive")
    return value


def _non_negative(raw: str) -> float:
    value = _finite(raw)
    if value < 0.0:
        raise ValueError("must not be negative")
    return value


def _pair_hopping(raw: str) -> float:
    value = _non_negative(raw)
    if value == 0.0:
        raise ValueError("a bound-pair packet needs kappa > 0")
    return value


def _pair_interaction(raw: str) -> float:
    value = _finite(raw)
    if value == 0.0:
        raise ValueError("a bound-pair packet needs u != 0")
    return value


def _field_count(raw: str) -> int:
    value = int(raw)
    if not 3 <= value <= MAX_POINTS:
        raise ValueError(f"crossing detection needs 3..{MAX_POINTS} fields")
    return value


def _fields(raw: str) -> list[float]:
    values = [_finite(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ValueError("need at least one field")
    return values


_BRANCH_ALIASES = {"upper": "+", "lower": "-", "+": "+", "-": "-"}


def _branch(raw: str) -> str:
    try:
        return _BRANCH_ALIASES[raw.lower()]
    except KeyError:
        raise ValueError(f"choose one of {', '.join(_BRANCH_ALIASES)}") from None


# (section, key, parser, required) per experiment; a parser raises ValueError
SCHEMA: dict[str, list[tuple[str, str, Callable[[str], object], bool]]] = {
    "three-site": [
        ("model", "n_sites", _three_sites, True),
        ("model", "kappa", _non_negative, True),
        ("model", "u", _finite, True),
        ("model", "v", _finite, True),
        ("model", "boundary", _open_boundary, False),
        ("three_site", "fields", _fields, True),
        ("three_site", "t_max", _non_negative, True),
        ("three_site", "dt", _positive, True),
    ],
    "band": [
        ("model", "n_sites", _odd_sites, True),
        ("model", "kappa", _non_negative, True),
        ("model", "u", _finite, True),
        ("model", "boundary", _open_boundary, False),
    ],
    "spectrum": [
        ("model", "n_sites", _sites, True),
        ("model", "kappa", _non_negative, True),
        ("model", "u", _finite, True),
        ("model", "v", _finite, True),
        ("model", "boundary", _open_boundary, False),
        ("spectrum", "f_start", _finite, True),
        ("spectrum", "f_stop", _finite, True),
        ("spectrum", "f_count", _field_count, True),
        ("spectrum", "r_threshold", _finite, False),
        ("spectrum", "window_lo", _finite, False),
        ("spectrum", "window_hi", _finite, False),
    ],
    "quench": [
        ("model", "n_sites", _odd_sites, True),
        ("model", "kappa", _pair_hopping, True),
        ("model", "u", _pair_interaction, True),
        ("model", "v", _finite, True),
        ("model", "field", _finite, True),
        ("model", "boundary", _open_boundary, False),
        ("packet", "k0_pi", _k0_pi, True),
        ("packet", "width", _positive, True),
        ("packet", "center_site", int, True),
        ("packet", "branch", _branch, False),
        ("time", "t_max", _non_negative, True),
        ("time", "dt", _positive, True),
    ],
    "sweep": [
        ("model", "n_sites", _odd_sites, True),
        ("model", "kappa", _pair_hopping, True),
        ("model", "u", _pair_interaction, True),
        ("model", "v", _finite, True),
        ("model", "boundary", _open_boundary, False),
        ("packet", "k0_pi", _k0_pi, True),
        ("packet", "width", _positive, True),
        ("packet", "center_site", int, True),
        ("packet", "branch", _branch, False),
        ("sweep", "f_start", _finite, True),
        ("sweep", "f_stop", _finite, True),
        ("sweep", "f_step", _positive, True),
        ("sweep", "t_f", _positive, True),
    ],
}

_PAPER_MODEL = {"n_sites": 111, "kappa": 1.0, "u": -6.24, "v": -6.24}
_PAPER_PACKET = {"k0_pi": -0.9, "width": 0.2, "center_site": 36, "branch": "+"}

DEFAULTS: dict[str, dict[str, dict]] = {
    "three-site": {
        "model": {"n_sites": 3, "kappa": 0.4, "u": -6.0, "v": -6.0},
        "three_site": {"fields": [-3.0, -1.0], "t_max": 100.0, "dt": 0.05},
    },
    "band": {"model": dict(_PAPER_MODEL)},
    "spectrum": {
        "model": {"n_sites": 3, "kappa": 0.4, "u": -6.0, "v": -6.0},
        "spectrum": {"f_start": -5.0, "f_stop": -1.0, "f_count": 81, "r_threshold": 1.0},
    },
    "quench": {
        "model": dict(_PAPER_MODEL, field=-0.097120),
        "packet": dict(_PAPER_PACKET),
        "time": {"t_max": 800.0, "dt": 1.0},
    },
    "sweep": {
        "model": dict(_PAPER_MODEL),
        "packet": dict(_PAPER_PACKET),
        "sweep": {"f_start": -0.0995, "f_stop": -0.0950, "f_step": 7.5e-5, "t_f": 800.0},
    },
}


def _sweep_grid(section: dict) -> np.ndarray:
    """Fields of a ``[sweep]`` section: ``f_start`` plus whole ``f_step`` steps up to ``f_stop``."""
    count = int(round((section["f_stop"] - section["f_start"]) / section["f_step"])) + 1
    return section["f_start"] + section["f_step"] * np.arange(count)


class ConfigError(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def load_config(experiment: str, path: str | None) -> dict[str, dict]:
    """Resolve the run configuration, validating every required field."""
    if path is None:
        return copy.deepcopy(DEFAULTS[experiment])
    # values are numbers and words, so a '%' is a typo, never an interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # no section header, a repeated section or key
        raise ConfigError([f"config file not readable: {exc}"]) from None
    if not read:
        raise ConfigError([f"config file not found: {path}"])
    problems = []
    config: dict[str, dict] = {}
    for section, key, typ, required in SCHEMA[experiment]:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                config.setdefault(section, {})[key] = typ(raw)
            except ValueError as exc:
                problems.append(f"invalid value for [{section}] {key}: {raw!r} ({exc})")
        elif required:
            problems.append(f"missing [{section}] {key}")
    site = config.get("packet", {}).get("center_site")
    n_sites = config.get("model", {}).get("n_sites")
    if site is not None and n_sites is not None and not 1 <= site <= n_sites:
        problems.append(f"invalid value for [packet] center_site: {site} (outside sites 1..{n_sites})")
    f_start = config.get("sweep", {}).get("f_start")
    f_stop = config.get("sweep", {}).get("f_stop")
    if f_start is not None and f_stop is not None and f_stop < f_start:
        problems.append(f"invalid value for [sweep] f_stop: {f_stop} (below f_start {f_start})")
    f_step = config.get("sweep", {}).get("f_step")
    if None not in (f_start, f_stop, f_step) and f_stop >= f_start:
        if (f_stop - f_start) / f_step + 1 > MAX_POINTS:
            problems.append(
                f"invalid value for [sweep] f_step: {f_step} (more than {MAX_POINTS} fields from f_start to f_stop)"
            )
        else:
            grid = _sweep_grid(config["sweep"])
            bad = grid[(grid == 0.0) | ~np.isfinite(grid)]
            if bad.size:
                problems.append(
                    f"invalid [sweep] grid: the fields from f_start {f_start} in steps of {f_step} "
                    f"include F = {bad[0]} (every field must be finite and nonzero)"
                )
    for section in ("time", "three_site"):
        times = config.get(section, {})
        if {"t_max", "dt"} <= times.keys() and times["t_max"] / times["dt"] + 1 > MAX_POINTS:
            problems.append(
                f"invalid value for [{section}] t_max: {times['t_max']} "
                f"(more than {MAX_POINTS} samples at dt {times['dt']})"
            )
    model = config.get("model", {})
    if experiment in ("quench", "sweep") and {"u", "v"} <= model.keys() and model["u"] != model["v"]:
        problems.append(
            f"invalid value for [model] v: {model['v']} (the bound-pair band of {experiment} needs v == u = {model['u']})"
        )
    if {"u", "kappa"} <= model.keys():
        for f in config.get("three_site", {}).get("fields", []):
            try:  # a field of 0 or +-u makes a denominator vanish
                three_site.rabi_constants(f, model["u"], model["kappa"])
            except three_site.SingularParameterError as exc:
                problems.append(f"invalid value for [three_site] fields: {f} ({exc})")
            except OverflowError:
                problems.append(f"invalid value for [three_site] fields: {f} (too large)")
    if problems:
        raise ConfigError(problems)
    if experiment in ("quench", "sweep"):
        try:  # the packet may sit where its branch has no bound state, or be too narrow
            packet_weights(_packet_spec(config), band_scan(model["kappa"], model["u"], model["n_sites"]))
        except ValueError as exc:
            raise ConfigError([f"invalid [packet] for the bound band of [model]: {exc}"]) from None
    return config


def _model_params(config: dict, field: float | None = None) -> ModelParams:
    section = config["model"]
    return ModelParams(
        n_sites=section["n_sites"],
        kappa=section["kappa"],
        u=section["u"],
        v=section.get("v", 0.0),
        field=section.get("field", 0.0) if field is None else field,
    )


def _packet_spec(config: dict) -> WavePacketSpec:
    section = config["packet"]
    return WavePacketSpec(
        center_momentum=section["k0_pi"] * np.pi,
        width=section["width"],
        center_site=section["center_site"],
        branch=section.get("branch", "+"),
    )


def _run_three_site(config, out: Path, args) -> list[str]:
    section = config["three_site"]
    times = np.arange(0.0, section["t_max"] + 0.5 * section["dt"], section["dt"])
    outputs = []
    for f in section["fields"]:
        params = _model_params(config, field=f)
        constants = three_site.rabi_constants(f, params.u, params.kappa)
        analytic = three_site.transfer_probability(times, constants)
        pair_loss, unpair = three_site.exact_pair_dynamics(params, times)
        name = f"three_site_F{reporting.fmt(f)}.csv"
        reporting.write_csv(
            out / name,
            ["t", "transfer_analytic", "transfer_exact", "unpair_weight_exact"],
            zip(times, analytic, pair_loss, unpair),
        )
        outputs.append(name)
    if args.emit_plots:
        reporting.write_gnuplot(out / "three_site.gp", "three-site", outputs[0])
        outputs.append("three_site.gp")
    return outputs


def _run_band(config, out: Path, args) -> list[str]:
    model = config["model"]
    band = band_scan(model["kappa"], model["u"], model["n_sites"])
    reporting.write_band_csv(out / "band.csv", band)
    outputs = ["band.csv"]
    if args.emit_plots:
        reporting.write_gnuplot(out / "band.gp", "band", "band.csv")
        outputs.append("band.gp")
    return outputs


def _run_spectrum(config, out: Path, args) -> list[str]:
    from . import spectrum  # scipy.optimize loads only for this experiment

    section = config["spectrum"]
    params = _model_params(config, field=0.0)
    f_values = np.linspace(section["f_start"], section["f_stop"], section["f_count"])
    window = None
    if "window_lo" in section and "window_hi" in section:
        window = (section["window_lo"], section["window_hi"])
    slices = spectrum.spectrum_vs_field(f_values, params, window)
    r_threshold = section.get("r_threshold", 1.0)
    labels = [spectrum.classify_levels(s, r_threshold) for s in slices]
    scan = spectrum.detect_avoided_crossings(slices, r_threshold=r_threshold)
    reporting.write_spectrum_csv(out / "spectrum.csv", slices, labels, scan.track_ids)
    reporting.write_json(out / "crossings.json", reporting.crossing_payload(scan))
    outputs = ["spectrum.csv", "crossings.json"]
    if args.emit_plots:
        reporting.write_gnuplot(out / "spectrum.gp", "spectrum", "spectrum.csv")
        outputs.append("spectrum.gp")
    return outputs


def _run_quench(config, out: Path, args) -> list[str]:
    params = _model_params(config)
    workspace = QuenchWorkspace.prepare(replace(params, field=0.0), _packet_spec(config))
    section = config["time"]
    times = np.arange(0.0, section["t_max"] + 0.5 * section["dt"], section["dt"])
    trajectory = run_quench(workspace, params.field, times)
    reporting.write_trajectory_csv(out / "trajectory.csv", trajectory)
    outputs = ["trajectory.csv"]
    if args.emit_plots:
        reporting.write_gnuplot(out / "quench.gp", "quench", "trajectory.csv")
        outputs.append("quench.gp")
    return outputs


def _run_sweep(config, out: Path, args) -> list[str]:
    params = _model_params(config, field=0.0)
    workspace = QuenchWorkspace.prepare(params, _packet_spec(config))
    section = config["sweep"]
    f_values = _sweep_grid(section)
    sweep = sweep_transfer(workspace, f_values, section["t_f"], workers=args.threads)
    reporting.write_sweep_csv(out / "sweep.csv", sweep)
    reporting.write_json(
        out / "sweep_period.json",
        {
            "period": sweep.period.period,
            "uncertainty": sweep.period.uncertainty,
            "lag": sweep.period.lag,
            "strength": sweep.period.strength,
            "t_f": sweep.t_final,
            "f_start": float(f_values[0]),
            "f_stop": float(f_values[-1]),
            "f_step": section["f_step"],
            "failures": [{"F": f, "error": msg} for f, msg in sweep.failures],
        },
    )
    outputs = ["sweep.csv", "sweep_period.json"]
    if args.emit_plots:
        reporting.write_gnuplot(out / "sweep.gp", "sweep", "sweep.csv")
        outputs.append("sweep.gp")
    return outputs


_RUNNERS = {
    "three-site": _run_three_site,
    "band": _run_band,
    "spectrum": _run_spectrum,
    "quench": _run_quench,
    "sweep": _run_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairquench",
        description="Two-boson lattice dynamics: bound-pair bands, spectra and field quenches.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="INI config file (built-in defaults when omitted)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default runs/<experiment>)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for the sweep grid")
        p.add_argument("--emit-plots", action="store_true",
                       help="write gnuplot scripts next to the CSV output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("argument --threads: must be at least 1")
    try:
        config = load_config(args.experiment, args.config)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    # every writer creates the directory, so a run that fails in set-up leaves none
    out = Path(args.out) if args.out else Path("runs") / args.experiment
    started = time.perf_counter()
    try:
        outputs = _RUNNERS[args.experiment](config, out, args)
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    reporting.write_json(
        out / "manifest.json",
        {
            "experiment": args.experiment,
            "config": config,
            "threads": args.threads,
            "versions": reporting.versions(),
            "wall_time_seconds": time.perf_counter() - started,
            "outputs": outputs,
        },
    )
    for name in outputs:
        print(out / name)
    print(out / "manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())

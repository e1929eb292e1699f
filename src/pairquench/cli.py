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
from pathlib import Path

import numpy as np

from . import reporting, three_site
from .bound_band import band_scan
from .model import ModelParams
from .quench import IncompleteBandError, QuenchWorkspace, WavePacketSpec, run_quench, sweep_transfer

EXPERIMENTS = ("three-site", "band", "spectrum", "quench", "sweep")

#: most sample times, sweep fields, spectrum fields or basis states one run may ask for
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


# the model rows that three-site and spectrum share
_CHAIN_MODEL = [
    ("model", "kappa", _non_negative, True),
    ("model", "u", _finite, True),
    ("model", "v", _finite, True),
]
# the bound-pair packet of quench and sweep needs kappa > 0, u != 0 and v == u
_PAIR_MODEL = [
    ("model", "n_sites", _odd_sites, True),
    ("model", "kappa", _pair_hopping, True),
    ("model", "u", _pair_interaction, True),
    ("model", "v", _finite, True),
]
_PACKET = [
    ("packet", "k0_pi", _k0_pi, True),
    ("packet", "width", _positive, True),
    ("packet", "center_site", int, True),
    ("packet", "branch", _branch, False),
]

# (section, key, parser, required) per experiment, every key a config may hold; a parser raises ValueError
SCHEMA: dict[str, list[tuple[str, str, Callable[[str], object], bool]]] = {
    "three-site": [
        ("model", "n_sites", _three_sites, True),
        *_CHAIN_MODEL,
        ("three_site", "fields", _fields, True),
        ("three_site", "t_max", _non_negative, True),
        ("three_site", "dt", _positive, True),
    ],
    "band": [
        ("model", "n_sites", _odd_sites, True),
        ("model", "kappa", _non_negative, True),
        ("model", "u", _finite, True),
    ],
    "spectrum": [
        ("model", "n_sites", _sites, True),
        *_CHAIN_MODEL,
        ("spectrum", "f_start", _finite, True),
        ("spectrum", "f_stop", _finite, True),
        ("spectrum", "f_count", _field_count, True),
        ("spectrum", "r_threshold", _finite, False),
        ("spectrum", "window_lo", _finite, False),
        ("spectrum", "window_hi", _finite, False),
    ],
    "quench": [
        *_PAIR_MODEL,
        ("model", "field", _finite, True),
        *_PACKET,
        ("time", "t_max", _non_negative, True),
        ("time", "dt", _positive, True),
    ],
    "sweep": [
        *_PAIR_MODEL,
        *_PACKET,
        ("sweep", "f_start", _finite, True),
        ("sweep", "f_stop", _finite, True),
        ("sweep", "f_step", _positive, True),
        ("sweep", "t_f", _positive, True),
    ],
}

_PAPER_BAND = {"n_sites": 111, "kappa": 1.0, "u": -6.24}
_PAPER_MODEL = dict(_PAPER_BAND, v=_PAPER_BAND["u"])
_PAPER_PACKET = {"k0_pi": -0.9, "width": 0.2, "center_site": 36, "branch": "+"}

DEFAULTS: dict[str, dict[str, dict]] = {
    "three-site": {
        "model": {"n_sites": 3, "kappa": 0.4, "u": -6.0, "v": -6.0},
        "three_site": {"fields": [-3.0, -1.0], "t_max": 100.0, "dt": 0.05},
    },
    "band": {"model": dict(_PAPER_BAND)},
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


def _grid_points(start: float, stop: float, step: float) -> float:
    """How many points ``start + step * k`` lie at or below ``stop``, to within 1e-9 of a step; inf past the floats."""
    return np.floor((stop - start) / step + 1e-9) + 1.0


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """``start + step * k`` for ``k = 0, 1, ...``: the sweep fields and the sample times, never past ``stop``."""
    return start + step * np.arange(int(_grid_points(start, stop, step)))


def _sweep_grid(section: dict) -> np.ndarray:
    """Fields of a ``[sweep]`` section: ``f_start`` plus whole ``f_step`` steps up to ``f_stop``."""
    return _grid(section["f_start"], section["f_stop"], section["f_step"])


class ConfigError(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def load_config(experiment: str, path: str | None) -> dict[str, dict]:
    """Resolve the run configuration: every schema key valid, every required one given, no other."""
    if path is None:
        return copy.deepcopy(DEFAULTS[experiment])
    # values are numbers and words, so a '%' is a typo, never an interpolation; no
    # header names the empty section, so [DEFAULT] is an ordinary (unknown) section
    # whose keys reach no other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # key names match the schema exactly, as section names do
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # no section header, a repeated section or key
        raise ConfigError([f"config file not readable: {exc}"]) from None
    if not read:
        raise ConfigError([f"config file not found: {path}"])
    problems = []
    known: dict[str, set[str]] = {}
    for section, key, _, _ in SCHEMA[experiment]:
        known.setdefault(section, set()).add(key)
    for section in parser.sections():
        if section not in known:
            problems.append(f"unknown section [{section}]")
            continue
        problems.extend(f"unknown key [{section}] {key}" for key in parser[section] if key not in known[section])
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
        if _grid_points(f_start, f_stop, f_step) > MAX_POINTS:
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
    window = config.get("spectrum", {})
    ends = {"window_lo", "window_hi"} & window.keys()
    if len(ends) == 1:
        missing = ({"window_lo", "window_hi"} - ends).pop()
        problems.append(f"missing [spectrum] {missing} (a window needs both window_lo and window_hi)")
    elif ends and window["window_lo"] >= window["window_hi"]:
        problems.append(
            f"invalid value for [spectrum] window_hi: {window['window_hi']} "
            f"(not above window_lo {window['window_lo']})"
        )
    for section in ("time", "three_site"):
        times = config.get(section, {})
        if {"t_max", "dt"} <= times.keys() and _grid_points(0.0, times["t_max"], times["dt"]) > MAX_POINTS:
            problems.append(
                f"invalid value for [{section}] t_max: {times['t_max']} "
                f"(more than {MAX_POINTS} samples at dt {times['dt']})"
            )
    model = config.get("model", {})
    if experiment in ("quench", "sweep") and {"u", "v"} <= model.keys() and model["u"] != model["v"]:
        problems.append(
            f"invalid value for [model] v: {model['v']} (the bound-pair band of {experiment} needs v == u = {model['u']})"
        )
    states = None if n_sites is None else n_sites * (n_sites + 1) // 2
    if experiment in ("quench", "sweep", "spectrum") and states is not None and states > MAX_POINTS:
        problems.append(
            f"invalid value for [model] n_sites: {n_sites} (more than {MAX_POINTS} two-boson states)"
        )
    elif experiment == "spectrum" and states is not None:
        from .spectrum import MAX_DENSE_STATES  # a spectrum run loads the module anyway

        if states > MAX_DENSE_STATES and not {"window_lo", "window_hi"} <= config.get("spectrum", {}).keys():
            problems.append(
                f"invalid value for [model] n_sites: {n_sites} (more than {MAX_DENSE_STATES} two-boson "
                "states, which a spectrum without [spectrum] window_lo and window_hi diagonalises densely)"
            )
    fields = config.get("three_site", {}).get("fields", [])
    first_of: dict[str, float] = {}
    for f in fields:
        name = _three_site_name(f)
        if name in first_of:
            problems.append(f"invalid value for [three_site] fields: {first_of[name]} and {f} both write {name}")
        first_of.setdefault(name, f)
    if {"u", "kappa"} <= model.keys():
        for f in fields:
            try:  # a field of 0 or +-u makes a denominator vanish
                three_site.rabi_constants(f, model["u"], model["kappa"])
            except three_site.SingularParameterError as exc:
                problems.append(f"invalid value for [three_site] fields: {f} ({exc})")
            except OverflowError:
                problems.append(f"invalid value for [three_site] fields: {f} (too large)")
    if problems:
        raise ConfigError(problems)
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


def _three_site_name(field: float) -> str:
    """The CSV of one three-site field, named by its 12-digit rendering."""
    return f"three_site_F{reporting.fmt(field)}.csv"


def _run_three_site(config, out: Path, threads: int) -> tuple[list[str], dict]:
    section = config["three_site"]
    times = _grid(0.0, section["t_max"], section["dt"])
    outputs = []
    for f in section["fields"]:
        params = _model_params(config, field=f)
        constants = three_site.rabi_constants(f, params.u, params.kappa)
        analytic = three_site.transfer_probability(times, constants)
        pair_loss, unpair = three_site.exact_pair_dynamics(params, times)
        name = _three_site_name(f)
        reporting.write_csv(
            out / name,
            ["t", "transfer_analytic", "transfer_exact", "unpair_weight_exact"],
            zip(times, analytic, pair_loss, unpair),
        )
        outputs.append(name)
    return outputs, {}


def _run_band(config, out: Path, threads: int) -> tuple[list[str], dict]:
    model = config["model"]
    band = band_scan(model["kappa"], model["u"], model["n_sites"])
    reporting.write_band_csv(out / "band.csv", band)
    return ["band.csv"], {}


def _run_spectrum(config, out: Path, threads: int) -> tuple[list[str], dict]:
    from . import spectrum  # scipy.optimize loads only for this experiment

    section = config["spectrum"]
    f_values = np.linspace(section["f_start"], section["f_stop"], section["f_count"])
    window = (section["window_lo"], section["window_hi"]) if "window_lo" in section else None
    slices = spectrum.spectrum_vs_field(f_values, _model_params(config), window)
    if not any(s.energies.size for s in slices):
        raise ValueError(f"no level lies in the window [{window[0]}, {window[1]}] at any field")
    r_threshold = section.get("r_threshold", 1.0)
    labels = [spectrum.classify_levels(s, r_threshold) for s in slices]
    scan = spectrum.detect_avoided_crossings(slices, r_threshold=r_threshold)
    reporting.write_spectrum_csv(out / "spectrum.csv", slices, labels)
    reporting.write_json(out / "crossings.json", reporting.crossing_payload(scan))
    return ["spectrum.csv", "crossings.json"], {}


def _run_quench(config, out: Path, threads: int) -> tuple[list[str], dict]:
    params = _model_params(config)
    workspace = QuenchWorkspace.prepare(params, _packet_spec(config))
    section = config["time"]
    times = _grid(0.0, section["t_max"], section["dt"])
    trajectory = run_quench(workspace, params.field, times)
    reporting.write_trajectory_csv(out / "trajectory.csv", trajectory)
    stats = {
        **trajectory.propagation,
        "max_norm_error": float(np.max(np.abs(trajectory.norm - 1.0))),
        "max_total_energy_drift": float(np.max(np.abs(trajectory.total_energy - trajectory.total_energy[0]))),
    }
    return ["trajectory.csv"], stats


def _run_sweep(config, out: Path, threads: int) -> tuple[list[str], dict]:
    workspace = QuenchWorkspace.prepare(_model_params(config), _packet_spec(config))
    section = config["sweep"]
    f_values = _sweep_grid(section)
    sweep = sweep_transfer(workspace, f_values, section["t_f"], workers=threads)
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
    return ["sweep.csv", "sweep_period.json"], {}


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
                       help="worker processes of the sweep grid (1: one worker process)")
        p.add_argument("--emit-plots", action="store_true",
                       help="write gnuplot scripts next to the CSV output")
    return parser


def _config_error(problems: list[str]) -> int:
    print("configuration error:", file=sys.stderr)
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("argument --threads: must be at least 1")
    try:
        config = load_config(args.experiment, args.config)
    except ConfigError as exc:
        return _config_error(exc.problems)
    # every writer creates the directory, so a run that fails in set-up leaves none
    out = Path(args.out) if args.out else Path("runs") / args.experiment
    started = time.perf_counter()
    try:
        outputs, stats = _RUNNERS[args.experiment](config, out, args.threads)
    except IncompleteBandError as exc:  # from the packet check of QuenchWorkspace.prepare, before any writer
        return _config_error([f"invalid [packet] for the bound band of [model]: {exc}"])
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if args.emit_plots:
        script = args.experiment.replace("-", "_") + ".gp"
        reporting.write_gnuplot(out / script, args.experiment, outputs[0])
        outputs.append(script)
    reporting.write_json(
        out / "manifest.json",
        {
            "experiment": args.experiment,
            "config": config,
            "threads": args.threads,
            "versions": reporting.versions(),
            "wall_time_seconds": time.perf_counter() - started,
            "outputs": outputs,
            "stats": stats,
        },
    )
    for name in outputs:
        print(out / name)
    print(out / "manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())

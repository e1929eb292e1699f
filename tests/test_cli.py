import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairquench
from pairquench import cli, quench
from pairquench.bound_band import band_scan
from pairquench.cli import (
    EXPERIMENTS,
    MAX_POINTS,
    SCHEMA,
    ConfigError,
    _grid,
    _model_params,
    _packet_spec,
    _sweep_grid,
    load_config,
    main,
)
from pairquench.spectrum import MAX_DENSE_STATES

SMALL_QUENCH = """
[model]
n_sites = 15
kappa = 1.0
u = -6.24
v = -6.24
field = -0.21

[packet]
k0_pi = -0.9
width = 0.35
center_site = 8

[time]
t_max = 20
dt = 1.0
"""

SMALL_BAND = """
[model]
n_sites = 15
kappa = 1.0
u = -6.24
"""

SMALL_SWEEP = """
[model]
n_sites = 15
kappa = 1.0
u = -6.24
v = -6.24

[packet]
k0_pi = -0.9
width = 0.35
center_site = 8

[sweep]
f_start = -0.22
f_stop = -0.18
f_step = 0.01
t_f = 30
"""

THREE_SITE = """
[model]
n_sites = 3
kappa = 0.4
u = -6.0
v = -6.0

[three_site]
fields = -3.0
t_max = 50
dt = 0.5
"""


def run(args):
    return main([str(a) for a in args])


def run_python(args, **env_vars):
    """Run ``python args...`` in a fresh process on this checkout's package."""
    src = str(Path(pairquench.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, check=True, capture_output=True,
        text=True, timeout=300,
    )


def test_missing_config_file(tmp_path, capsys):
    assert run(["band", "--config", tmp_path / "nope.ini"]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_empty_config_lists_every_missing_field(tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("")
    assert run(["quench", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    for missing in (
        "missing [model] n_sites",
        "missing [model] field",
        "missing [packet] k0_pi",
        "missing [packet] width",
        "missing [packet] center_site",
        "missing [time] t_max",
        "missing [time] dt",
    ):
        assert missing in err


def test_invalid_value_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL_QUENCH.replace("n_sites = 15", "n_sites = many"))
    assert run(["quench", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "invalid value for [model] n_sites" in capsys.readouterr().err


def test_ring_boundary_rejected_at_config_time(tmp_path, capsys):
    # every run is on the open chain, so no config names a boundary
    for boundary in ("torus", "open"):
        cfg = tmp_path / f"{boundary}.ini"
        cfg.write_text(f"[model]\nn_sites = 111\nkappa = 1.0\nu = -6.24\nboundary = {boundary}\n")
        assert run(["band", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "configuration error:\n  unknown key [model] boundary\n"
        assert not (tmp_path / "out").exists()


# SMALL_QUENCH with kappa moved to [DEFAULT] and three typos: a run of it exited 0,
# on the upper branch, with kappa copied from [DEFAULT] into every section
TYPOS = "[DEFAULT]\nkappa = 1.0\n" + SMALL_QUENCH.replace("kappa = 1.0", "feild = 3").replace(
    "center_site = 8", "center_site = 8\nbrnach = lower"
) + "\n[tiem]\nt_max = 20\n"


def test_unknown_sections_and_keys_rejected_together(tmp_path, capsys):
    cfg = tmp_path / "typos.ini"
    cfg.write_text(TYPOS)
    assert run(["quench", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error:",
        "  unknown section [DEFAULT]",
        "  unknown key [model] feild",
        "  unknown key [packet] brnach",
        "  unknown section [tiem]",
        "  missing [model] kappa",  # [DEFAULT] lends no key
    ]
    assert not (tmp_path / "out").exists()


def test_key_names_match_the_schema_exactly(tmp_path, capsys):
    # as section names always did: an upper-case key loaded as n_sites before
    cfg = tmp_path / "upper.ini"
    cfg.write_text(SMALL_BAND.replace("n_sites", "N_SITES"))
    assert run(["band", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error:",
        "  unknown key [model] N_SITES",
        "  missing [model] n_sites",
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["band", "quench", "sweep"])
def test_even_site_count_rejected_at_config_time(tmp_path, capsys, experiment):
    text = {"band": SMALL_BAND, "quench": SMALL_QUENCH, "sweep": SMALL_SWEEP}[experiment]
    cfg = tmp_path / "even.ini"
    cfg.write_text(text.replace("n_sites = 15", "n_sites = 110"))
    assert run([experiment, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "invalid value for [model] n_sites: '110'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


PACKET_ERRORS = [
    ("k0_pi = -0.9", "k0_pi = -1.5", "invalid value for [packet] k0_pi: '-1.5'"),
    ("width = 0.35", "width = 0", "invalid value for [packet] width: '0'"),
    ("center_site = 8", "center_site = 40", "invalid value for [packet] center_site: 40"),
    ("center_site = 8", "center_site = 0", "invalid value for [packet] center_site: 0"),
    ("center_site = 8", "center_site = 8\nbranch = top", "invalid value for [packet] branch: 'top'"),
]


@pytest.mark.parametrize("experiment", ["quench", "sweep"])
@pytest.mark.parametrize("old, new, message", PACKET_ERRORS)
def test_packet_rejected_at_config_time(tmp_path, capsys, experiment, old, new, message):
    text = {"quench": SMALL_QUENCH, "sweep": SMALL_SWEEP}[experiment]
    cfg = tmp_path / "packet.ini"
    cfg.write_text(text.replace(old, new))
    assert run([experiment, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SPECTRUM = """
[model]
n_sites = 3
kappa = 0.4
u = -6.0
v = -6.0

[spectrum]
f_start = -4.0
f_stop = -2.0
f_count = 21
"""

CONFIGS = {
    "band": SMALL_BAND,
    "quench": SMALL_QUENCH,
    "sweep": SMALL_SWEEP,
    "three-site": THREE_SITE,
    "spectrum": SPECTRUM,
}

# one entry per checked key: the experiment, the replaced line and the message
KEY_ERRORS = [
    ("quench", "t_max = 20", "t_max = -5", "invalid value for [time] t_max: '-5'"),
    ("quench", "dt = 1.0", "dt = 0", "invalid value for [time] dt: '0'"),
    ("quench", "dt = 1.0", "dt = -1", "invalid value for [time] dt: '-1'"),
    ("sweep", "f_step = 0.01", "f_step = 0", "invalid value for [sweep] f_step: '0'"),
    ("sweep", "f_stop = -0.18", "f_stop = -0.25", "invalid value for [sweep] f_stop: -0.25 (below f_start -0.22)"),
    ("sweep", "t_f = 30", "t_f = 0", "invalid value for [sweep] t_f: '0'"),
    ("three-site", "t_max = 50", "t_max = -1", "invalid value for [three_site] t_max: '-1'"),
    ("three-site", "dt = 0.5", "dt = 0", "invalid value for [three_site] dt: '0'"),
    ("spectrum", "f_count = 21", "f_count = 0", "invalid value for [spectrum] f_count: '0'"),
    # non-finite numbers: an infinite f_stop ended in an OverflowError traceback,
    # an infinite field wrote a trajectory of nan
    ("sweep", "f_stop = -0.18", "f_stop = inf", "invalid value for [sweep] f_stop: 'inf' (must be finite)"),
    ("quench", "field = -0.21", "field = inf", "invalid value for [model] field: 'inf' (must be finite)"),
    ("quench", "dt = 1.0", "dt = nan", "invalid value for [time] dt: 'nan' (must be finite)"),
    # more samples or fields than MAX_POINTS: an _ArrayMemoryError traceback and a
    # "Maximum allowed size exceeded" exit 1, both after --out existed
    ("quench", "t_max = 20", "t_max = 1e15", "invalid value for [time] t_max: 1000000000000000.0"),
    ("three-site", "t_max = 50", "t_max = 1e6", "invalid value for [three_site] t_max: 1000000.0"),
    ("sweep", "f_step = 0.01", "f_step = 1e-300", "invalid value for [sweep] f_step: 1e-300"),
    ("spectrum", "f_count = 21", "f_count = 1000001", "invalid value for [spectrum] f_count: '1000001'"),
    # fewer than 3 fields failed in crossing detection after --out existed
    ("spectrum", "f_count = 21", "f_count = 2", "invalid value for [spectrum] f_count: '2'"),
    # three-site fields: unparsable, empty, non-finite, or a vanishing denominator of
    # rabi_constants (0, +-u) failed only after --out existed
    ("three-site", "fields = -3.0", "fields = abc", "invalid value for [three_site] fields: 'abc'"),
    ("three-site", "fields = -3.0", "fields = ,", "invalid value for [three_site] fields: ',' (need at least one field)"),
    ("three-site", "fields = -3.0", "fields = nan", "invalid value for [three_site] fields: 'nan' (must be finite)"),
    ("three-site", "fields = -3.0", "fields = 0.0", "invalid value for [three_site] fields: 0.0 (denominator field vanishes)"),
    ("three-site", "fields = -3.0", "fields = -3.0, -6.0", "invalid value for [three_site] fields: -6.0 (denominator field - u vanishes)"),
    ("three-site", "fields = -3.0", "fields = 6.0", "invalid value for [three_site] fields: 6.0 (denominator field + u vanishes)"),
    # fields of one 12-digit rendering wrote one CSV, the second overwriting the first, with exit 0
    ("three-site", "fields = -3.0", "fields = -3.0, -3.00000000000001",
     "invalid value for [three_site] fields: -3.0 and -3.00000000000001 both write three_site_F-3.csv"),
    ("three-site", "fields = -3.0", "fields = -3, -3",
     "invalid value for [three_site] fields: -3.0 and -3.0 both write three_site_F-3.csv"),
    # site counts: band wrote an empty band.csv, quench failed after --out existed
    ("band", "n_sites = 15", "n_sites = -3", "invalid value for [model] n_sites: '-3'"),
    ("quench", "n_sites = 15", "n_sites = 1", "invalid value for [model] n_sites: '1'"),
    ("spectrum", "n_sites = 3", "n_sites = 1", "invalid value for [model] n_sites: '1' (need at least 2 sites)"),
    # quench and sweep need u == v: v = 0 failed in QuenchWorkspace.prepare after --out existed
    ("quench", "v = -6.24", "v = 0", "invalid value for [model] v: 0.0 (the bound-pair band of quench needs v == u = -6.24)"),
    ("sweep", "v = -6.24", "v = -3", "invalid value for [model] v: -3.0 (the bound-pair band of sweep needs v == u = -6.24)"),
    # a negative hopping failed in ModelParams after --out existed, or wrote a band
    ("quench", "kappa = 1.0", "kappa = -1", "invalid value for [model] kappa: '-1' (must not be negative)"),
    ("band", "kappa = 1.0", "kappa = -1", "invalid value for [model] kappa: '-1' (must not be negative)"),
    # no hopping or no interaction leaves no bound band for the packet: the run
    # failed in prepare_wavepacket after --out existed
    ("quench", "kappa = 1.0", "kappa = 0", "invalid value for [model] kappa: '0' (a bound-pair packet needs kappa > 0)"),
    ("sweep", "u = -6.24\nv = -6.24", "u = 0\nv = 0", "invalid value for [model] u: '0' (a bound-pair packet needs u != 0)"),
    # a hopping or interaction that is not 0 but below the flat-sector threshold of
    # solve_bound_states left no bound state under the packet: exit 1 during set-up
    ("quench", "kappa = 1.0", "kappa = 1e-13",
     "invalid [packet] for the bound band of [model]: branch '+' has no bound state at K = -2.932153"),
    ("sweep", "u = -6.24\nv = -6.24", "u = 1e-300\nv = 1e-300",
     "invalid [packet] for the bound band of [model]: branch '+' has no bound state at K = -2.932153"),
    # a width whose square underflows: a packet of nan on the momentum grid at K0 = 0
    # (exit 0, a trajectory of nan) and of zeros elsewhere (exit 1 during set-up)
    ("quench", "k0_pi = -0.9\nwidth = 0.35", "k0_pi = 0\nwidth = 1e-200",
     "invalid [packet] for the bound band of [model]: a packet of width 1e-200 carries no weight"),
    ("sweep", "width = 0.35", "width = 1e-200",
     "invalid [packet] for the bound band of [model]: a packet of width 1e-200 carries no weight"),
    # a lone window_lo was ignored (all 30 levels at n = 3), and window_lo >= window_hi
    # wrote a header-only spectrum.csv, both with exit 0
    ("spectrum", "f_count = 21", "f_count = 21\nwindow_lo = 100",
     "missing [spectrum] window_hi (a window needs both window_lo and window_hi)"),
    ("spectrum", "f_count = 21", "f_count = 21\nwindow_hi = -3",
     "missing [spectrum] window_lo (a window needs both window_lo and window_hi)"),
    ("spectrum", "f_count = 21", "f_count = 21\nwindow_lo = -3\nwindow_hi = -3",
     "invalid value for [spectrum] window_hi: -3.0 (not above window_lo -3.0)"),
    # a grid through F = 0 failed in sweep_transfer after --out existed
    ("sweep", "f_start = -0.22\nf_stop = -0.18\nf_step = 0.01", "f_start = -0.1\nf_stop = 0.1\nf_step = 0.05",
     "invalid [sweep] grid: the fields from f_start -0.1 in steps of 0.05 include F = 0.0"),
    # the full message of every key parser, its rule's text included
    ("band", "n_sites = 15", "n_sites = 4",
     "invalid value for [model] n_sites: '4' (the ring momentum grid needs an odd site count of at least 3)"),
    ("three-site", "n_sites = 3", "n_sites = 4",
     "invalid value for [model] n_sites: '4' (the three-site model has n_sites = 3)"),
    ("quench", "k0_pi = -0.9", "k0_pi = 1.5",
     "invalid value for [packet] k0_pi: '1.5' (the center momentum in units of pi must lie in [-1, 1])"),
    ("quench", "k0_pi = -0.9", "k0_pi = nan",
     "invalid value for [packet] k0_pi: 'nan' (the center momentum in units of pi must lie in [-1, 1])"),
    ("sweep", "t_f = 30", "t_f = -2", "invalid value for [sweep] t_f: '-2' (must be positive)"),
    ("spectrum", "f_count = 21", "f_count = -5",
     "invalid value for [spectrum] f_count: '-5' (crossing detection needs 3..1000000 fields)"),
    ("quench", "center_site = 8", "center_site = 8\nbranch = up",
     "invalid value for [packet] branch: 'up' (choose one of upper, lower, +, -)"),
]


@pytest.mark.parametrize("experiment, old, new, message", KEY_ERRORS)
def test_run_keys_rejected_at_config_time(tmp_path, capsys, experiment, old, new, message):
    cfg = tmp_path / "bad.ini"
    text = CONFIGS[experiment]
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert run([experiment, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["quench", "sweep"])
def test_huge_lattice_rejected_before_the_band_scan(tmp_path, experiment):
    # without a bound, n = 100001 spent 10.6 s in the band scan and the basis then
    # asked for 5.0e9 states (about 75 GiB); n (n + 1) / 2 <= MAX_POINTS leaves
    # n = 1413 the largest odd chain.  Checked through load_config only, as a run of
    # a config that slipped through would make that allocation
    text = CONFIGS[experiment]
    for n_sites in (100001, 1415):
        cfg = tmp_path / f"n{n_sites}.ini"
        cfg.write_text(text.replace("n_sites = 15", f"n_sites = {n_sites}"))
        with pytest.raises(ConfigError) as error:
            load_config(experiment, str(cfg))
        assert error.value.problems == [
            f"invalid value for [model] n_sites: {n_sites} (more than {MAX_POINTS} two-boson states)"
        ]
    cfg = tmp_path / "n1413.ini"
    cfg.write_text(text.replace("n_sites = 15", "n_sites = 1413"))
    assert load_config(experiment, str(cfg))["model"]["n_sites"] == 1413


def test_dense_spectrum_lattice_rejected_at_config_time(tmp_path):
    # a spectrum without a window diagonalises the dense dim x dim matrix of every
    # field (about 3.3 GB at n = 201), so n (n + 1) / 2 <= MAX_DENSE_STATES bounds it
    # at n = 63; a windowed one runs shift-invert and keeps the MAX_POINTS bound.
    # Checked through load_config and the exit code only: nothing large is built
    window = "\nwindow_lo = -14.0\nwindow_hi = -11.0\n"
    cases = [
        (201, "", MAX_DENSE_STATES, "which a spectrum without [spectrum] window_lo and window_hi diagonalises densely"),
        (64, "", MAX_DENSE_STATES, "which a spectrum without [spectrum] window_lo and window_hi diagonalises densely"),
        (1414, window, MAX_POINTS, None),
    ]
    for n_sites, extra, bound, reason in cases:
        cfg = tmp_path / f"n{n_sites}.ini"
        cfg.write_text(SPECTRUM.replace("n_sites = 3", f"n_sites = {n_sites}") + extra)
        with pytest.raises(ConfigError) as error:
            load_config("spectrum", str(cfg))
        message = f"invalid value for [model] n_sites: {n_sites} (more than {bound} two-boson states"
        assert error.value.problems == [message + (f", {reason})" if reason else ")")]
    assert run(["spectrum", "--config", tmp_path / "n201.ini", "--out", tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()
    for n_sites, extra in ((63, ""), (64, window), (1413, window)):
        cfg = tmp_path / f"ok{n_sites}.ini"
        cfg.write_text(SPECTRUM.replace("n_sites = 3", f"n_sites = {n_sites}") + extra)
        assert load_config("spectrum", str(cfg))["model"]["n_sites"] == n_sites


@pytest.mark.parametrize(
    "text, message",
    [
        ("n_sites = 15\n", "File contains no section headers"),
        (SMALL_BAND + "n_sites = 17\n", "option 'n_sites' in section 'model' already exists"),
        (SMALL_BAND.replace("kappa = 1.0", "kappa = 5%"), "invalid value for [model] kappa: '5%'"),
    ],
)
def test_unreadable_config_rejected_before_output(tmp_path, capsys, text, message):
    # each of these ended in a configparser traceback
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run(["band", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_unparsable_window_end_is_one_problem(tmp_path, capsys):
    # the end that failed to parse was also reported missing, and the lattice too
    # large for the dense spectrum that a config without a window runs
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SPECTRUM.replace("n_sites = 3", "n_sites = 71") + "window_lo = -20\nwindow_hi = abc\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "out"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "configuration error:" and len(lines) == 2
    assert lines[1].startswith("  invalid value for [spectrum] window_hi: 'abc' (")
    assert not (tmp_path / "out").exists()


def test_a_config_is_read_as_utf8_whatever_the_locale(tmp_path, capsys):
    # bytes that are not UTF-8 ended in a UnicodeDecodeError traceback, and the
    # locale's encoding decided which bytes those were
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"[model]\nn_sites = 3\xff")
    assert run(["band", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("configuration error:\n  config file not readable: ")
    assert not (tmp_path / "out").exists()
    cfg = tmp_path / "kappa.ini"
    cfg.write_text("# hopping \u03ba\n" + SMALL_BAND, encoding="utf-8")
    out = tmp_path / "ascii"
    run_python(
        ["-m", "pairquench", "band", "--config", cfg, "--out", out],
        LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
    )
    assert (out / "band.csv").exists()


def test_an_out_that_cannot_be_made_fails_the_run(tmp_path, capsys):
    # a directory under a regular file ended in a NotADirectoryError traceback
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_BAND)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["band", "--config", cfg, "--out", blocker / "sub"]) == 1
    assert capsys.readouterr().err.startswith("run failed: ")


def _ini(config: dict[str, dict]) -> str:
    """INI text of a config of sections, list values joined with commas."""
    return "".join(
        f"[{section}]\n" + "".join(
            f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
            for key, value in keys.items()
        )
        for section, keys in config.items()
    )


def _sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


#: raw values the fuzz test puts in place of a key: valid and invalid numbers and words
FUZZ_VALUES = st.one_of(
    st.sampled_from([
        "-6.24", "-3", "0", "-0.0", "0.05", "-0.1", "0.1", "1", "3", "8", "15", "16", "-1",
        "1e-300", "5e-324", "1e308", "-1e308", "1e400", "nan", "inf", "-inf", "",
        "abc", "upper", "lower", "+", "open", "ring", "5%", "0x10", "1_0",
    ]),
    st.integers(-10**4, 10**4).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    experiment=st.sampled_from(["quench", "sweep"]),
    edits=st.dictionaries(st.integers(0, 12), st.none() | FUZZ_VALUES, max_size=4),
)
def test_config_fuzz_accepts_only_runnable_configs(tmp_path_factory, experiment, edits):
    # in-process: a config is either rejected with ConfigError, or every run input
    # (model, packet, sweep grid or sample count) builds from it without a ValueError
    sections = _sections({"quench": SMALL_QUENCH, "sweep": SMALL_SWEEP}[experiment])
    schema = SCHEMA[experiment]
    for index, value in edits.items():
        section, key = schema[index % len(schema)][:2]
        if value is None:
            sections.get(section, {}).pop(key, None)
        else:
            sections.setdefault(section, {})[key] = value.strip()
    path = tmp_path_factory.mktemp("fuzz") / "cfg.ini"
    path.write_text(_ini(sections))
    try:
        config = load_config(experiment, str(path))
    except ConfigError as exc:
        assert exc.problems
        return
    params = _model_params(config)
    packet = _packet_spec(config)
    assert params.u == params.v
    assert 1 <= packet.center_site <= params.n_sites
    if experiment == "sweep":
        section = config["sweep"]
        grid, start, stop, step = _sweep_grid(section), section["f_start"], section["f_stop"], section["f_step"]
        assert np.all(np.isfinite(grid) & (grid != 0.0))
    else:
        assert np.isfinite(params.field)
        start, stop, step = 0.0, config["time"]["t_max"], config["time"]["dt"]
        grid = _grid(start, stop, step)
    assert 1 <= grid.size <= MAX_POINTS
    # whole steps from the start that end at or before the stop, up to rounding
    assert grid[0] == start and grid[-1] <= stop + 1e-9 * step + 2e-15 * np.abs(grid).max()
    assert stop - grid[-1] < step


def test_runs_leave_unneeded_scipy_unloaded(tmp_path):
    # only the spectrum experiment needs scipy (level assignment and shift-invert
    # eigsh): no module of it loads on import, nor in a quench, sweep, band or
    # three-site run, which the Hamiltonian's stencil and the Chebyshev coefficients
    # serve with numpy and the standard library
    runs = []
    for experiment, text in (
        ("quench", SMALL_QUENCH), ("sweep", SMALL_SWEEP), ("band", SMALL_BAND), ("three-site", THREE_SITE)
    ):
        (tmp_path / f"{experiment}.ini").write_text(text)
        runs.append([experiment, "--config", str(tmp_path / f"{experiment}.ini"),
                     "--out", str(tmp_path / experiment)])
    spectrum = ["spectrum", "--config", str(tmp_path / "spectrum.ini"), "--out", str(tmp_path / "spectrum")]
    (tmp_path / "spectrum.ini").write_text(SPECTRUM)
    probe = f"""
import sys
def report():
    print("loaded:", sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
import pairquench
report()
import pairquench.cli
report()
for argv in {runs!r}:
    assert pairquench.cli.main(argv) == 0
report()
assert pairquench.cli.main({spectrum!r}) == 0
print("spectrum loaded scipy:", "scipy.sparse.linalg" in sys.modules)
"""
    lines = run_python(["-c", probe]).stdout.splitlines()
    assert [line for line in lines if line.startswith("loaded:")] == ["loaded: []"] * 3
    assert "spectrum loaded scipy: True" in lines
    # so the manifest records scipy's version for spectrum alone
    for experiment in CONFIGS:
        scipy = json.loads((tmp_path / experiment / "manifest.json").read_text())["versions"]["scipy"]
        assert isinstance(scipy, str) if experiment == "spectrum" else scipy is None, experiment


def _probe(tmp_path, experiment: str, text: str, *options) -> dict:
    """Record of a traced ``experiment`` run on config ``text`` through the benchmark's probe."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    probe = Path(__file__).resolve().parents[1] / "benchmarks" / "probe.py"
    record = tmp_path / "record.json"
    run_python([probe, record, "1", "--", experiment, "--config", cfg, "--out", tmp_path / "out", *options])
    payload = json.loads(record.read_text())
    assert payload["exit_code"] == 0
    return payload


def test_benchmark_probe_traces_every_layer(tmp_path):
    # the benchmark's --trace 1 probe wraps pairquench names in place; a one-field
    # sweep goes through the bound matrix, the Chebyshev steps and the matvec count
    payload = _probe(tmp_path, "sweep", SMALL_SWEEP.replace("f_stop = -0.18", "f_stop = -0.22"))
    names = {span[0] for span in payload["spans"]}
    assert {"propagation.advance", "bound_band.bound_matrix"} <= names
    assert payload["counts"]["matvecs"] > 0


def test_benchmark_probe_traces_a_quench(tmp_path):
    # a small quench runs on the Chebyshev engine too, so the probe sees its
    # propagator, its steps and matvecs, and the 21 samples evolve returns
    payload = _probe(tmp_path, "quench", SMALL_QUENCH)
    names = {span[0] for span in payload["spans"]}
    assert {"propagation.init", "propagation.advance", "quench.evolve"} <= names
    assert payload["counts"]["samples"] == 21
    assert payload["counts"]["matvecs"] > 0


def test_benchmark_probe_traces_pool_workers(tmp_path):
    # a two-field sweep on two processes: each grid point is traced in a worker,
    # whose spans (element 4 is the process id) and matvecs reach the record
    payload = _probe(tmp_path, "sweep", SMALL_SWEEP.replace("f_stop = -0.18", "f_stop = -0.21"), "--threads", 2)
    main_pid = next(span[4] for span in payload["spans"] if span[0] == "cli.main")
    points = [span for span in payload["spans"] if span[0] == "quench.sweep_point"]
    assert len(points) == 2
    assert any(span[4] != main_pid for span in points)
    assert payload["counts"]["matvecs"] > 0
    # the benchmark ends the solve at the last span named quench.run_quench, so a
    # worker's quench must not carry that name; the traced run writes what an untraced one does
    assert not [span for span in payload["spans"] if span[0] == "quench.run_quench" and span[4] != main_pid]
    assert json.loads((tmp_path / "out" / "sweep_period.json").read_text())["failures"] == []
    assert run(["sweep", "--config", tmp_path / "cfg.ini", "--out", tmp_path / "plain", "--threads", 1]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == (tmp_path / "plain" / "sweep.csv").read_bytes()


def test_benchmark_probe_traces_a_one_worker_sweep(tmp_path):
    # --threads 1 runs the grid on one worker process as well: every grid point
    # is traced there, and its matvecs reach the record
    payload = _probe(tmp_path, "sweep", SMALL_SWEEP, "--threads", 1)
    main_pid = next(span[4] for span in payload["spans"] if span[0] == "cli.main")
    points = [span for span in payload["spans"] if span[0] == "quench.sweep_point"]
    assert len(points) == 5
    assert all(span[4] != main_pid for span in points)
    assert payload["counts"]["matvecs"] > 0


def test_partial_band_packet_fails_before_output(tmp_path, capsys):
    # the upper branch of u = v = -5 misses the momenta around K = 0, where this
    # packet sits: a config error now, where the run failed in set-up (exit 1)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_QUENCH.replace("-6.24", "-5").replace("k0_pi = -0.9", "k0_pi = 0"))
    assert run(["quench", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "branch '+' has no bound state" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["quench", "sweep"])
def test_one_band_scan_per_run(tmp_path, monkeypatch, experiment):
    # the packet is checked on the band QuenchWorkspace.prepare scans, so the
    # config check scans none
    scans = []

    def counted(*args):
        scans.append(args)
        return band_scan(*args)

    monkeypatch.setattr(quench, "band_scan", counted)
    monkeypatch.setattr(cli, "band_scan", counted)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIGS[experiment].replace("f_stop = -0.18", "f_stop = -0.22").replace("t_max = 20", "t_max = 2"))
    assert run([experiment, "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert scans == [(1.0, -6.24, 15)]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_defaults_round_trip_through_a_config_file(tmp_path, experiment):
    # every built-in default is a schema key that load_config reads back unchanged
    defaults = load_config(experiment, None)
    cfg = tmp_path / "defaults.ini"
    cfg.write_text(_ini(defaults))
    assert load_config(experiment, str(cfg)) == defaults


def test_readme_example_config_is_the_default_quench(tmp_path):
    # configparser has no inline comments: a '; ...' after a value became part of it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.ini"
    cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    assert load_config("quench", str(cfg)) == load_config("quench", None)


@pytest.mark.parametrize(
    "experiment, section, key, default",
    [("quench", "packet", "branch", "+"), ("spectrum", "spectrum", "r_threshold", 1.0)],
)
def test_an_omitted_optional_key_takes_its_row_default(tmp_path, experiment, section, key, default):
    # the runners restated these defaults with .get, and the manifest left the key out
    assert key not in _sections(CONFIGS[experiment]).get(section, {})
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIGS[experiment])
    assert load_config(experiment, str(cfg))[section][key] == default
    out = tmp_path / "out"
    assert run([experiment, "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"][section][key] == default


def test_the_built_in_config_passes_the_cross_key_checks(monkeypatch):
    # it was returned unchecked, so a default packet off the lattice reached the run
    rows = [("packet", "center_site", int, True, 500) if row[1] == "center_site" else row for row in SCHEMA["quench"]]
    monkeypatch.setitem(SCHEMA, "quench", rows)
    with pytest.raises(ConfigError) as error:
        load_config("quench", None)
    assert error.value.problems == ["invalid value for [packet] center_site: 500 (outside sites 1..111)"]


@pytest.mark.parametrize("branch", ["lower", "Upper", "+"])
def test_branch_aliases_accepted(tmp_path, branch):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_QUENCH.replace("center_site = 8", f"center_site = 8\nbranch = {branch}"))
    assert run(["quench", "--config", cfg, "--out", tmp_path / "out"]) == 0


@pytest.mark.parametrize("width", ["1e308", "1.3407807929942597e+154"])
def test_overflowing_packet_width_runs_as_a_flat_packet(tmp_path, width):
    # the square of such a width overflowed a Python float: an OverflowError
    # traceback and exit 1; it is inf, so every momentum carries weight 1
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_QUENCH.replace("width = 0.35", f"width = {width}"))
    out = tmp_path / "out"
    assert run(["quench", "--config", cfg, "--out", out]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))
    assert np.max(np.abs(rows[:, 4] - 1.0)) < 1e-8


@pytest.mark.parametrize("times", ["t_max = 1e15\ndt = 1e14", "t_max = 1e308\ndt = 1e308"])
def test_a_step_past_max_terms_fails_the_run_before_output(tmp_path, capsys, times):
    # 11 and 2 samples pass load_config; a step of 1e14 ended in an _ArrayMemoryError
    # traceback ("Unable to allocate 5.90 PiB"), one of 1e308 in an OverflowError traceback
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_QUENCH.replace("t_max = 20\ndt = 1.0", times))
    assert run(["quench", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: a step of ") and "Chebyshev terms, more than MAX_TERMS" in err
    assert not (tmp_path / "out").exists()


def test_three_site_count_checked_at_config_time(tmp_path, capsys):
    cfg = tmp_path / "four.ini"
    cfg.write_text(THREE_SITE.replace("n_sites = 3", "n_sites = 4"))
    assert run(["three-site", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "invalid value for [model] n_sites: '4'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_worker_count_rejected_before_output(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exit_info:
        run(["sweep", "--threads", threads, "--out", tmp_path / "out"])
    assert exit_info.value.code == 2
    assert "argument --threads: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_default_grids_keep_their_points():
    # the 1e-9 of a step keeps each default stop, a whole number of steps, in its grid
    assert _sweep_grid(load_config("sweep", None)["sweep"]).size == 61
    for (experiment, section), size in {("quench", "time"): 801, ("three-site", "three_site"): 2001}.items():
        times = load_config(experiment, None)[section]
        assert _grid(0.0, times["t_max"], times["dt"]).size == size


@pytest.mark.parametrize(
    "experiment, old, new, csv, expected",
    [
        # a grid rounded to the nearest whole step sampled t = 11 and t = 1.2 past t_max
        ("quench", "t_max = 20\ndt = 1.0", "t_max = 10\ndt = 5.5", "trajectory.csv", [0.0, 5.5]),
        ("three-site", "t_max = 50\ndt = 0.5", "t_max = 1\ndt = 0.6", "three_site_F-3.csv", [0.0, 0.6]),
        # and swept F = -0.18 past f_stop -0.19
        ("sweep", "f_stop = -0.18\nf_step = 0.01", "f_stop = -0.19\nf_step = 0.02", "sweep.csv", [-0.22, -0.2]),
    ],
)
def test_grids_stop_at_their_stop(tmp_path, experiment, old, new, csv, expected):
    cfg = tmp_path / "cfg.ini"
    text = CONFIGS[experiment]
    assert old in text
    cfg.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert run([experiment, "--config", cfg, "--out", out]) == 0
    rows = (out / csv).read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx(expected, abs=1e-12)
    if experiment == "sweep":
        assert json.loads((out / "sweep_period.json").read_text())["f_stop"] == pytest.approx(-0.2, abs=1e-12)


def test_three_site_run_writes_expected_artifacts(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(THREE_SITE)
    out = tmp_path / "out"
    assert run(["three-site", "--config", cfg, "--out", out, "--emit-plots"]) == 0
    csv = out / "three_site_F-3.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,transfer_analytic,transfer_exact,unpair_weight_exact"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0 and first[2] == pytest.approx(0.0, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "three-site"
    assert set(manifest["versions"]) == {"pairquench", "python", "numpy", "scipy"}
    assert (out / "three_site.gp").exists()


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_emit_plots_writes_one_script_after_the_data(tmp_path, experiment):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIGS[experiment])
    out = tmp_path / "out"
    assert run([experiment, "--config", cfg, "--out", out, "--emit-plots"]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    script = experiment.replace("-", "_") + ".gp"
    assert [p.name for p in out.glob("*.gp")] == [script]
    assert outputs[-1] == script and outputs[0].endswith(".csv")
    assert f'"{outputs[0]}"' in (out / script).read_text()


def test_quench_run_and_manifest(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_QUENCH)
    out = tmp_path / "out"
    assert run(["quench", "--config", cfg, "--out", out]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,transfer,distance,energy,norm"
    assert len(lines) == 22
    norms = np.array([float(l.split(",")[4]) for l in lines[1:]])
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_default_quench_manifest_reports_numerical_health(tmp_path):
    out = tmp_path / "out"
    assert run(["quench", "--out", out]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert set(stats) == {
        "interval", "halfwidth", "recursions", "matvecs", "max_norm_error", "max_total_energy_drift", "band"
    }
    # the headline coupling binds a pair on both branches at every momentum
    assert stats["band"] == {branch: {"complete": True, "missing_momenta": []} for branch in "-+"}
    # 800 samples in windows of 8, on the Collatz–Wielandt interval: 187 products per window
    assert (stats["interval"], stats["recursions"], stats["matvecs"]) == ("collatz-wielandt", 100, 18_700)
    assert stats["halfwidth"] == pytest.approx(16.639, abs=1e-3)
    assert 0.0 <= stats["max_norm_error"] <= 1e-12
    assert 0.0 <= stats["max_total_energy_drift"] <= 1e-10


def test_sweep_run_with_sidecar(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_SWEEP)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "F,transfer_tf"
    assert len(lines) == 6
    sidecar = json.loads((out / "sweep_period.json").read_text())
    assert sidecar["t_f"] == 30.0
    assert sidecar["failures"] == []
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert set(stats) == {
        "failures", "point_wall_s_p50", "point_wall_s_max", "recursions", "matvecs", "intervals",
        "max_norm_error", "max_total_energy_drift", "band",
    }
    # five points of one recursion each, every one on its Collatz–Wielandt interval
    assert (stats["failures"], stats["recursions"], stats["intervals"]) == (0, 5, {"collatz-wielandt": 5})
    assert stats["matvecs"] > 5 * 30 and 0.0 < stats["point_wall_s_p50"] <= stats["point_wall_s_max"]
    # every point runs the quench's own path, so the sweep records its worst drift too
    assert 0.0 <= stats["max_norm_error"] <= 1e-12 and 0.0 <= stats["max_total_energy_drift"] <= 1e-10
    assert stats["band"]["+"] == {"complete": True, "missing_momenta": []}


def test_spectrum_run(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SPECTRUM)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", out]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "F,level_id,energy,rbar,label"
    assert len(lines) == 1 + 21 * 6
    crossings = json.loads((out / "crossings.json").read_text())
    assert {e["true_crossing"] for e in crossings["avoided"]} <= {False}


def test_spectrum_window_without_levels_fails_before_output(tmp_path, capsys):
    # it wrote a header-only spectrum.csv and an empty crossings.json, with exit 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SPECTRUM + "window_lo = 100\nwindow_hi = 200\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "run failed: no level lies in the window [100.0, 200.0] at any field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reruns_byte_reproduce_csv_output(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_QUENCH)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["quench", "--config", cfg, "--out", out_a]) == 0
    assert run(["quench", "--config", cfg, "--out", out_b]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    cfg3 = tmp_path / "cfg3.ini"
    cfg3.write_text(THREE_SITE)
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert run(["three-site", "--config", cfg3, "--out", out_c]) == 0
    assert run(["three-site", "--config", cfg3, "--out", out_d]) == 0
    assert (out_c / "three_site_F-3.csv").read_bytes() == (out_d / "three_site_F-3.csv").read_bytes()


def test_default_band_config_runs(tmp_path):
    out = tmp_path / "band"
    assert run(["band", "--out", out]) == 0
    lines = (out / "band.csv").read_text().splitlines()
    assert lines[0] == "K,branch,beta,energy"
    assert len(lines) == 1 + 2 * 111  # complete double band at the default coupling


def test_band_manifest_names_the_missing_momenta(tmp_path):
    # at u = -4 the upper branch needs |u / J_K| > 3, so it lacks the momenta around K = 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_BAND.replace("-6.24", "-4.0"))
    out = tmp_path / "out"
    assert run(["band", "--config", cfg, "--out", out]) == 0
    record = json.loads((out / "manifest.json").read_text())["stats"]["band"]
    band = band_scan(1.0, -4.0, 15)
    for branch in "-+":
        missing = [k for k, state in zip(band.momenta, band.select(branch)) if state is None]
        assert record[branch] == {"complete": not missing, "missing_momenta": missing}
    assert record["-"]["complete"] and not record["+"]["complete"]
    assert 0.0 in record["+"]["missing_momenta"]


def test_quench_csv_identical_across_blas_threads(tmp_path):
    # 17 samples at the paper's size: two full projection blocks plus one sample
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[model]\nn_sites = 111\nkappa = 1.0\nu = -6.24\nv = -6.24\nfield = -0.097120\n\n"
        "[packet]\nk0_pi = -0.9\nwidth = 0.2\ncenter_site = 36\n\n"
        "[time]\nt_max = 16\ndt = 1.0\n"
    )
    csv = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        run_python(
            ["-m", "pairquench", "quench", "--config", cfg, "--out", out],
            OPENBLAS_NUM_THREADS=threads,
        )
        csv[threads] = (out / "trajectory.csv").read_bytes()
    assert len(csv["1"].splitlines()) == 18
    assert csv["1"] == csv["2"]


def test_sweep_csv_identical_across_blas_and_worker_threads(tmp_path):
    # three fields of the default grid at the paper's size, short final time
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[model]\nn_sites = 111\nkappa = 1.0\nu = -6.24\nv = -6.24\n\n"
        "[packet]\nk0_pi = -0.9\nwidth = 0.2\ncenter_site = 36\n\n"
        "[sweep]\nf_start = -0.0995\nf_stop = -0.09935\nf_step = 7.5e-5\nt_f = 50\n"
    )
    csv = {}
    for blas in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"blas{blas}_workers{workers}"
            run_python(
                ["-m", "pairquench", "sweep", "--config", cfg, "--out", out, "--threads", workers],
                OPENBLAS_NUM_THREADS=blas,
            )
            csv[blas, workers] = (out / "sweep.csv").read_bytes()
    assert len(csv["1", "1"].splitlines()) == 4
    assert len(set(csv.values())) == 1


BLOCH_VS_DECAY = Path(__file__).resolve().parents[1] / "scripts" / "bloch_vs_decay.py"


def test_bloch_vs_decay_script_writes_both_trajectories(tmp_path):
    # the headline study script imports the public API; a short run writes both CSVs.
    # t_max = 2.6 was rounded to the nearest whole step and sampled t = 3
    for t_max in ("2", "2.6"):
        run_python([BLOCH_VS_DECAY, "--t-max", t_max, "--out", tmp_path / t_max])
        for label in ("bloch", "decay"):
            header, *rows = (tmp_path / t_max / f"trajectory_{label}.csv").read_text().splitlines()
            assert header == "t,transfer,distance,energy,norm"
            assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]


def test_bloch_vs_decay_script_rejects_a_negative_t_max(tmp_path):
    # it ended in a ValueError traceback ("times must start at 0") from the empty time grid
    with pytest.raises(subprocess.CalledProcessError) as failed:
        run_python([BLOCH_VS_DECAY, "--t-max", "-1", "--out", tmp_path / "out"])
    assert failed.value.returncode == 2
    assert "argument --t-max: must be finite and not negative" in failed.value.stderr
    assert not (tmp_path / "out").exists()

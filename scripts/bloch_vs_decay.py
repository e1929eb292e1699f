#!/usr/bin/env python3
"""Headline quench study: one field value preserving the pair, one breaking it.

Evolves the same bound-pair packet under two nearly identical quench fields
and writes both trajectories as CSV; the transfer curves show a clean Bloch
oscillation in one case and pair dissociation in the other.
"""

import argparse
from pathlib import Path

import numpy as np

from pairquench import QuenchWorkspace, run_quench
from pairquench.cli import _grid, _model_params, _packet_spec, load_config
from pairquench.reporting import write_trajectory_csv

FIELDS = {"bloch": -0.097120, "decay": -0.097815}


def main():
    config = load_config("quench", None)  # the CLI's headline model, packet and sample times
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/bloch_vs_decay", metavar="DIR")
    parser.add_argument("--t-max", type=float, default=config["time"]["t_max"])
    args = parser.parse_args()
    if not 0.0 <= args.t_max < np.inf:
        parser.error("argument --t-max: must be finite and not negative")

    workspace = QuenchWorkspace.prepare(_model_params(config), _packet_spec(config))
    times = _grid(0.0, args.t_max, config["time"]["dt"])  # none past t_max

    out = Path(args.out)
    for label, field in FIELDS.items():
        traj = run_quench(workspace, field, times)
        write_trajectory_csv(out / f"trajectory_{label}.csv", traj)
        settled = traj.transfer[times >= args.t_max / 2].mean()
        print(
            f"{label:5s} F={field:+.6f}: settled bound weight {settled:.3f}, "
            f"final separation {traj.distance[-1]:.1f}, final energy {traj.energy[-1]:+.2f}"
        )
    print(f"trajectories written to {out}/")


if __name__ == "__main__":
    main()

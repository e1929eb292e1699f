#!/usr/bin/env python3
"""Headline quench study: one field value preserving the pair, one breaking it.

Evolves the same bound-pair packet under two nearly identical quench fields
and writes both trajectories as CSV; the transfer curves show a clean Bloch
oscillation in one case and pair dissociation in the other.
"""

import argparse
from pathlib import Path

import numpy as np

from pairquench import ModelParams, QuenchWorkspace, WavePacketSpec, run_quench
from pairquench.cli import _grid
from pairquench.reporting import write_trajectory_csv

FIELDS = {"bloch": -0.097120, "decay": -0.097815}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/bloch_vs_decay", metavar="DIR")
    parser.add_argument("--t-max", type=float, default=800.0)
    args = parser.parse_args()
    if not 0.0 <= args.t_max < np.inf:
        parser.error("argument --t-max: must be finite and not negative")

    params = ModelParams(n_sites=111, kappa=1.0, u=-6.24, v=-6.24)
    packet = WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.2, center_site=36)
    workspace = QuenchWorkspace.prepare(params, packet)
    times = _grid(0.0, args.t_max, 1.0)  # the CLI's sample times: none past t_max

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

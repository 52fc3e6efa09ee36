#!/usr/bin/env python3
"""Singularity-gauge study at orders n = 2 and n = 3.

Uses endpoint-flat noise (poly_flat, m = n+1) with a calm amplitude and a
short horizon so trajectories stay inside (-1, 1); reports land in
./out_derivative_n{2,3}.  The settings pass cli.config_from_dict, the same
door as a JSON config file.
"""

import json
import sys

from logac import cli


def main() -> int:
    worst = 0
    for n in (2, 3):
        cfg = cli.config_from_dict(
            {
                "version": 1,
                "grid": {"cells": [64]},
                "stepper": {"dt": 1e-3, "t_end": 0.25},
                "noise": {"family": "poly_flat", "modes": 16, "amplitude": 0.25, "flatness": n + 1},
                "u0": {"kind": "constant", "m0": 0.2},
                "output_dir": f"out_derivative_n{n}",
            }
        )
        print(f"== derivative study, n={n} ==", flush=True)
        code = cli.run("derivative", cfg)
        summary = json.loads(open(f"{cfg.output_dir}/derivative.json").read())
        print(f"   exit {code}; levels {summary['metadata']['levels']}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())

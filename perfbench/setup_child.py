"""One cold set-up in a fresh process; prints its timings as JSON.

Usage: python3 perfbench/setup_child.py <checkout root> <config.json>

Set-up is what a run pays before its solve: import choquard, parse the
config, build the Riesz convolver, sample the model and build the start
state.  run.py starts this several times and reports the median.
"""

import json
import sys
import time


def set_up(cq, config_path):
    """Parse the config and build what a solve starts from."""
    cfg = cq.cli.parse_config(config_path)
    conv = cq.build_convolver(cfg.grid, cfg.params.alpha)
    sampled = cq.energy.sample_model(cfg.params, cfg.grid)
    width_u = cfg.init_width_u or cfg.grid.half_extent / 4.0
    width_v = cfg.init_width_v or cfg.grid.half_extent / 4.0
    start = cq.StatePair(
        cq.gaussian_field(cfg.grid, width_u, mass=cfg.params.xi**2),
        cq.gaussian_field(cfg.grid, width_v, mass=cfg.params.eta**2),
    )
    return cfg, conv, sampled, start


if __name__ == "__main__":
    t0 = time.perf_counter()
    root, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, f"{root}/src")
    import choquard as cq
    import choquard.cli

    t1 = time.perf_counter()
    set_up(cq, config_path)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}))

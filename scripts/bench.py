#!/usr/bin/env python3
"""Wall time of each stage and each output writer on the bench matrix.

Runs grid 201/401/801 x {flat, cos2 with v_half 0.03, example-cos2}, each
config writing its meshes too, --repeats times untraced, and records the
least wall time of each stage run_pipeline calls, of write_outputs (this
process, waiting on its forked writers) and of each file group of
pipeline.output_writers written again on its own in this process;
scripts/stage_memory.py times them. The least, not the median: the host's
speed drifts for longer than a config's runs, and the fastest run is the
one it disturbed least. Before each config, perfbench's speed probe
(perfbench/speed.py, measure()) is timed once and stored with the config's
results as speed_probe_s, so a config run in one of the host's slow
stretches shows as one. The results go under one column name of the JSON
file --out, and the columns it already holds are kept: run it in two
checkouts, each with its own --column, to set a parent and a change side
by side.

    PYTHONPATH=src python scripts/bench.py --column change --out BENCH.json
"""

import argparse
import json
import os
import platform
import runpy
import sys
from pathlib import Path

import numpy as np

from isoembed.config import RunConfig, example_cos2_config

CASES = {
    "flat": RunConfig,
    "cos2": lambda: RunConfig(metric="cos2", v_half=0.03),
    "example-cos2": example_cos2_config,
}


def config(case, n):
    cfg = CASES[case]()
    cfg.n_u = cfg.n_v = n
    cfg.mesh_out = "mesh"
    return cfg


def measure(cfg, repeats, stage_memory):
    """{"stages": {stage: s}, "writers": {file group: s}}, each the least
    over `repeats` untraced runs timed by stage_memory.py's namespace; a
    stage called twice in a run counts the sum of its calls."""
    stages, writers = {}, {}
    for _ in range(repeats):
        run_writers = []
        run_stages = {}
        rows = stage_memory["stage_times"](
            cfg, after=lambda result: run_writers.extend(stage_memory["writer_times"](result)))
        for name, wall in rows:
            run_stages[name] = run_stages.get(name, 0.0) + wall
        for name, wall in run_stages.items():
            stages.setdefault(name, []).append(wall)
        for name, wall in run_writers:
            writers.setdefault(name, []).append(wall)
    return {key: {name: round(min(walls), 4) for name, walls in table.items()}
            for key, table in (("stages", stages), ("writers", writers))}


def main(argv=()):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--column", default="change", help="column name for these results")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to add the column to")
    parser.add_argument("--grids", default="201,401,801", help="comma-separated grid sizes")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    stage_memory = runpy.run_path(str(Path(__file__).with_name("stage_memory.py")))
    probe = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "speed.py"))["measure"]
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {
        "about": __doc__.splitlines()[0],
        "units": "s, wall time, least over the repeats",
        "columns": {},
        "runs": {},
    }
    doc["columns"][args.column] = {
        "repeats": args.repeats,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    for n in (int(g) for g in args.grids.split(",")):
        for case in CASES:
            key = f"{case} {n}"
            speed_probe_s = round(probe(), 4)
            result = measure(config(case, n), args.repeats, stage_memory)
            result["speed_probe_s"] = speed_probe_s
            doc["runs"].setdefault(key, {})[args.column] = result
            print(f"{key}: write_outputs {result['stages']['write_outputs']:.3f} s, "
                  f"writers {sum(result['writers'].values()):.3f} s on their own, "
                  f"speed probe {speed_probe_s:.3f} s")
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1:])

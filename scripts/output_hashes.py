#!/usr/bin/env python3
"""sha256 of every output of a fixed matrix of isoembed runs.

Each run of RUNS is `python -m isoembed ARGV`, started in a directory of
its own, named after the run, inside one temporary directory, with this
checkout's src/ first on PYTHONPATH. A run reads the files of an earlier
run through `../<run>/`; the sampled metric SAMPLED_CSV is written into the
temporary directory before the first run. One line is printed per file a
run leaves in its directory, and one each for its stdout, stderr and exit
code, as `<sha256>  <run>/<name>`, in run order. Two checkouts print the
same lines when every run wrote the same bytes, printed the same text and
exited alike:

    python scripts/output_hashes.py > parent.txt    # in one checkout
    python scripts/output_hashes.py > change.txt    # in the other
    diff parent.txt change.txt

The matrix: the default flat run, cos2 and exp on the narrow box, the
shipped example, two named base curves whose verdicts fail, one that folds
(exit 1), a run on a sampled metric, and `verify` of the flat and of the
cos2 composite.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# the sampled metric: G = cos^2(u) (1 + 0.3 v) on 101^2 nodes over [-0.2, 0.2]^2
SAMPLED_CSV = "g.csv"
SAMPLED_N = 101
SAMPLED_HALF = 0.2

RUNS = (
    ("flat", ["run", "--mesh-out", "m"]),
    ("cos2", ["run", "--metric", "cos2", "--v-half", "0.03", "--mesh-out", "m"]),
    ("exp", ["run", "--metric", "exp", "--v-half", "0.03", "--g-match-rel-tol", "1e-4",
             "--mesh-out", "m"]),
    ("example-cos2", ["example-cos2", "--mesh-out", "m"]),
    ("kinked", ["run", "--base-curve", "kinked:1", "--grid-n", "81", "--chart-n", "81",
                "--mesh-out", "m"]),
    ("circle", ["run", "--base-curve", "circle:2", "--grid-n", "81", "--chart-n", "81",
                "--mesh-out", "m"]),
    ("fold", ["run", "--base-curve", "circle:0.05", "--grid-n", "41", "--chart-n", "41"]),
    ("sampled", ["run", "--metric", f"file:../{SAMPLED_CSV}", "--v-half", "0.03",
                 "--mesh-out", "m"]),
    ("verify-flat", ["verify", "../flat/m_composite.obj", "--metric", "flat",
                     "--fields", "../flat/residuals.csv", "--residual-csv", "residuals.csv"]),
    ("verify-cos2", ["verify", "../cos2/m_composite.obj", "--metric", "cos2",
                     "--fields", "../cos2/residuals.csv", "--e-res-tol", "1e-3",
                     "--residual-csv", "residuals.csv"]),
)


def write_sampled_metric(path):
    """The sampled metric's CSV, ubar,vbar,G row-major, %.17g."""
    s = np.linspace(-SAMPLED_HALF, SAMPLED_HALF, SAMPLED_N)
    with open(path, "w") as fh:
        fh.write("ubar,vbar,G\n")
        for u in s.tolist():
            for v in s.tolist():
                fh.write("%.17g,%.17g,%.17g\n" % (u, v, np.cos(u) ** 2 * (1.0 + 0.3 * v)))


def digest(data):
    return hashlib.sha256(data).hexdigest()


def run_hashes(root, name, argv):
    """[(sha256, label)] of one run, started in root/name."""
    cwd = root / name
    cwd.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "isoembed", *argv], cwd=cwd, env=env,
                          capture_output=True)
    rows = [(digest(path.read_bytes()), f"{name}/{path.relative_to(cwd)}")
            for path in sorted(cwd.rglob("*")) if path.is_file()]
    rows += [(digest(done.stdout), f"{name}/<stdout>"), (digest(done.stderr), f"{name}/<stderr>"),
             (digest(str(done.returncode).encode()), f"{name}/<exit {done.returncode}>")]
    return rows


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_sampled_metric(root / SAMPLED_CSV)
        for name, argv in RUNS:
            for sha, label in run_hashes(root, name, argv):
                print(f"{sha}  {label}", flush=True)


if __name__ == "__main__":
    main()

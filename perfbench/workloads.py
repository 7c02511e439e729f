"""The four workloads and the checks every operation must pass.

Each workload is one fixed config driven through the package's public calls
(`cli.main`, `run_pipeline`, `write_outputs`). The package has no
randomness, so the seed only picks one of eight initial-data slope pairs
(`epsilon`, `delta`) from a box in which every verdict and every node count
(certified, composite, system, chart lines, solver steps, masked) was
checked to be the same on all four workloads. Grid sizes never vary.

Import this module only after `bootstrap.import_package()`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

from isoembed import cli, pipeline
from isoembed.config import RunConfig

OUT = "out"  # fixed relative out_dir: report.json echoes it
GEN = "gen"  # inputs of the verify workload, written during set-up

SLOPE_POINTS = tuple(
    (eps, delta)
    for delta in (0.1, 0.100001)
    for eps in (0.1, 0.1000005, 0.100001, 0.1000015)
)


def slopes(seed: int) -> tuple:
    """(epsilon, delta) for a seed; seed 0 is the shipped default."""
    return SLOPE_POINTS[seed % len(SLOPE_POINTS)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid_n: int = None   # smaller grids for the benchmark's own tests only
    chart_n: int = None
    expect: str = "PASS"

    def _size_argv(self):
        argv = []
        if self.grid_n is not None:
            argv += ["--grid-n", str(self.grid_n)]
        if self.chart_n is not None:
            argv += ["--chart-n", str(self.chart_n)]
        return argv

    def _sized(self, cfg: RunConfig) -> RunConfig:
        if self.grid_n is not None:
            cfg.n_u = cfg.n_v = self.grid_n
        if self.chart_n is not None:
            cfg.chart_n_u = cfg.chart_n_v = self.chart_n
        return cfg

    def verify_source_config(self, eps, delta) -> RunConfig:
        """The flat 401^2 run whose composite mesh and fields `verify` reads."""
        return self._sized(RunConfig(n_u=401, n_v=401, epsilon=eps, delta=delta,
                                     out_dir=GEN, mesh_out="mesh", system_csv=""))

    def start(self, eps, delta):
        """Build the config and return the operation, a call -> (verdict, result)."""
        slope_argv = ["--epsilon", repr(eps), "--delta", repr(delta)]
        if self.name == "flat-write":
            return _cli_op(["run", "--mesh-out", "mesh", "--out-dir", OUT,
                            *slope_argv, *self._size_argv()])
        if self.name == "example-cos2":
            return _cli_op(["example-cos2", "--out-dir", OUT, *slope_argv, *self._size_argv()])
        if self.name == "verify":
            return _cli_op(["verify", f"{GEN}/mesh_composite.obj", "--metric", "flat",
                            "--fields", f"{GEN}/residuals.csv",
                            "--report-json", f"{OUT}/verify_report.json"])
        if self.name == "cos2-solve":
            cfg = self._sized(RunConfig(metric="cos2", v_half=0.03, n_u=801, n_v=801,
                                        epsilon=eps, delta=delta))

            def op():
                result = pipeline.run_pipeline(cfg)
                return ("PASS" if result.passed else "FAIL"), result

            return op
        raise ValueError(f"unknown workload {self.name!r}")

    def prepare(self, eps, delta):
        """Set-up beyond the imports: build the config; for verify, write its inputs."""
        self.start(eps, delta)
        if self.name == "verify":
            result = pipeline.run_pipeline(self.verify_source_config(eps, delta))
            if not result.passed:
                raise RuntimeError("the run that makes the verify inputs did not pass")
            pipeline.write_outputs(result)

    def outputs(self, result) -> dict:
        """sha256 of every output of one operation, by file name."""
        if self.name == "cos2-solve":
            doc = json.dumps(result.report.to_json_dict(), indent=2) + "\n"
            return {"report.json": hashlib.sha256(doc.encode()).hexdigest()}
        return {f"{OUT}/{k}": v for k, v in tree_sha256(OUT).items()}

    def check(self, verdict, result) -> list:
        """Problems with one operation's result; empty when it is correct."""
        problems = []
        if verdict != self.expect:
            problems.append(f"verdict {verdict}, expected {self.expect}")
        if self.name == "verify":
            with open(f"{GEN}/report.json") as fh:
                source = json.load(fh)["residuals"]
            with open(f"{OUT}/verify_report.json") as fh:
                again = json.load(fh)["residuals"]
            for key in ("isometry_e", "isometry_f", "isometry_g"):
                want = {k: source[key][k] for k in ("sup", "mean")}
                got = {k: again[key][k] for k in ("sup", "mean")}
                if got != want:
                    problems.append(f"{key} {got} differs from the source run's {want}")
        return problems


def _cli_op(argv):
    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return ("PASS" if code == 0 else f"exit {code}"), None

    return op


def tree_sha256(root) -> dict:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = Path(dirpath) / name
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(out.items()))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flat-write",
                 "the default flat 201^2 acceptance run with meshes: the writers "
                 "take most of the time, system_s under 5%"),
        Workload("cos2-solve",
                 "library run_pipeline on cos2 at 801^2 with no files: the per-node "
                 "system takes about half, the writers nothing"),
        Workload("example-cos2",
                 "the shipped example: the chart refines to 8001 v-lines, so plane "
                 "and induced_metric dominate compute and memory"),
        Workload("verify",
                 "verify of a flat 401^2 composite mesh and fields CSV: the only "
                 "workload that reads outputs rather than writes them"),
    )
}

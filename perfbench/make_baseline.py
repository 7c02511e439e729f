"""Record every workload's output sha256 and node counts at every slope point.

    python3 perfbench/make_baseline.py

Writes `perfbench/baseline.json`, which `run.py` compares each run's output
bytes against. Run it again only when a change alters output bytes on
purpose, and say why in that change. It also checks that the slope box
keeps every verdict and node count the same, and fails if it does not.
"""

import json

import bootstrap

bootstrap.pin_threads()

import run  # noqa: E402  (run imports numpy; threads are pinned above)
import workloads  # noqa: E402

COUNTS = ("system_s.nodes", "ivp.steps", "reparam.certified_frac", "plane.chart_nodes",
          "report.compatibility_residual.calls")


def main():
    baseline = {}
    for name, w in workloads.WORKLOADS.items():
        entry = {"counts": None, "sha256": {}}
        for point in range(len(workloads.SLOPE_POINTS)):
            result, record = run.measure(w, point, seconds=0, trace=True)
            if not result["correct"]:
                raise SystemExit(f"{name} at point {point} failed its checks")
            counts = {k: result["metrics"][k]["value"] for k in COUNTS}
            if entry["counts"] is None:
                entry["counts"] = counts
            elif counts != entry["counts"]:
                raise SystemExit(f"{name}: point {point} counts {counts} differ "
                                 f"from point 0's {entry['counts']}")
            entry["sha256"][str(point)] = record["sha256"]
            print(name, point, workloads.slopes(point), "ok", flush=True)
        baseline[name] = entry
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Set-up child: a fresh process does what a workload needs before its first operation.

    python3 prepare.py WORKLOAD_JSON SEED     (run in the directory to set up)

It imports the package, builds the config and, for `verify`, writes the
files that workload reads. `run.py` times several of these and reports the
median as `setup_s`; the workload process itself never runs the set-up, so
its peak RSS is that of the operations alone.
"""

import json
import sys

import bootstrap

bootstrap.pin_threads()
bootstrap.import_package()

import workloads  # noqa: E402  (needs the package path set above)


def main(argv):
    spec = workloads.Workload(**json.loads(argv[1]))
    spec.prepare(*workloads.slopes(int(argv[2])))


if __name__ == "__main__":
    main(sys.argv)

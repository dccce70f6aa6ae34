"""Set-up as a fresh interpreter pays it: import numpy and convdom, write configs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <config dir>

``run.py`` times this script from process start to exit.  The script samples
the host speed while it works (``speed.py``) and prints it as one JSON line;
``run.py`` scales the time to nominal speed with it, and the median over a few
starts is the ``setup_s`` metric.
"""

import json
import sys
from pathlib import Path

import program


def main(argv: list[str]) -> int:
    name, seed, config_dir = argv
    program.pin_threads()
    import speed  # imports numpy, so only after pin_threads

    with speed.Probe() as probe:
        program.import_program()
        import workloads

        workloads.write_configs(workloads.WORKLOADS[name].configs(int(seed)), Path(config_dir))
    print(json.dumps({"factor": probe.factor, "overhead_s": probe.overhead_s, "native_s": probe.native_s}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except program.ProgramMissing as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        sys.exit(1)

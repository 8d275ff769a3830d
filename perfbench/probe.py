"""Set-up probe: in a fresh interpreter, import ipme and build a
workload's problem objects, then print the monotonic clock.

    python3 probe.py WORKLOAD INPUTS_JSON WORKDIR

The caller subtracts the time at which it started this interpreter.
"""

import json
import sys
import time


def main() -> int:
    name, inputs_path, work = sys.argv[1:]
    from common import use_source
    from workloads import WORKLOADS

    use_source()
    with open(inputs_path, "r", encoding="utf-8") as fh:
        inp = json.load(fh)
    WORKLOADS[name].setup(inp, work)
    print(repr(time.monotonic()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

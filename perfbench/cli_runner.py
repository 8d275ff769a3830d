"""Run one `ipme` command in this interpreter with benchmark wrappers.

    python3 cli_runner.py --count FILE -- ARGV...   count node updates
    python3 cli_runner.py --spans FILE -- ARGV...   trace every layer

Both modes write the time taken by `import ipme.cli` and by
`ipme.cli.main`.  `--count` adds the number of interior node updates
made by the right-hand-side kernel (one counter, no spans); `--spans`
adds the spans of every layer with their counters.  The exit code is
the command's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    mode, path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("--spans", "--count"):
        print(__doc__, file=sys.stderr)
        return 2
    from common import Tracer, patch_everywhere, use_source

    use_source()
    t0 = time.perf_counter()
    import ipme.cli
    import_s = time.perf_counter() - t0

    if mode == "--count":
        import ipme.operators

        total = [0]
        orig = ipme.operators.rhs_core

        def counted(*args, **kwargs):
            out = orig(*args, **kwargs)
            total[0] += out[0].size
            return out

        patch_everywhere(orig, counted)
        t0 = time.perf_counter()
        rc = ipme.cli.main(argv)
        result = {"main_s": time.perf_counter() - t0, "node_steps": total[0]}
    else:
        import layers

        tracer = Tracer()
        layers.install(tracer)
        t0 = time.perf_counter()
        rc = ipme.cli.main(argv)
        result = {"main_s": time.perf_counter() - t0,
                  "node_steps": tracer.counters.get(
                      "operators.rhs_core.nodes", 0),
                  "spans": tracer.to_json()}
    result["import_s"] = import_s
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

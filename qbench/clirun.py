"""Run one qcycle CLI invocation, traced when QBENCH_CLI_TRACE names a file.

    python3 qbench/clirun.py tower --name identity --nmax 6

Untraced, this is `python -m qcycle.cli`.  Traced, it imports every qcycle
layer (timed as cli.import_s), installs the benchmark's wrappers, calls
qcycle.cli.main and writes the per-layer record to the named file.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main(argv) -> int:
    path = os.environ.get(tracing.CLI_TRACE_ENV)
    if not path:
        from qcycle import cli
        return cli.main(argv)

    import_s = tracing.import_qcycle()
    tracer = tracing.Tracer()
    tracer.install()
    from qcycle import cli

    result = {}
    mismatches = {}
    if os.environ.get(tracing.CLI_PROFILE_ENV):
        mismatches = tracer.profile_check(lambda: result.setdefault("code", cli.main(argv)))
    else:
        result["code"] = cli.main(argv)
    sys.stdout.flush()
    with open(path, "w") as fh:
        json.dump({"stats": tracer.snapshot(), "spans": tracer.spans,
                   "import_s": import_s, "caches": tracing.cache_entries(),
                   "accounted_s": tracer.accounted_s(), "missing": tracer.missing,
                   "cprofile_mismatches": mismatches,
                   "runner_s": time.perf_counter() - T0}, fh)
    return result["code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

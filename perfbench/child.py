"""One benchmark process: set srblab up, optionally run one CLI call.

Usage: ``python3 perfbench/child.py SPEC_JSON``.  The spec holds ``src``
(the checkout's ``src`` directory), ``config`` (the workload config
file), ``result`` (where to write this process's measurements) and
optionally ``argv`` (arguments for ``srblab.cli.main``) and ``trace``.

Set-up ends once ``import srblab`` is done and the config is loaded; the
monotonic clock reading at that point lets the parent, which read the
same clock before starting this process, compute the set-up time.
Without ``argv`` the process stops there (a set-up probe).
"""

import json
import os
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import srblab
    from srblab import cli
    from srblab.config import load_config

    if not os.path.abspath(srblab.__file__).startswith(src + os.sep):
        print(f"srblab was imported from {srblab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    load_config(spec["config"])
    result = {"setup_end": time.monotonic()}

    from tracer import Tracer, install, peak_rss_mb

    if spec.get("argv") is not None:
        tracer = None
        if spec.get("trace"):
            tracer = Tracer()
            install(tracer)
        t0 = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        result["run_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["peak_rss_mb"] = peak_rss_mb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

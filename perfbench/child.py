"""Run one `diver` command in this fresh interpreter and report what it cost.

    python3 perfbench/child.py RESULT.json [SPANS.json] -- <diver arguments>

RESULT.json receives the exit code, the wall time of `diver.cli.main` and
the peak resident memory of this process. With SPANS.json the diver
modules are traced first (see spans.py) and the spans are written there.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    split = sys.argv.index("--")
    outputs, diver_args = sys.argv[1:split], sys.argv[split + 1 :]
    from diver.cli import main as diver_main

    recorder = None
    if len(outputs) > 1:
        import spans

        recorder = spans.install()
    started = time.perf_counter()
    code = diver_main(diver_args)
    main_s = time.perf_counter() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.dump(outputs[1])
    with open(outputs[0], "w", encoding="utf-8") as fh:
        json.dump({"code": code, "main_s": main_s, "peak_rss_mb": peak_kb / 1024}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

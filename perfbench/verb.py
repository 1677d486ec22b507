"""Run one `ncacf` CLI verb in this process, timed from after the imports.

    python3 perfbench/verb.py RESULT_JSON SPANS_JSON|- -- VERB ARGS...

Writes the exit code, the wall time of `ncacf.cli.main` and this process's
peak RSS to RESULT_JSON. With a spans path instead of `-`, the library's
layers are traced (see tracing.py) and the spans are written there after
the clock stops.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    result_path, spans_path, sep, *cli_argv = argv
    if sep != "--" or not cli_argv:
        raise SystemExit("usage: verb.py RESULT_JSON SPANS_JSON|- -- VERB ARGS...")
    import ncacf
    import ncacf.cli

    rec = None
    if spans_path != "-":
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)

    start = time.perf_counter()
    root = rec.begin(f"cli.{cli_argv[0]}") if rec is not None else None
    try:
        rc = ncacf.cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the verb crashed: report it as a failed operation
        traceback.print_exc()
        rc = 1
    finally:
        if root is not None:
            rec.end(root)
    seconds = time.perf_counter() - start

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "seconds": seconds,
                   "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "module": ncacf.__file__}, fh)
    if rec is not None:
        rec.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

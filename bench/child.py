"""One benchmark command: a fresh process whose entry calls
`quatrig.cli.main(argv)`, the same call the `quatrig` console script makes.

    python3 bench/child.py STATS TRACE REQUEST_ID -- QUATRIG_ARGV...

STATS receives {"import_done": <monotonic seconds>, "peak_rss_kb": ...}:
the moment `quatrig.cli` finished importing, on the system-wide monotonic
clock the parent read just before spawning, and this process's resident-set
high-water mark (VmHWM), which unlike the parent's ru_maxrss does not count
the pages the child was forked from.  TRACE is "-" for an untraced run, or
the file that receives this process's spans (see tracing.py).  Exit code and
stdout are the CLI's own.
"""

import json
import os
import sys
import time


def main() -> int:
    stats_path, trace_path, request_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py STATS TRACE REQUEST_ID -- ARGV...")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    tracer = None
    if trace_path != "-":
        import tracing

        tracer = tracing.start(int(request_id))
    import quatrig.cli

    import_done = time.monotonic()
    try:
        if tracer is not None:
            tracer.install()
        return quatrig.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.write(trace_path)
        with open(stats_path, "w") as fh:
            json.dump({"import_done": import_done, "peak_rss_kb": _peak_rss_kb()}, fh)


def _peak_rss_kb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())

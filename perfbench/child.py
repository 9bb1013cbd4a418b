"""Run one torusnls command in a fresh interpreter and report on it.

    python3 perfbench/child.py <spawned_at> <mode> <main-loop names> -- <torusnls args>

spawned_at is the parent's time.monotonic() just before it started this
process; main-loop names are torusnls.cli attributes (comma-separated) whose
first call ends set-up.  mode is "run", "trace" (run with spans) or "setup"
(stop at the first main-loop call).  The last line of standard output is one
JSON object: the command's exit code and standard output, setup_s,
peak_rss_mb, and when traced the per-layer figures from spans.layer_figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    VmHWM, not ru_maxrss: after exec, ru_maxrss also keeps the peak of the
    forked copy of the parent, which is the benchmark's own interpreter.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    spawned_at, mode, names = float(argv[0]), argv[1], argv[2].split(",")
    args = argv[argv.index("--") + 1:]

    from torusnls import cli

    import spans

    marker = spans.FirstCall(stop=mode == "setup")
    missing = spans.mark_main_loop(marker, names)
    tracer = None
    run = cli.main
    if mode == "trace":
        tracer = spans.Tracer(run_id=f"{os.getpid()}")
        missing += spans.install(tracer)
        run = tracer.wrap("cli.main", cli.main)

    out = io.StringIO()
    code = None
    with contextlib.redirect_stdout(out):
        try:
            code = run(args)
        except spans.SetupDone:
            pass

    report = {
        "code": code,
        "stdout": out.getvalue(),
        "setup_s": None if marker.at is None else marker.at - spawned_at,
        "peak_rss_mb": peak_rss_mb(),
        "missing_probes": missing,
        "layers": None if tracer is None else spans.layer_figures(tracer.spans),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

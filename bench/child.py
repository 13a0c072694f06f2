"""One pass of a workload, in a fresh interpreter.

Imports ``repgrowth`` from the source tree given by ``--src`` and refuses to
run if it resolves anywhere else.  Runs every job of ``--jobs`` (a JSON list
of argv lists) in order through ``repgrowth.cli.main(argv)``: one client, a
closed loop, no threads.  Each job's stdout and stderr are captured; the
outputs, the wall and CPU time of the loop and the peak resident memory of
this process go to ``--out`` as JSON.  With ``--trace`` the spans and
counters of ``spans.Tracer`` are added.

    python3 bench/child.py --src src --jobs jobs.json --out pass.json [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--jobs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from repgrowth import cli

    module = Path(cli.__file__).resolve()
    if not module.is_relative_to(src):
        print(f"repgrowth resolved to {module}, outside {src}", file=sys.stderr)
        return 3
    jobs = json.loads(args.jobs.read_text(encoding="utf-8"))

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    results = []
    cpu_start, wall_start = _cpu_seconds(), time.perf_counter()
    for index, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        results.append(
            {
                "exit": code,
                "error": error,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "seconds": time.perf_counter() - started,
            }
        )
    wall = time.perf_counter() - wall_start
    cpu = _cpu_seconds() - cpu_start

    report = {
        "module": str(module),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        report["trace"] = tracer.export()
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""repgrowth benchmark: seeded CLI workloads, checked outputs, e2e and per-layer metrics.

    python3 bench/run.py --workload series --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 42     # one row per workload

Run it from anywhere; it measures the repgrowth source tree next to this
directory (``../src``) and refuses to run if that tree is missing or the
import resolves outside it.  A run:

1. builds the workload's job list from the seed and computes an exact
   reference for every job (``workloads.py``, ``reference.py``), outside
   any timed region;
2. times the set-up a user pays on every call -- spawn a cold interpreter,
   import ``repgrowth.cli``, ``build_parser()`` -- five times before each
   pass (``setup_s`` is the median);
3. runs passes until ``--seconds`` is used up (at least three): each pass is
   one fresh interpreter running the whole job list through
   ``repgrowth.cli.main`` (``child.py``), and every printed value is checked
   against the reference;
4. with ``--trace 1``, alternates untraced passes with traced ones and
   reports the per-layer metrics of ``spans.py`` instead of the e2e ones.

Every job within a pass is distinct, and the job order is fixed for a seed,
so count metrics repeat exactly.  Jobs listed as known defects still count
as failed; ``correct`` is false only when some other job fails.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).  Before it come the provenance line, the
report and per-job median seconds, which are diagnostics and not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES_PER_PASS = 5
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
PASS_TIMEOUT_S = 150

PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import repgrowth.cli\n"
    "repgrowth.cli.build_parser()\n"
    "print(time.monotonic(), repgrowth.cli.__file__)\n"
)

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class ProvenanceError(RuntimeError):
    """The code under test is not the source tree next to the benchmark."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def probe_setup() -> tuple[float, str]:
    """Seconds from spawning a cold interpreter to a built parser, and the module path."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60,
    )
    if done.returncode != 0:
        raise ProvenanceError(f"cannot import repgrowth.cli from {SRC}: {done.stderr.strip()}")
    ready, module = done.stdout.strip().split(" ", 1)
    if not _inside_src(module):
        raise ProvenanceError(f"repgrowth resolved to {module}, outside {SRC}")
    return float(ready) - start, module


def provenance(module: str) -> dict:
    head = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, cwd=ROOT, timeout=30,
        )
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            head = lines[1]
    except OSError:
        pass
    return {
        "module": module,
        "git_head": head,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_pass(work: Path, trace: bool, index: int) -> dict:
    out = work / f"pass-{index}.json"
    command = [
        sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
        "--jobs", str(work / "jobs.json"), "--out", str(out),
    ] + (["--trace"] if trace else [])
    done = subprocess.run(
        command, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"pass {index} exited {done.returncode}: {done.stderr.strip()}")
    report = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    if not _inside_src(report["module"]):
        raise ProvenanceError(f"pass {index} imported {report['module']}, outside {SRC}")
    return report


class Checker:
    """Checks each job's output once per distinct (job, stdout) pair."""

    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        self.verdicts: dict[tuple[int, str], str | None] = {}

    def failures(self, report: dict) -> list[tuple[int, str]]:
        failed = []
        for index, (job, result) in enumerate(zip(self.jobs, report["jobs"])):
            reason = self._verdict(index, job, result)
            if reason is not None:
                failed.append((index, reason))
        return failed

    def _verdict(self, index: int, job: workloads.Job, result: dict) -> str | None:
        if result["error"] is not None:
            return f"raised {result['error']}"
        if result["exit"] != 0:
            return f"exit {result['exit']}: {result['stderr'].strip()[:200]}"
        key = (index, result["stdout"])
        if key not in self.verdicts:
            try:
                job.check(result["stdout"])
                self.verdicts[key] = None
            except workloads.Mismatch as exc:
                self.verdicts[key] = str(exc)
            except Exception as exc:  # unparsable output is a failed job
                self.verdicts[key] = f"unparsable output ({type(exc).__name__}: {exc})"
        return self.verdicts[key]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        jobs = workloads.build(workload, seed, work)
        (work / "jobs.json").write_text(json.dumps([job.argv for job in jobs]), encoding="utf-8")
        checker = Checker(jobs)

        _, module = probe_setup()  # warm-up: byte-compiles and fills the file cache
        start = time.monotonic()
        setups, plain, traced, failures = [], [], [], []
        while True:
            round_start = time.monotonic()
            # Probes are spread over the run so setup_s samples the same machine
            # states as the passes do.
            setups += [probe_setup()[0] for _ in range(SETUP_PROBES_PER_PASS)]
            for with_trace in ((False, True) if trace else (False,)):
                report = run_pass(work, with_trace, len(plain) + len(traced))
                failures += checker.failures(report)
                (traced if with_trace else plain).append(report)
            elapsed = time.monotonic() - start
            round_time = time.monotonic() - round_start
            enough = len(traced) >= MIN_TRACED_ROUNDS if trace else len(plain) >= MIN_PASSES
            if enough and elapsed + round_time > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarise(workload, seed, jobs, module, setups, plain, traced, failures)


def summarise(workload, seed, jobs, module, setups, plain, traced, failures) -> dict:
    attempted = (len(plain) + len(traced)) * len(jobs)
    summary = {
        "workload": workload,
        "seed": seed,
        "provenance": provenance(module),
        "jobs": len(jobs),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": len(failures),
        "correct": all(jobs[i].known_defect for i, _ in failures),
        "e2e": {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setups),
        },
        "failed_frac": len(failures) / attempted,
        "pass_walls": [p["wall_s"] for p in plain],
        "failed_jobs": sorted(
            {(jobs[i].name, reason, jobs[i].known_defect) for i, reason in failures}
        ),
        "job_seconds": {
            job.name: statistics.median(p["jobs"][i]["seconds"] for p in plain)
            for i, job in enumerate(jobs)
        },
    }
    if traced:
        layers = [spans.layer_metrics(p["trace"]) for p in traced]
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        per_layer["trace.overhead_frac"] = traced_wall / summary["e2e"]["wall_s"] - 1
        summary["per_layer"] = per_layer
    return summary


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def print_report(summaries: list[dict]) -> None:
    print("provenance " + json.dumps(summaries[0]["provenance"]))
    header = f"{'workload':<10} {'wall_s':>16} {'cpu_s':>16} {'failed_frac':>20} "
    header += f"{'peak_rss_mb':>16} {'setup_s':>16}"
    print(header)
    for s in summaries:
        e2e, n, k = s["e2e"], s["passes"], s["setup_samples"]
        print(
            f"{s['workload']:<10} {e2e['wall_s']:>9.4f} s (n={n}) {e2e['cpu_s']:>9.4f} s (n={n}) "
            f"{s['failed_frac']:>8.4f} ({s['failed']}/{s['attempted']}) "
            f"{e2e['peak_rss_mb']:>7.2f} MiB (n={n}) {e2e['setup_s']:>9.4f} s (n={k})"
        )
    for s in summaries:
        print(f"\n[{s['workload']}] seed {s['seed']}, {s['jobs']} jobs per pass, "
              f"{s['passes']} untraced + {s['traced_passes']} traced passes")
        print("  pass wall seconds: " + " ".join(f"{w:.3f}" for w in s["pass_walls"]))
        for name, reason, defect in s["failed_jobs"]:
            tag = f" [known defect: {defect}]" if defect else ""
            print(f"  FAILED {name}: {reason}{tag}")
        print("  per-job median seconds (diagnostic, not gated):")
        for name, secs in sorted(s["job_seconds"].items(), key=lambda kv: -kv[1]):
            print(f"    {secs:9.4f}  {name}")
        for name, value in s.get("per_layer", {}).items():
            print(f"  {name:<40} {value:>16.6g} {_unit(name)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repgrowth" / "cli.py").is_file():
        print(f"error: no repgrowth source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(summaries)
    if args.workload == "all":
        return 0
    s = summaries[0]
    values = s["per_layer"] if args.trace else s["e2e"]
    print(
        json.dumps(
            {
                "correct": s["correct"],
                "attempted": s["attempted"],
                "failed": s["failed"],
                "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

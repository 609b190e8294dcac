"""Benchmark runner: runs one workload's hermitia CLI commands, each in a fresh
interpreter, one at a time (closed loop, one client), checks every verdict
and prints the metrics.

    python3 bench/run.py --workload stab-scan --seed 1 --seconds 12 --trace 0

--trace 0 repeats whole passes over the workload until --seconds have been
measured and reports the end-to-end metrics (medians over passes, set-up
time as the median of several fresh set-ups).  --trace 1 runs one traced
pass (spans around the public functions of every module, see spans.py) and
the kernel probe, and reports the per-layer metrics.  The last line of
stdout is one JSON object; metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_MIN_REPS = 9        # set-up is measured at least this often ...
SETUP_MIN_S = 2.0         # ... and for at least this long (median reported)
RUN_DEADLINE_S = 170      # every child is killed past this point of a run
MODULES = ("gf", "matff", "tetra", "classify", "orbit", "cli")


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float       # peak RSS of the child's own address space; 0 unless rss=True
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts children one at a time and collects per-child CPU time and
    peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("HERMITIA_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def run(self, argv, rss: bool = False) -> Child:
        """Run `python3 ARGV...`; with rss=True, ARGV is a module and its
        arguments, run under child.py so that its own peak RSS is known."""
        if time.monotonic() >= self.deadline:
            return Child(-1, 0.0, 0.0, 0.0, b"", b"not started: run deadline passed")
        fds = ()
        if rss:
            rss_read, rss_write = os.pipe()
            fds = (rss_write,)
            argv = [str(BENCH / "child.py"), str(rss_write), *argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + list(argv), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=ROOT,
                                pass_fds=fds)
        for fd in fds:
            os.close(fd)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.stdout.close()
        proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = 0.0
        if rss:
            with os.fdopen(rss_read, "rb") as fh:
                rss_mb = int(fh.read() or 0) / 1024
        return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, rss_mb,
                     out, err[0])


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int


def run_pass(runner: Runner, cmds, expected, trace_dir: Path = None) -> Pass:
    failed = 0
    cpu = rss = 0.0
    t0 = time.perf_counter()
    for cmd in cmds:
        if trace_dir is None:
            child = runner.run(["hermitia.cli", *cmd.argv], rss=True)
        else:
            child = runner.run([str(BENCH / "spans.py"),
                                str(trace_dir / f"{cmd.key}.json"), cmd.key, *cmd.argv])
        cpu += child.cpu_s
        rss = max(rss, child.rss_mb)
        problems = gate.check(cmd, child.code, child.stdout, expected)
        if problems:
            failed += 1
            for line in problems:
                print(f"GATE {line}", file=sys.stderr)
            tail = child.stderr.decode(errors="replace").strip().splitlines()[-3:]
            for line in tail:
                print(f"  stderr: {line}", file=sys.stderr)
    return Pass(time.perf_counter() - t0, cpu, rss, len(cmds), failed)


def setup_argv(workload: str):
    return [str(BENCH / "probes.py"), "setup"] + [
        f"{p},{m}" for p, m in workloads.search_fields(workload)]


def end_to_end(runner: Runner, workload: str, cmds, expected, seconds: float):
    setups, probe_failures = [], 0
    while ((len(setups) < SETUP_MIN_REPS or sum(setups) < SETUP_MIN_S)
           and time.monotonic() < runner.deadline):
        child = runner.run(setup_argv(workload))
        setups.append(child.wall_s)
        if child.code != 0:
            probe_failures += 1
            print(f"GATE set-up probe exit {child.code}", file=sys.stderr)
    # the set-up measurement counts as one attempt next to the commands
    attempted, failed = 1, int(probe_failures > 0)
    passes = []
    while not passes or (sum(p.wall_s for p in passes) < seconds
                         and time.monotonic() < runner.deadline):
        passes.append(run_pass(runner, cmds, expected))
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "pass_rate": 1 - failed / attempted,
    }
    print(f"# {len(passes)} pass(es); error_rate {failed / attempted:.4f} "
          f"({failed} of {attempted} failed)")
    return values, attempted, failed


def layer_values(summaries) -> dict:
    """Per-layer metric values from the traced commands' span summaries."""
    names, counters = {}, {}
    for doc in summaries:
        for name, s in doc["names"].items():
            agg = names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in agg:
                agg[k] += s[k]
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
    values = {}
    for name, s in names.items():
        for k, v in s.items():
            values[f"{name}.{k}"] = v
    for mod in MODULES:
        values[f"{mod}.self_s"] = sum(s["self_s"] for name, s in names.items()
                                      if name.startswith(mod + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    values["orbit.act.diag_calls"] = counters.get("orbit.act.diag_calls", 0)
    values["orbit.act.us_per_call"] = 1e6 * ratio(
        values.get("orbit.act.total_s", 0), values.get("orbit.act.calls", 0))
    values["orbit.proportional.hit_ratio"] = ratio(
        counters.get("orbit.proportional.hits", 0),
        values.get("orbit.proportional.calls", 0))
    values["gf.make_field.distinct_ratio"] = ratio(
        counters.get("gf.make_field.distinct", 0), values.get("gf.make_field.calls", 0))
    values["classify.exists_invertible.checked"] = counters.get(
        "classify.exists_invertible.checked", 0)
    values["classify.exists_invertible.admissible_ratio"] = ratio(
        counters.get("classify.exists_invertible.admissible", 0),
        values.get("classify.exists_invertible.calls", 0))
    values["tetra.smoothness_scan.points"] = counters.get(
        "tetra.smoothness_scan.points", 0)
    return values


def per_layer(runner: Runner, cmds, expected, seed: int, trace_dir: Path):
    trace_dir.mkdir()
    traced = run_pass(runner, cmds, expected, trace_dir)
    summaries, absent = [], set()
    for cmd in cmds:
        path = trace_dir / f"{cmd.key}.json"
        if path.exists():
            doc = json.loads(path.read_text())
            summaries.append(doc)
            counts = {k: s["calls"] for k, s in doc["names"].items() if s["calls"]}
            counts.update((k, v) for k, v in doc["counters"].items() if v)
            print(f"# counts {cmd.key} {json.dumps(counts, sort_keys=True)}")
            absent.update(doc["absent"])
    values = layer_values(summaries)
    # the time the spans add: their number times one span's calibrated cost
    n_spans = sum(doc["spans"] for doc in summaries)
    span_s = spans.span_cost()
    values["trace.overhead_s"] = n_spans * span_s
    print(f"# trace: {n_spans} spans x {span_s * 1e9:.0f} ns; summarizing took "
          f"{sum(doc['summarize_s'] for doc in summaries):.3f} s")
    probe = runner.run([str(BENCH / "probes.py"), "kernels", str(seed)])
    try:
        kernels = json.loads(probe.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        kernels = {"absent": ["kernel probe"]}
    absent.update(kernels.pop("absent"))
    values.update(kernels)
    if absent:
        print(f"# absent (reported as 0): {', '.join(sorted(absent))}")
    return values, traced.attempted, traced.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hermitia" / "cli.py").is_file():
        print(f"no hermitia sources under {SRC}", file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cmds = workloads.commands(args.workload, args.seed, work)
        expected = gate.load_expected()
        runner = Runner(deadline)
        runner.run(setup_argv(args.workload))    # warm-up: bytecode, file cache
        if args.trace:
            values, attempted, failed = per_layer(runner, cmds, expected,
                                                  args.seed, work / "spans")
        else:
            values, attempted, failed = end_to_end(runner, args.workload, cmds,
                                                   expected, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"# not measured (reported as 0): {', '.join(missing)}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

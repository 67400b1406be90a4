"""The dyngcd benchmark.  It drives the `dyngcd` CLI as a researcher does:
one command at a time, each in its own process, from a single client in a
closed loop.

    python3 perfbench/run.py --workload rank --seed 1 --seconds 30 --trace 0

A pass runs the workload's command list (workloads.generate) once, in a
fresh DYNGCD_CACHE_DIR.  --trace 0 repeats passes for --seconds and reports
the end-to-end metrics of BENCHMARK.json; --trace 1 alternates untraced
passes with passes under tracer.py and reports the per-layer metrics.
Every command's output is checked (workloads.py says how).  The last stdout
line is the result; the line before it holds provenance and check details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import spans as sp
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_PER_PASS = 2  # `dyngcd --version` launches before each pass
MIN_PASSES = 3
CMD_TIMEOUT = 120.0
PASS_BUDGET = 150.0  # no pass may be predicted to end later than this into a run
VERIFY_SUITES = 20
# One command at a time on a 2-vCPU host: keep each child to one thread.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass
class Result:
    rc: int
    wall: float
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    wall: float
    results: list[Result]
    traces: list[tuple[list[tuple], dict[str, int]]]  # (spans, counts) per command


def scratch_dir() -> Path:
    path = ROOT / ".perfbench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env(cache_dir: Path) -> dict[str, str]:
    return {**os.environ, **PINNED, "DYNGCD_CACHE_DIR": str(cache_dir)}


def launch(argv, env: dict[str, str], tmp: Path) -> Result:
    """Run `dyngcd <argv>` through child.py and wait for it; the wall time
    spans process start to exit, as a user at a shell sees it."""
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv], stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        watchdog = threading.Timer(CMD_TIMEOUT, signal.pidfd_send_signal, (pidfd, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, wall, usage.ru_maxrss, out.read().decode(), err.read().decode())


def run_pass(commands, tmp: Path, n: int, traced: bool) -> Pass:
    cache_dir = tmp / f"pass{n}"
    cache_dir.mkdir()
    envs = []
    for i in range(len(commands)):
        env = child_env(cache_dir)
        if traced:
            env["PERFBENCH_TRACE_OUT"] = str(tmp / f"trace{i}.json")
            env["PERFBENCH_CMD"] = str(i)
        envs.append(env)
    t0 = time.perf_counter()
    results = [launch(cmd.argv, env, tmp) for cmd, env in zip(commands, envs)]
    wall = time.perf_counter() - t0
    shutil.rmtree(cache_dir)
    traces = []
    if traced:
        for i in range(len(commands)):
            path = tmp / f"trace{i}.json"
            if not path.exists():  # the command died before writing its spans
                traces.append(([], {}))
                continue
            traces.append(tracer.Recorder.load(path))
            path.unlink()
    return Pass(wall, results, traces)


def check(cmd: wl.Command, res: Result, digests: dict[str, str]) -> str:
    """'ok', 'failed' or 'unchecked' (no digest recorded for the command)."""
    if res.rc != 0:
        return "failed"
    if cmd.expect is not None:
        return "ok" if res.stdout == cmd.expect else "failed"
    if cmd.argv[0] == "verify":
        lines = res.stdout.splitlines()
        if len(lines) != VERIFY_SUITES or not all(ln.startswith("PASS ") for ln in lines):
            return "failed"
    if "both" in cmd.argv:  # the dual-route self-check, also visible in the report
        report = json.loads(res.stdout)
        if report["count_B"] != report["floor_identity"]:
            return "failed"
    want = digests.get(cmd.key)
    if want is None:
        return "unchecked"
    return "ok" if hashlib.sha256(res.stdout.encode()).hexdigest() == want else "failed"


def keep_going(walls: list[float], elapsed: float, seconds: float) -> bool:
    if len(walls) < MIN_PASSES:
        return True
    ahead = elapsed + sp.median(walls)
    return ahead <= seconds and ahead <= PASS_BUDGET


def measure_setup(tmp: Path, samples: int) -> list[float]:
    """Wall times of `dyngcd --version`, launched like every command."""
    env = child_env(tmp)
    times = []
    for _ in range(samples):
        res = launch(["--version"], env, tmp)
        if res.rc != 0 or not res.stdout.startswith("dyngcd "):
            raise RuntimeError(f"dyngcd --version failed: {res.stderr.strip()}")
        times.append(res.wall)
    return times


def layer_metrics(p: Pass) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """Per-layer times and counts of one traced pass, and span-tree errors."""
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    errors = []
    for i, (spans, cmd_counts) in enumerate(p.traces):
        err = sp.tree_error(spans)
        if err:
            errors.append(f"command {i}: {err}")
        for k, v in sp.layer_times(spans).items():
            times[k] = times.get(k, 0.0) + v
        for k, v in cmd_counts.items():
            counts[k] = counts.get(k, 0) + v
    return times, counts, errors


def derived(counts: dict[str, int]) -> dict[str, float]:
    steps = counts.get("orbit_engine.scalar_steps", 0) + counts.get(
        "orbit_engine.first_zero_scan.steps", 0)
    hits = counts.get("orbit_engine.OrdCache.rank_of.hits", 0)
    lookups = hits + counts.get("orbit_engine.OrdCache.rank_of.misses", 0)
    return {
        "orbit_engine.no_zero_step_share": counts.get("orbit_engine.no_zero_steps", 0) / steps if steps else 0.0,
        "orbit_engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(),
    }


def is_traced(i: int) -> bool:
    """Pass order of a --trace 1 run: untraced, traced, traced, then the two
    kinds in turn, so that both kinds see the same machine and the work
    counts of two traced passes can be compared."""
    return i in (1, 2) or (i > 2 and i % 2 == 0)


def run_passes(commands, tmp: Path, seconds: float, trace: bool,
               setup: list[float] | None = None) -> list[Pass]:
    """Passes for `seconds`.  With a setup list, start-up samples are taken
    before every pass, so that they see the machine over the whole run and
    not only at its start; the first launch only warms the bytecode cache."""
    passes: list[Pass] = []
    if setup is not None:
        measure_setup(tmp, 1)
    t0 = time.perf_counter()
    while keep_going([p.wall for p in passes], time.perf_counter() - t0, seconds):
        i = len(passes)
        if setup is not None:
            setup += measure_setup(tmp, SETUP_PER_PASS)
        passes.append(run_pass(commands, tmp, i, traced=trace and is_traced(i)))
    return passes


def traced_metrics(passes: list[Pass], info: dict) -> tuple[dict[str, float], list[str]]:
    traced = [p for p in passes if p.traces]
    plain = [p for p in passes if not p.traces]
    problems: list[str] = []
    per_pass = []
    for p in traced:
        times, counts, errors = layer_metrics(p)
        problems += errors
        per_pass.append((times, counts))
    counts = per_pass[0][1]
    if any(c != counts for _, c in per_pass[1:]):
        diff = sorted(k for _, c in per_pass[1:] for k in set(c) | set(counts)
                      if c.get(k) != counts.get(k))
        problems.append(f"work counts differ between traced passes: {diff[:10]}")
    values: dict[str, float] = {}
    for name in set().union(*(t for t, _ in per_pass)):
        values[name] = sp.median([t.get(name, 0.0) for t, _ in per_pass])
    values.update(counts)
    values.update(derived(counts))
    values["trace_overhead_share"] = (
        sp.median([p.wall for p in traced]) / sp.median([p.wall for p in plain]) - 1.0)
    info["traced_walls"] = [p.wall for p in traced]
    info["untraced_walls"] = [p.wall for p in plain]
    return values, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dyngcd" / "cli.py").is_file():
        print(f"error: no dyngcd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        digests = json.load(fh)
    commands = wl.generate(args.workload, args.seed)

    tmp = scratch_dir()
    try:
        setup: list[float] = []
        passes = run_passes(commands, tmp, args.seconds, bool(args.trace),
                            None if args.trace else setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    verdicts = {"ok": 0, "failed": 0, "unchecked": 0}
    failures = []
    for p in passes:
        for cmd, res in zip(commands, p.results):
            v = check(cmd, res, digests)
            verdicts[v] += 1
            if v != "ok" and len(failures) < 5:
                failures.append({"verdict": v, "command": cmd.key, "rc": res.rc,
                                 "stderr": res.stderr.strip()[-300:]})
    attempted = sum(len(p.results) for p in passes)
    info = {"provenance": provenance(args), "commands_per_pass": len(commands),
            "passes": len(passes), "verdicts": verdicts, "failures": failures}

    if args.trace:
        values, problems = traced_metrics(passes, info)
        wanted = bench["per_layer"]
    else:
        walls = [p.wall for p in passes]
        values = {
            "setup_s": sp.median(setup),
            "wall_s": sp.median(walls),
            "cmd_p50_s": sp.median([r.wall for p in passes for r in p.results]),
            "peak_rss_mb": max(r.maxrss_kb for p in passes for r in p.results) / 1024,
        }
        info["pass_walls"] = walls
        info["cmd_walls"] = [[round(r.wall, 3) for r in p.results] for p in passes]
        problems = []
        wanted = bench["end_to_end"]
    info["problems"] = problems
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps(info))
    print(json.dumps({
        "correct": verdicts["failed"] == 0 and verdicts["unchecked"] == 0 and not problems,
        "attempted": attempted,
        "failed": verdicts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

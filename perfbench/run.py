"""Benchmark of the anylie command line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; `src/` is put on PYTHONPATH.
With `--trace 0` one client runs the workload's command list as a closed
loop, one `anylie` process at a time, and reports the end-to-end metrics
measured on those processes.  With `--trace 1` the same commands run
in-process through `anylie.cli.main(argv)` under the tracer, which gives
the per-layer metrics and writes the spans to
`.perfbench/trace-<workload>-<seed>.jsonl`.  Every command's output is
checked by an oracle; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

`--seconds` sets the amount of work, not a deadline: a run makes
ceil(seconds / nominal) passes over the command list, the nominal pass
time being the parent commit's.  A faster commit therefore runs the same
commands, and its percentiles compare like with like.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# set-up repeats at least SETUP_REPS times and until SETUP_MIN_S have
# passed, so that a set-up of one short process still gets a steady median
SETUP_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15
COMMAND_TIMEOUT_S = 150
# the console script's entry point; -S because anylie needs only the
# standard library, and the host's site-packages hooks (.pth files) would
# add a machine-specific cost to every start-up
ANYLIE = [sys.executable, "-S", "-c",
          "import sys; from anylie.cli import main; sys.exit(main(sys.argv[1:]))"]
PROBE = [sys.executable, "-S", "-c", "import anylie.cli; print(anylie.cli.__file__)"]


class BenchError(Exception):
    """The benchmark cannot run: no result is printed."""


@dataclass
class Sample:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    errors: list
    known_defect: str = None


class ChildRunner:
    """Runs child processes one at a time and reads each one's own rusage.
    Output goes through two files kept open for the runner's lifetime."""

    def __init__(self, env: dict, work_dir: Path):
        self.env = env
        self.out = open(work_dir / "stdout", "wb+")
        self.err = open(work_dir / "stderr", "wb+")

    def close(self):
        self.out.close()
        self.err.close()

    def run(self, argv, cwd):
        for handle in (self.out, self.err):
            handle.seek(0)
            handle.truncate()
        started = []  # the watchdog starts before the clock does
        timer = threading.Timer(COMMAND_TIMEOUT_S, lambda: [p.kill() for p in started])
        timer.start()
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(list(argv), cwd=cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err)
            started.append(proc)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.out.seek(0)
        self.err.seek(0)
        return (proc.returncode, self.out.read().decode(errors="replace"),
                self.err.read().decode(errors="replace"), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    """Children write byte code (into src/), so only the first import after
    clear_bytecode() compiles anylie."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    return env


def clear_bytecode():
    for cache in SRC.rglob("__pycache__"):
        shutil.rmtree(cache)


def check_command(cmd: W.Command, code, stdout, stderr, cwd: Path, notes: dict) -> list:
    out = W.Output(code, stdout, stderr, cwd)
    errors = cmd.check(out)
    if out.notes:
        notes[cmd.label] = "; ".join(out.notes)
    return errors


# ---------------------------------------------------------------------------
# end-to-end run: one child process per command
# ---------------------------------------------------------------------------

def setup_children(workload: W.Workload, runner: ChildRunner, run_dir: Path):
    """Set up repeatedly, each time with anylie's byte code cleared; return
    the median set-up time, the number of set-ups and the directory of the
    last set-up."""
    times, dirs = [], []
    rep = 0
    while rep < SETUP_REPS or (sum(times) < SETUP_MIN_S and rep < SETUP_MAX_REPS):
        cwd = run_dir / f"setup{rep}"
        cwd.mkdir()
        clear_bytecode()
        start = time.perf_counter()
        code, stdout, stderr, *_ = runner.run(PROBE, cwd)
        if code != 0 or not Path(stdout.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"cannot import anylie.cli from {SRC}: {stderr.strip()[-300:]}")
        for step in workload.setup:
            if step[0] == "cli":
                code, _, stderr, *_ = runner.run(ANYLIE + step[1], cwd)
                if code != 0:
                    raise BenchError(f"set-up step {step[1]} failed: {stderr.strip()[-300:]}")
            else:
                (cwd / step[1]).write_text(step[2](cwd))
        times.append(time.perf_counter() - start)
        dirs.append(cwd)
        rep += 1
    for path in sorted(dirs[0].iterdir()):
        if any((d / path.name).read_bytes() != path.read_bytes() for d in dirs[1:]):
            raise BenchError(f"set-up output {path.name} differs between repetitions")
    return statistics.median(times), len(times), dirs[-1]


def run_end_to_end(workload: W.Workload, seconds: int, run_dir: Path):
    runner = ChildRunner(child_env(), run_dir)
    try:
        setup_s, setup_reps, cwd = setup_children(workload, runner, run_dir)
        passes = max(1, math.ceil(seconds / workload.nominal_cycle_s))
        samples, notes = [], {}
        for _ in range(passes):
            for cmd in workload.commands:
                code, stdout, stderr, wall, cpu, rss = runner.run(ANYLIE + cmd.args, cwd)
                errors = check_command(cmd, code, stdout, stderr, cwd, notes)
                samples.append(Sample(cmd.label, wall, cpu, rss, errors, cmd.known_defect))
    finally:
        runner.close()
    walls = sorted(s.wall_s for s in samples)
    count = len(walls)
    # throughput and CPU from each command's median over the passes, so
    # that one disturbed pass does not move them
    slots = len(workload.commands)
    wall_med = [statistics.median(s.wall_s for s in samples[i::slots]) for i in range(slots)]
    cpu_med = [statistics.median(s.cpu_s for s in samples[i::slots]) for i in range(slots)]
    # the highest percentile with at least ten samples above it
    tail_rank = max(0, count - 11)
    failed = sum(1 for s in samples if s.errors)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {setup_reps} set-ups"),
        "ops_per_s": (slots / sum(wall_med), "1/s", f"{count} commands, {passes} passes"),
        "latency_p50_s": (statistics.median(walls), "s", f"{count} samples"),
        "latency_tail_s": (walls[tail_rank], "s",
                           f"p{100 * (tail_rank + 1) / count:.1f}, {count} samples, "
                           f"{count - tail_rank - 1} above"),
        "cpu_per_op_s": (sum(cpu_med) / slots, "s", f"{count} samples"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB", f"max of {count} children"),
        "failed_ratio": (failed / count, "ratio", f"{failed} of {count}"),
    }
    return samples, notes, metrics


# ---------------------------------------------------------------------------
# traced run: the same commands in-process
# ---------------------------------------------------------------------------

def run_in_process(main, args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_traced(workload: W.Workload, seed: int, run_dir: Path):
    sys.path.insert(0, str(SRC))
    import anylie.cli
    if not Path(anylie.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported anylie from {anylie.cli.__file__}, not {SRC}")
    from tracer import Tracer

    cwd = run_dir / "traced"
    cwd.mkdir()
    home = os.getcwd()
    os.chdir(cwd)
    tracer = Tracer()
    try:
        tracer.install()
        for step in workload.setup:
            if step[0] == "cli":
                code, _, stderr = tracer.run_command(
                    "setup " + step[1][0], lambda: run_in_process(anylie.cli.main, step[1]))
                if code != 0:
                    raise BenchError(f"set-up step {step[1]} failed: {stderr.strip()[-300:]}")
            else:
                (cwd / step[1]).write_text(step[2](cwd))
        tracer.uninstall()
        start = time.perf_counter()
        for cmd in workload.commands:
            run_in_process(anylie.cli.main, cmd.args)
        untraced = time.perf_counter() - start
        tracer.install()
        outputs = []
        start = time.perf_counter()
        for cmd in workload.commands:
            outputs.append(tracer.run_command(
                cmd.label, lambda: run_in_process(anylie.cli.main, cmd.args)))
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
        os.chdir(home)
    samples, notes = [], {}
    for cmd, (code, stdout, stderr) in zip(workload.commands, outputs):
        errors = check_command(cmd, code, stdout, stderr, cwd, notes)
        samples.append(Sample(cmd.label, 0.0, 0.0, 0.0, errors, cmd.known_defect))
    path = WORK / f"trace-{workload.name}-{seed}.jsonl"
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "span": ["name", "start_s", "end_s", "parent", "command"]})
    return samples, notes, tracer, traced / untraced, path


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "anylie" / "cli.py").is_file():
        print(f"error: no anylie sources under {SRC}", file=sys.stderr)
        return 2
    workload = W.build(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            samples, notes, tracer, overhead, path = run_traced(workload, args.seed, run_dir)
        else:
            samples, notes, metrics = run_end_to_end(workload, args.seconds, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {workload.name} (seed {args.seed})")
    print(f"inputs: {workload.sizes}")
    for label, note in notes.items():
        print(f"record {label}: {note}")
    failures = [s for s in samples if s.errors]
    for s in failures[:len(workload.commands)]:
        tag = f" [known defect: {s.known_defect}]" if s.known_defect else ""
        print(f"FAILED {s.label}{tag}: {'; '.join(s.errors)[:300]}")
    if args.trace:
        for cmd in tracer.commands:
            if cmd["mul_calls"]:
                print(f"command {cmd['command']} {cmd['label']}: {cmd['mul_calls']} "
                      f"multiplies, mixed_ratio {cmd['mixed_ratio']:.3f}, "
                      f"nf_cache {cmd['nf_cache_entries']}")
        result = tracer.metrics(overhead)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        result = {}
        for name, (value, unit, count) in metrics.items():
            print(f"{name} = {value:.6g} {unit} ({count})")
            # failed_ratio is 0 on most workloads, so it is printed but not
            # gated; attempted and failed below carry it
            if name != "failed_ratio":
                result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not any(s.errors and not s.known_defect for s in samples),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

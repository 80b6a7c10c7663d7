"""Benchmark runner for the clonehunter_ray engine.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 5 --trace 0

``--workload all`` runs every workload in turn.  Run from the
repository root.  Builds the workload's inputs from the seed, sets the
engine up several times (Ray start, package import, warm-up) and
reports the median, then repeats the workload's operation until
``--seconds`` have passed (at least once), checking every output against
ground truth.  Times are wall times with the
hypervisor's stolen share taken out (``Clock``).  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1``
the metrics are the per-layer ones (see layers.py) instead of the
end-to-end ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, ROOT)

# Ray's logical CPUs.  Two deadlock a read_parquet-fed scan: the
# signature actor pool floors at two actors and starves the read tasks
# of CPU slots (README.md, failure mode b).
RAY_CPUS = 4
SETUPS = 3
# the workloads (workloads.SIZES); named here so that this process
# imports nothing of the engine before its set-up is timed
WORKLOADS = ["scan", "docs"]
OBJECT_STORE_BYTES = 768 << 20
# Ray's unix socket paths (<temp dir>/session_<date>_<pid>/sockets/...)
# must fit in 107 bytes
MAX_RAY_TMP_LEN = 40


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def ray_tmp_dir() -> str | None:
    path = os.path.join(ROOT, ".ray")
    return path if len(path) <= MAX_RAY_TMP_LEN else None


def start_ray() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_tmp_dir(),
    )
    from ray.data import DataContext

    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    from clonehunter_ray.util import silence_empty_schema_warnings

    silence_empty_schema_warnings()


def _proc_tree() -> dict[int, list[str]]:
    """pid -> /proc/<pid>/stat fields (after the command name) of this
    process and all its descendants (the Ray daemons and workers)."""
    stats: dict[int, list[str]] = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        stats[int(pid)] = stat[stat.rindex(")") + 2 :].split()
    children: dict[int, list[int]] = {}
    for pid, fields in stats.items():
        children.setdefault(int(fields[1]), []).append(pid)
    tree, frontier = {}, [os.getpid()]
    while frontier:
        pid = frontier.pop()
        if pid in stats and pid not in tree:
            tree[pid] = stats[pid]
            frontier.extend(children.get(pid, []))
    return tree


_PAGE = os.sysconf("SC_PAGE_SIZE")


def tree_rss() -> int:
    return sum(int(f[21]) for f in _proc_tree().values()) * _PAGE


def stop_ray() -> None:
    """``ray.shutdown()``, then wait until every process the session
    started has exited (workers outlive their raylet for a moment);
    any still running after 30 s is killed."""
    import ray

    pids = set(_proc_tree()) - {os.getpid()}
    ray.shutdown()
    deadline = time.monotonic() + 30
    while pids and time.monotonic() < deadline:
        pids = {p for p in pids if _running(p)}
        time.sleep(0.1)
    if pids:
        log(f"killing {len(pids)} Ray processes still running 30 s after shutdown")
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


class RssSampler:
    """Peak resident memory of the process tree, sampled from /proc."""

    def __init__(self, interval: float = 0.2) -> None:
        self.interval, self.peak = interval, 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss())
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, tree_rss())


def machine_ticks() -> tuple[int, int]:
    """(busy, stolen) CPU ticks of the whole machine so far: user, nice,
    system, irq and softirq, and the hypervisor's steal (/proc/stat)."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:9]]
    return t[0] + t[1] + t[2] + t[5] + t[6], t[7]


class Clock:
    """Wall time of a block, and that time with the hypervisor's share
    taken out.  On a shared VM the host takes the vCPUs away, in spells
    that last minutes; the guest kernel counts that as steal.  The
    share of the CPU time the machine wanted that was stolen,
    ``steal / (busy + steal)`` over the block, is taken off the wall
    time: ``seconds = wall * (1 - steal_share)``."""

    def __enter__(self):
        self._ticks = machine_ticks()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        busy, stolen = (b - a for a, b in zip(self._ticks, machine_ticks()))
        self.steal_share = stolen / (busy + stolen) if busy + stolen else 0.0
        self.seconds = self.wall * (1 - self.steal_share)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(wl, seconds: float) -> tuple[dict, int, int]:
    """Repeat the workload's operation until ``seconds`` pass (at least
    once; the last one may end after them); every output is checked
    outside the timed region."""
    clocks, peaks, recalls, attempted, failed = [], [], [], 0, 0
    deadline = time.monotonic() + seconds
    while not attempted or time.monotonic() < deadline:
        attempted += 1
        try:
            with RssSampler() as rss, Clock() as clock:
                out = wl.run_once()
            ok, recall, reason = wl.check(out)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            ok, recall, reason = False, 0.0, f"raised {exc!r}"
        if ok:
            clocks.append(clock)
            peaks.append(rss.peak)
            recalls.append(recall)
        else:
            failed += 1
            log(f"run {attempted} failed: {reason}")
    log(f"run wall samples: {[round(c.wall, 3) for c in clocks]}, "
        f"steal shares: {[round(c.steal_share, 3) for c in clocks]}")
    if not clocks:
        return {}, attempted, failed
    run_s = statistics.median(c.seconds for c in clocks)
    return {
        "run_s": metric(run_s, "s"),
        "items_per_s": metric(wl.items / run_s, "items/s"),
        "peak_rss_mb": metric(statistics.median(peaks) / (1 << 20), "MiB"),
        "recall": metric(min(recalls), "ratio"),
    }, attempted, failed


def run_all(names: list[str], args) -> int:
    """Every workload, each in its own process; the last line maps each
    workload to its result."""
    results, code = {}, 0
    for name in names:
        proc = subprocess.run(
            _stage_cmd(args, "main", workload=name), stdout=subprocess.PIPE, text=True
        )
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def _stage_cmd(args, stage: str, workload: str | None = None) -> list[str]:
    return [sys.executable, os.path.abspath(__file__),
            "--workload", workload or args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--stage", stage]


def _workload(args):
    import workloads

    return workloads.make(args.workload, os.path.join(HERE, ".work"), args.seed)


def set_up(args):
    """One set-up in this process: Ray start, the import of the package
    (this process has imported none of it yet) and the warm-up, which
    runs the workload's operation on a small input.  Returns the clock
    and the workload."""
    with Clock() as clock:
        wl = _workload(args)
        start_ray()
        wl.warm_up()
    return clock, wl


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: "prepare" writes the inputs and ground truth, "setup"
    # times one set-up in a fresh interpreter
    ap.add_argument("--stage", choices=("main", "prepare", "setup"), default="main")
    args = ap.parse_args()

    for path in ("clonehunter_ray/__init__.py", "__ray_entry__.py", "tools/check_oracle.py"):
        if not os.path.exists(os.path.join(ROOT, path)):
            log(f"cannot find {path}: run from a checkout of the repository")
            return 2
    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {WORKLOADS} or all")
        return 2
    if args.stage == "prepare":
        _workload(args).prepare()
        return 0
    if args.stage == "setup":
        try:
            clock, _wl = set_up(args)
        finally:
            stop_ray()
        print(json.dumps({"wall": clock.wall, "steal_share": clock.steal_share,
                          "seconds": clock.seconds}))
        return 0

    log(f"machine: {len(os.sched_getaffinity(0))} usable CPUs "
        f"(OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')}, which nproc reports), "
        f"Ray num_cpus={RAY_CPUS}")
    # Ray workers import clonehunter_ray from the checkout: without this
    # a script launched outside the repository root restarts MapWorker
    # actors forever on ModuleNotFoundError (README.md, failure mode a)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    # inputs and oracles are made in a child process, so that this one
    # has imported nothing of the engine when its own set-up is timed
    t0 = time.monotonic()
    subprocess.run(_stage_cmd(args, "prepare"), stdout=sys.stderr, check=True)
    log(f"inputs and ground truth prepared in {time.monotonic() - t0:.1f} s")
    if ray_tmp_dir():
        shutil.rmtree(ray_tmp_dir(), ignore_errors=True)
    # every set-up runs in a fresh interpreter: the first ones in child
    # processes, the last in this one (a traced run reports no set-up
    # time: only its own is made)
    setups = []
    for _ in range(0 if args.trace else SETUPS - 1):
        proc = subprocess.run(_stage_cmd(args, "setup"), stdout=subprocess.PIPE,
                              text=True, check=True)
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    try:
        clock, wl = set_up(args)
        setups.append({"wall": clock.wall, "steal_share": clock.steal_share,
                       "seconds": clock.seconds})
        log(f"setup wall samples: {[round(s['wall'], 3) for s in setups]}, "
            f"steal shares: {[round(s['steal_share'], 3) for s in setups]}")
        wl.load()
        if args.trace:
            import layers

            tracer = layers.Tracer()
            with Clock() as clock:
                wl.trace(tracer)
            # spans are wall times: this says how much of them was stolen
            tracer.notes["steal_share"] = f"{clock.steal_share:.3f}"
            metrics = tracer.metrics()
            attempted, failed = tracer.attempted, tracer.failed
            tracer.write(os.path.join(HERE, ".out", f"trace-{args.workload}-{args.seed}.json"))
        else:
            metrics, attempted, failed = run_timed(wl, args.seconds)
            metrics["setup_s"] = metric(statistics.median(s["seconds"] for s in setups), "s")
    finally:
        stop_ray()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the kgray KG engine: one closed-loop job in flight, driven
from this process, every pass checked against an oracle.

    python3 perfbench/run.py --workload pages_rich --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced passes; ``--trace
1`` reports the per-layer metrics from a stage-by-stage traced pass and an
in-process kernel pass (see README.md).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Inputs,
outputs, Ray's session files and the span file live under ``.perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
# Ray's logical CPU count: at 1 the fused extract->linker actor pool holds
# the only CPU and the downstream tasks never schedule
RAY_CPUS = 2
# a fixed object store, so that its size does not follow the host's free
# memory; a pass holds a few tens of MB in it
RAY_OBJECT_STORE = 512 * 1024 * 1024
# read by the raylet: no worker kills when other tenants fill the host's
# memory, and no usage report
RAY_ENV = {"RAY_memory_monitor_refresh_ms": "0", "RAY_USAGE_STATS_ENABLED": "0"}
# this process's handle on Ray's temp dir while Ray runs (see start_ray)
_ray_dir_fd = None


def _load_engine():
    """Import the engine from this checkout, or exit without a result."""
    sys.path.insert(0, ROOT)
    try:
        import kgray
    except ImportError as e:
        sys.exit(f"perfbench: cannot import kgray from {ROOT}: {e}")
    if not os.path.abspath(kgray.__file__).startswith(ROOT + os.sep):
        sys.exit(f"perfbench: kgray resolves outside the checkout: {kgray.__file__}")


# ---------------------------------------------------------------- processes

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children_map(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all of this host's CPUs since boot."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = t
    return user + nice + system + irq + softirq, steal


def steal_share(t0: tuple[int, int], t1: tuple[int, int]) -> float:
    """Share of the CPU time this VM's busy CPUs wanted between two
    ``cpu_ticks`` readings that the hypervisor gave to other guests."""
    busy, stolen = t1[0] - t0[0], t1[1] - t0[1]
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


def own_time(wall: float, steal: float) -> float:
    """Wall time with the stolen share taken out: the time the interval
    would have taken had the hypervisor not run other guests on this VM's
    CPUs.  On a shared host the steal share swings between about 0.1 and
    0.4 from minute to minute and moves raw wall time with it."""
    return wall * (1.0 - steal)


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Peak summed RSS of this process and every descendant (the Ray
    GCS, raylet and worker processes), sampled on a background thread."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        me = os.getpid()
        while not self._stop.is_set():
            total = sum(_rss_bytes(p) for p in [me, *descendants(me)])
            self.peak = max(self.peak, total)
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _reap(pids: list[int], timeout: float) -> list[int]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        if not pids:
            break
        time.sleep(0.1)
    return [p for p in pids if _alive(p)]


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    procs = descendants(os.getpid())
    if ray.is_initialized():
        ray.shutdown()
    for p in _reap(procs, 15.0):
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    left = _reap(procs, 10.0)
    if left:
        raise RuntimeError(f"processes still running after shutdown: {left}")
    global _ray_dir_fd
    if _ray_dir_fd is not None:
        os.close(_ray_dir_fd)
        _ray_dir_fd = None
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)


def start_ray() -> None:
    """Start a local Ray whose session files all stay in the checkout.

    Ray puts unix sockets under its temp dir, and a socket path must fit in
    107 bytes, which a deep checkout overruns.  The temp dir is therefore
    named through this process's open handle on it, ``/proc/<pid>/fd/<n>``:
    a short absolute path that every Ray process resolves to the same
    directory for as long as this process lives.
    """
    import ray
    from ray.data import DataContext

    global _ray_dir_fd
    os.environ.update(RAY_ENV)
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    tmp = os.path.join(WORK, "ray")
    os.makedirs(tmp, exist_ok=True)
    _ray_dir_fd = os.open(tmp, os.O_RDONLY | os.O_DIRECTORY)
    # where /dev/shm is too small Ray would fall back to /tmp
    kw = {}
    try:
        shm = os.statvfs("/dev/shm")
        shm_ok = shm.f_bavail * shm.f_frsize >= RAY_OBJECT_STORE
    except OSError:
        shm_ok = False
    if not shm_ok:
        kw["_plasma_directory"] = tmp
    ray.init(address="local", num_cpus=RAY_CPUS,
             object_store_memory=RAY_OBJECT_STORE, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _temp_dir=f"/proc/{os.getpid()}/fd/{_ray_dir_fd}", **kw)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


# ---------------------------------------------------------------- the runs

class Bench:
    def __init__(self, wl, run_dir: str):
        self.wl = wl
        self.run_dir = run_dir
        self.passes = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.mode = None  # the exchange mode, known once Ray is up

    def out_dir(self) -> str:
        self.passes += 1
        return os.path.join(self.run_dir, f"out-{self.passes:04d}")

    def record(self, out_dir: str) -> None:
        """Compare one finished pass with the oracle, then drop its output."""
        c = self.wl.verify(out_dir)
        self.checks.append(c)
        self.failed += not c["ok"]
        shutil.rmtree(out_dir)

    def setup(self) -> tuple[float, float]:
        """``ray.init`` plus one warm-up pass (worker and actor spawn);
        returns its wall time and steal share."""
        from kgray.stages.shuffle import exchange_mode, source_size_hint

        c0, t0 = cpu_ticks(), time.perf_counter()
        start_ray()
        out = self.out_dir()
        self.wl.run(out)
        dt, steal = time.perf_counter() - t0, steal_share(c0, cpu_ticks())
        self.record(out)
        self.mode = exchange_mode(source_size_hint(self.wl.source()))
        return dt, steal

    def timed_passes(self, seconds: float, min_passes: int):
        """Closed loop: the next pass starts when the previous one ends, and
        only if a pass of median length still ends within ``seconds``.  A
        pass that raises counts as failed and the loop goes on.  Returns
        each good pass's wall time, steal share, output rows and peak RSS."""
        times, steals, rows, peaks = [], [], [], []
        t_end = time.perf_counter() + seconds
        while len(times) < min_passes or (
                time.perf_counter() + statistics.median(times) <= t_end):
            out = self.out_dir()
            with RssSampler() as rss:
                c0, t0 = cpu_ticks(), time.perf_counter()
                try:
                    n = self.wl.run(out)
                except Exception:
                    traceback.print_exc()
                    self.failed += 1
                    shutil.rmtree(out, ignore_errors=True)
                    if self.failed > self.passes // 2:
                        raise
                    continue
                dt, steal = time.perf_counter() - t0, steal_share(c0, cpu_ticks())
            self.record(out)
            times.append(dt)
            steals.append(steal)
            rows.append(n)
            peaks.append(rss.peak)
        return times, steals, rows, peaks


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Set-up and pass times are reported net of steal (``own_time``); the
    raw wall times and steal shares are printed alongside."""
    setup_wall, setup_steal = bench.setup()
    # three passes at least, so that one stalled pass cannot set the median
    times, steals, rows, peaks = bench.timed_passes(seconds, min_passes=3)
    job_s = statistics.median(map(own_time, times, steals))
    print(f"# setup: wall {setup_wall:.3f} s, steal {setup_steal:.2f}")
    print(f"# passes: {len(times)}  wall_s: " + " ".join(f"{t:.3f}" for t in times)
          + "  steal: " + " ".join(f"{s:.2f}" for s in steals))
    return {
        "setup_s": (own_time(setup_wall, setup_steal), "s"),
        "job_s": (job_s, "s"),
        "docs_per_s": (bench.wl.docs / job_s, "1/s"),
        "triples_per_s": (statistics.median(rows) / job_s, "1/s"),
        "peak_rss_mb": (statistics.median(peaks) / 1e6, "MB"),
        "precision": (min(c["precision"] for c in bench.checks), "ratio"),
        "recall": (min(c["recall"] for c in bench.checks), "ratio"),
    }


# every per-layer metric, with its unit; layers a workload does not run read 0
STAGES = ("pipelines.kg.read_pages", "stages.extract", "stages.link",
          "stages.assemble", "stages.canonicalize", "stages.materialize",
          "stages.ttl", "stages.diff")
KERNEL_STAGES = ("stages.extract", "stages.link", "stages.assemble", "stages.ttl")
PER_LAYER = {
    **{f"{s}.udf_s": "s" for s in KERNEL_STAGES},
    "stages.link.mention_blocks": "count",
    "stages.link.mentions_linked": "count",
    "stages.ttl.triples": "count",
    **{f"{s}.{k}": u for s in STAGES
       for k, u in (("wall_s", "s"), ("rows_out", "count"), ("mb_out", "MB"))},
    **{f"{s}.plane_s": "s" for s in KERNEL_STAGES},
    "stages.canonicalize.dedup_yield": "ratio",
    "stages.shuffle.mode": "1-hash/0-sort",
    "stages.shuffle.partitions": "count",
    "stages.diff.inserts": "count",
    "stages.diff.deletes": "count",
    "stages.diff.cancel_share": "ratio",
    "stages.materialize.files": "count",
    "trace.overhead_s": "s",
    "host.steal_share": "ratio",
    "host.job_wall_s": "s",
}


def per_layer(bench: Bench, seconds: float, tracer) -> dict:
    """Per-layer times are raw wall times; ``host.steal_share`` tells how
    much of them the hypervisor took."""
    bench.setup()
    times, steals, _, _ = bench.timed_passes(seconds / 2, min_passes=1)
    job_s = statistics.median(times)
    out = bench.out_dir()
    c0 = cpu_ticks()
    m = bench.wl.staged(out, tracer)
    bench.record(out)
    m.update(bench.wl.kernels(tracer))
    steals.append(steal_share(c0, cpu_ticks()))
    for s in KERNEL_STAGES:
        if f"{s}.udf_s" in m:
            m[f"{s}.plane_s"] = m[f"{s}.wall_s"] - m[f"{s}.udf_s"]
    m["stages.shuffle.mode"] = 1 if bench.mode == "hash" else 0
    m["trace.overhead_s"] = tracer.total("job") - job_s
    m["host.steal_share"] = statistics.median(steals)
    m["host.job_wall_s"] = job_s
    print(f"# untraced job_s: {job_s:.3f}  traced job: {tracer.total('job'):.3f}")
    for name, self_s in sorted(tracer.self_times().items()):
        print(f"# self_s {name}: {self_s:.3f}")
    return {k: (m.get(k, 0), u) for k, u in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pages_rich", "revision_delta"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=None,
                    help="override the workload's page / revision-pair count "
                         "(smoke tests)")
    args = ap.parse_args(argv)
    # a terminated run still shuts Ray down and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    _load_engine()
    from spans import Tracer
    from workloads import WORKLOADS

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        wl = WORKLOADS[args.workload](args.workload, os.path.join(run_dir, "in"),
                                      args.seed, args.docs)
        bench = Bench(wl, run_dir)
        tracer = Tracer(run_id)
        try:
            if args.trace:
                metrics = per_layer(bench, args.seconds, tracer)
            else:
                metrics = end_to_end(bench, args.seconds)
        finally:
            stop_ray()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    props = {"workload": args.workload, "seed": args.seed,
             "nproc": len(os.sched_getaffinity(0)), "ray_cpus": RAY_CPUS,
             "exchange_mode": bench.mode, **wl.props}
    tracer.write(os.path.join(WORK, f"{run_id}.json"), props=props,
                 metrics={k: [v, u] for k, (v, u) in metrics.items()})
    print("# workload " + json.dumps(props))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_ratio = {bench.failed / bench.passes:.6g} ratio "
          f"({bench.failed} of {bench.passes} passes)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.passes,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the served setsketch system.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `sketchtool` and the load generator
from source into .bench_build/ (first run only), starts the served system
as separate processes, loads it, runs the timed window through the load
generator and prints one JSON line with the run's checks and metrics.
See e2ebench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS = os.path.join(ROOT, ".bench_run")

# Served-system layout per workload. Ports are fixed so the client's
# backoff jitter, seeded from (site id, port), repeats from run to run.
# The WAL is written without fsync: the benchmark keeps to its checkout,
# which sits on a shared virtual disk whose fsync latency would be
# measured instead of the server (see README.md). ingest_frames gives each
# shard a deep queue (8192 batches), so a short stall of an apply thread
# does not bounce 32-update frames into RETRY_LATER sleeps of a millisecond.
WORKLOADS = {
    "ingest_bulk": {"copies": 64, "shards": 2, "wal": True, "ports": [27411]},
    "ingest_frames": {"copies": 16, "shards": 2, "wal": True, "queue": 8192,
                      "poll": True, "ports": [27421]},
    "query_mix": {"copies": 32, "shards": 2, "wal": False, "ports": [27431]},
    "federated_mix": {"copies": 32, "shards": 1, "wal": False,
                      "ports": [27441, 27442, 27443]},
}
SETUPS = 5  # timed set-ups per run; setup_s is their median
# Set-ups that start within this many seconds of the first are untimed:
# after a quiet spell the shared host ran the first set-ups up to 2.5x
# slower (README.md).
WARMUP_S = 1.0

def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def run_to_end(args, timeout):
    """Runs a command to its end, killing it after `timeout` seconds.

    Waits in one blocking call: subprocess.run(timeout=...) polls the
    child with sleeps of up to 50 ms, which would round set-up times up
    to its polling steps."""
    proc = subprocess.Popen(args)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, args)


def build():
    for needed in ("src/CMakeLists.txt", "tools/sketchtool.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("run from the repository root (missing %s)" % needed)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "e2ebench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=subprocess.DEVNULL)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "sketchtool", "loadgen", "idlepoll"],
                   check=True, stdout=subprocess.DEVNULL)
    return [os.path.join(BUILD, name)
            for name in ("sketchtool", "loadgen", "idlepoll")]


class System:
    """The served system: one server, or a router over two shards."""

    def __init__(self, sketchtool, layout, rundir):
        self.sketchtool = sketchtool
        self.layout = layout
        self.rundir = rundir
        self.procs = []

    def _start(self, args):
        proc = subprocess.Popen([self.sketchtool] + args,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        self.procs.append(proc)
        line = proc.stdout.readline()  # "listening|routing on <addr>:<port>"
        if not line.startswith(("listening on", "routing on")):
            proc.kill()
            error = proc.stderr.read()
            self.stop()
            fail("%s did not start: %s" % (args[0], error))

    def start(self):
        layout = self.layout
        common = ["--copies", str(layout["copies"])]
        ports = layout["ports"]
        shard_ports = ports[1:] if len(ports) > 1 else ports
        for port in shard_ports:
            args = ["serve", "--port", str(port), "--shards",
                    str(layout["shards"])] + common
            if "queue" in layout:
                args += ["--queue-capacity", str(layout["queue"])]
            if layout["wal"]:
                wal = os.path.join(self.rundir, "wal-%d" % port)
                shutil.rmtree(wal, ignore_errors=True)
                args += ["--wal-dir", wal, "--no-wal-fsync"]
            self._start(args)
        if len(ports) > 1:
            shards = ",".join("127.0.0.1:%d" % p for p in shard_ports)
            self._start(["route", "--port", str(ports[0]), "--shards", shards,
                         "--replicas", "1"] + common)

    def pids(self):
        return [p.pid for p in self.procs]

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        for proc in self.procs:
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        self.procs = []


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sketchtool, loadgen, idlepoll = build()
    if subprocess.run([loadgen, "selftest"]).returncode != 0:
        fail("load generator self-test failed")

    layout = WORKLOADS[args.workload]
    rundir = os.path.join(RUNS, args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--copies", str(layout["copies"]),
              "--ports", ",".join(map(str, layout["ports"]))]

    system = System(sketchtool, layout, rundir)
    # ingest_frames runs one SCHED_IDLE poller per CPU for the whole run,
    # so no CPU halts between the round trips it measures (idlepoll.cc,
    # README.md).
    poller = None
    if layout.get("poll"):
        cpus = min(64, len(os.sched_getaffinity(0)))
        poller = subprocess.Popen([idlepoll, str(cpus)],
                                  stdout=subprocess.PIPE, text=True)
    try:
        if poller and poller.stdout.readline().strip() != "polling":
            fail("idlepoll did not start")
        setup_s = []
        warm_until = time.perf_counter() + WARMUP_S
        while len(setup_s) < SETUPS:
            start = time.perf_counter()
            system.start()
            run_to_end([loadgen, "preload"] + common, 60)
            if start >= warm_until:
                setup_s.append(time.perf_counter() - start)
            if len(setup_s) < SETUPS:
                system.stop()
        run = subprocess.run(
            [loadgen, "run"] + common +
            ["--pids", ",".join(map(str, system.pids())),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--rundir", rundir],
            stdout=subprocess.PIPE, text=True, timeout=args.seconds + 120)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("load generator failed: %s" % e)
    finally:
        system.stop()
        if poller:
            poller.kill()
            poller.wait()
            poller.stdout.close()
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("load generator exited with %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    print("  setup_s per set-up: " +
          ", ".join("%.4f" % s for s in setup_s))
    if not args.trace:
        result["metrics"] = dict(
            [("setup_s", {"value": statistics.median(setup_s), "unit": "s"})] +
            list(result["metrics"].items()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

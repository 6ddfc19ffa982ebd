"""hodgelab benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload bigrading --seed 1 --seconds 15 --trace 0

Each request is sent only after the previous one returns.  ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` repeats the first
request cycle untraced and traced and reports the per-layer metrics plus
the tracing overhead.  Every output is checked; the last line of stdout is
one JSON object, and the exit code is non-zero if any check failed.
See bench/README.md for the workloads, the metrics and the timing method.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

PROBES = 5  # fresh-interpreter set-up samples per run
CLI_PER_SETUP = 3  # `hodgelab verify` samples after each set-up sample
MIN_REQUESTS = 110  # so that at least 10 latencies lie above the p90
BLOCK_SECONDS = 0.5  # work between two host-speed calibrations
CHILD_TIMEOUT = 120

workloads = None  # bench/workloads.py, imported by main() once src/ is on sys.path


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def metadata() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        sha = done.stdout.strip() or sha
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "hodgelab").glob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_hodgelab_lines": lines,
    }


class Probes:
    """Fresh-interpreter samples: set-up time and a cold `hodgelab verify`."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.route = workloads.CLI_ROUTES[workload]
        self.rng = random.Random(f"cli/{workload}/{seed}")
        self.env = dict(os.environ)
        paths = [str(SRC), self.env.get("PYTHONPATH")]
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.failed = 0

    def _run(self, argv):
        return subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)

    def sample(self):
        """One set-up sample and CLI_PER_SETUP CLI samples, scaled to the reference host.

        The import part of the set-up is scaled like a cold command, by the
        interpreter start-up timed just before and just after; the warm-up
        part like compute, by the kernel the probe times after it.
        """
        before = hostspeed.start_seconds(self.env)
        done = self._run([sys.executable, str(BENCH / "setup_probe.py"), self.workload])
        if done.returncode != 0:
            _fail(f"set-up probe failed:\n{done.stderr}")
        reference = hostspeed.start_seconds(self.env)
        imported, warmed, kernel = map(float, done.stdout.split()[-3:])
        self.setup.append(imported * 2.0 * hostspeed.REFERENCE_START_S / (before + reference)
                          + warmed * hostspeed.REFERENCE_KERNEL_S / kernel)
        for _ in range(CLI_PER_SETUP):
            reference = self._cli_sample(reference)

    def _cli_sample(self, reference_before: float) -> float:
        """Time one cold `hodgelab verify`; scale it by the interpreter start-up
        timed just before and just after, and return the latter."""
        campaign, dim = self.route
        seed = workloads.campaign_seed(campaign, dim, self.rng)
        argv = [sys.executable, "-m", "hodgelab.cli", "verify", campaign, "--dim", str(dim),
                "--seeds", str(seed)]
        start = time.perf_counter()
        done = self._run(argv)
        cli = time.perf_counter() - start
        reference_after = hostspeed.start_seconds(self.env)
        self.cli.append(cli * 2.0 * hostspeed.REFERENCE_START_S
                        / (reference_before + reference_after))
        try:
            ok = done.returncode == 0 and workloads.report_ok(campaign, dim, seed,
                                                              json.loads(done.stdout))
        except (json.JSONDecodeError, KeyError, TypeError):
            ok = False
        if not ok:
            self.failed += 1
            print(f"cli check failed: {argv[3:]} -> {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
        return reference_after


class Client:
    """Sends requests one at a time and keeps the tallies."""

    def __init__(self, pool, tracer=None):
        self.pool = pool
        self.tracer = tracer
        self.latencies: list[float] = []
        self.shape_seconds: dict[tuple, float] = {}  # (kind, name, dim, degree) -> latency sum
        self.cases = 0
        self.failed = 0

    def send(self, request):
        start = time.perf_counter()
        try:
            outcome = workloads.execute(request, self.pool)
        except Exception:  # a raised exception is a failed request, not a crash
            outcome = workloads.Outcome(False, 0, time.perf_counter() - start, None,
                                        traceback.format_exc())
        self.latencies.append(outcome.seconds)
        shape = (request.kind, request.name, request.dim, request.degree)
        self.shape_seconds[shape] = self.shape_seconds.get(shape, 0.0) + outcome.seconds
        if self.tracer is not None:
            self.tracer.flush()
        self.cases += outcome.cases
        if not outcome.ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"request failed: {request}\n{outcome.error}", file=sys.stderr)
        return outcome


class Timeline:
    """Wall time and latencies of the timed loop, scaled block by block.

    A block is the requests sent between two calibrations, at least
    BLOCK_SECONDS of them; its wall time and latencies are scaled by the
    factor of the calibrations around it.
    """

    def __init__(self, client: Client):
        self.client = client
        self.scaler = hostspeed.Scaler()
        self.loop_time = self.scaled_time = 0.0
        self.scaled_ms: list[float] = []
        self._open()

    def _open(self):
        self.start = time.perf_counter()
        self.first = len(self.client.latencies)

    def tick(self):
        """Call after each request; closes the block once it is long enough."""
        if time.perf_counter() - self.start >= BLOCK_SECONDS:
            self.close()

    def close(self):
        wall = time.perf_counter() - self.start
        if len(self.client.latencies) > self.first:
            factor = self.scaler.next()
            self.loop_time += wall
            self.scaled_time += wall * factor
            self.scaled_ms += [x * factor * 1000.0 for x in self.client.latencies[self.first:]]
        self._open()

    def resume(self):
        """Start a block after a pause (the probes), from a fresh calibration."""
        self.scaler.restart()
        self._open()


def end_to_end(workload: str, seed: int, seconds: float, pool) -> tuple[dict, int, int]:
    """Run whole cycles for ``seconds`` of loop time; interleave the probes."""
    client = Client(pool)
    probes = Probes(workload, seed)
    timeline = Timeline(client)
    digest = hashlib.sha256()
    digested = 0
    cycles = 0
    while timeline.loop_time < seconds or len(client.latencies) < MIN_REQUESTS:
        for request in workloads.cycle(workload, seed, cycles):
            outcome = client.send(request)
            timeline.tick()
            if cycles == 0 and outcome.report is not None:
                digest.update(outcome.report)
                digested += 1
            # the probes run at 10%, 30%, ..., 90% of the loop time
            due = (len(probes.setup) + 0.5) * seconds / PROBES
            if len(probes.setup) < PROBES and timeline.loop_time >= due:
                timeline.close()
                probes.sample()
                timeline.resume()
        cycles += 1
    timeline.close()
    while len(probes.setup) < PROBES:
        probes.sample()

    loop_time, scaled_ms, factors = timeline.loop_time, timeline.scaled_ms, timeline.scaler.factors
    scaled_ms.sort()
    raw_ms = sorted(x * 1000.0 for x in client.latencies)
    p90 = statistics.quantiles(scaled_ms, n=10)[8]
    print(f"report_sha256 {digest.hexdigest()} ({digested} campaign reports of cycle 0)")
    print(f"cycles {cycles}, requests {len(raw_ms)} "
          f"({sum(1 for x in scaled_ms if x > p90)} above p90), loop {loop_time:.3f} s; "
          f"host speed factor median {statistics.median(factors):.3f} "
          f"(min {min(factors):.3f}, max {max(factors):.3f})")
    print(f"unscaled: {client.cases / loop_time:.6g} cases/s, "
          f"p50 {statistics.median(raw_ms):.6g} ms, "
          f"p90 {statistics.quantiles(raw_ms, n=10)[8]:.6g} ms")
    busy = sum(client.shape_seconds.values())
    print("latency share by request shape: " + ", ".join(
        f"{name}/{dim}" + (f"/p{degree}" if degree else "") + f" {share / busy:.3f}"
        for (_, name, dim, degree), share in sorted(client.shape_seconds.items(),
                                                     key=lambda item: -item[1])))
    attempted = len(client.latencies) + len(probes.cli)
    failed = client.failed + probes.failed
    print(f"  {'failed_frac':<50} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    metrics = {
        "setup_s": (statistics.median(probes.setup), "s"),
        "cases_per_s": (client.cases / timeline.scaled_time, "cases/s"),
        "request_p50_ms": (statistics.median(scaled_ms), "ms"),
        "request_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cli_cold_s": (statistics.median(probes.cli), "s"),
    }
    return metrics, attempted, failed


def _timed_round(client: Client, requests) -> tuple[float, float]:
    """Send the requests; return their wall time and their time scaled block by block."""
    timeline = Timeline(client)
    for request in requests:
        client.send(request)
        timeline.tick()
    timeline.close()
    return timeline.loop_time, timeline.scaled_time


def traced(workload: str, seed: int, seconds: float, pool) -> tuple[dict, int, int]:
    """Repeat cycle 0 untraced then traced until ``seconds`` have passed."""
    requests = workloads.cycle(workload, seed, 0)
    tracer = Tracer()
    plain, traced_client = Client(pool), Client(pool, tracer)
    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        _, plain_time = _timed_round(plain, requests)
        tracer.reset()
        tracer.install()
        try:
            traced_wall, traced_time = _timed_round(traced_client, requests)
        finally:
            tracer.uninstall()
        factor = traced_time / traced_wall
        measured = tracer.metrics()
        for name in measured:
            if name.endswith("self_s"):
                measured[name] *= factor
        rounds.append((measured, traced_time / plain_time - 1.0))
    print(f"trace rounds {len(rounds)}, {len(requests)} requests per round")
    metrics = {}
    for name, value in rounds[0][0].items():
        if name.endswith("self_s"):
            metrics[name] = (statistics.median(r[name] for r, _ in rounds), "s")
        else:
            if any(r[name] != value for r, _ in rounds):
                print(f"warning: count {name} differs between rounds", file=sys.stderr)
            metrics[name] = (value, "count")
    metrics["trace.overhead"] = (statistics.median(o for _, o in rounds), "ratio")
    attempted = len(plain.latencies) + len(traced_client.latencies)
    return metrics, attempted, plain.failed + traced_client.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bigrading", "exterior", "spectral", "cold-exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hodgelab" / "__init__.py").is_file():
        _fail(f"no hodgelab sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]
    global workloads
    import hodgelab
    import workloads

    if Path(hodgelab.__file__).resolve().parent != SRC / "hodgelab":
        _fail(f"imported hodgelab from {hodgelab.__file__}, not from {SRC}")

    # one CPU for the client, its probes and the calibration kernel, so that
    # the calibration sees the same co-tenants as the work it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"workload {args.workload}, seed {args.seed}, closed loop with 1 client")
    print("metadata " + json.dumps(metadata(), sort_keys=True))
    workloads.warm_up(args.workload)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        pool = workloads.make_decompose_inputs(args.seed, workdir)
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed = measure(args.workload, args.seed, args.seconds, pool)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        if value or not args.trace:  # the traced table leaves out the zeros
            print(f"  {name:<50} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""``service-closed-loop``: ``python -m repro.service`` under one client.

The server runs as its own process with a fresh state directory and
result cache; defaults are kept except for paths and port.  Each round
has two phases, in order:

1. write: the client submits novel tiny jobs one at a time and waits
   for each result (a closed loop);
2. read: the client sends duplicate submissions and fetches results of
   finished jobs.

A job is about 10 ms of simulation inside roughly 35 ms end to end, so
admission, WAL fsyncs, queue wait, the per-batch supervisor spawn and
the cache store dominate the write phase, and the read phase is the
HTTP front-end, the queue's snapshots and cache lookups.  The phases
run one after the other because, run concurrently on a 2-vCPU host,
read latency turned bimodal.

``wall_s`` is the median host time of one round (both phases), scaled
to nominal host speed by calibration chunks taken while the server is
idle before and after the round.  ``setup_s`` stays raw: calibrating
server start-up widened its spread.  Every served report is compared with
an untimed in-process ``run_experiment`` of the same spec.
"""

import json
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time

from common import (
    HERE,
    ROOT,
    Ledger,
    calibrated,
    calibration_chunk,
    median,
    peak_rss_mb_self,
    percentile,
    print_header,
    python_env,
    quiet_chunk,
)

JOB_EXPERIMENT = "table1"
JOB_SCALE = 0.001
JOBS_PER_ROUND = 16
READS_PER_ROUND = 160
#: Result poll interval; the client library's 200 ms default would
#: quantise jobs of 35-50 ms.
POLL_S = 0.002
JOB_TIMEOUT_S = 60.0
SETUP_PROBES = 7
#: Round index reserved for each server's untimed warm-up round.
WARMUP_ROUND = 1_000_002
WORKDIR = os.path.join(ROOT, ".repobench-work")


def prepare(seed):
    from repro.service.client import ServiceClient  # noqa: F401

    return {"seed": seed}


def job_seed(run_seed, round_index, job_index):
    """Distinct for every (run seed, round, job): no novel job repeats
    across rounds, and runs with different seeds share none."""
    return (run_seed * 1_000_003 + round_index) * 1_000 + job_index


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One server process with its own state and cache directories."""

    def __init__(self, root, name, traced=False):
        self.dir = os.path.join(root, name)
        os.makedirs(self.dir)
        self.state_dir = os.path.join(self.dir, "state")
        self.dump = os.path.join(self.dir, "trace.json") if traced else None
        port = free_port()
        service_args = ["--state-dir", self.state_dir,
                        "--cache-dir", os.path.join(self.dir, "cache"),
                        "--port", str(port)]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                    self.dump] + service_args
        else:
            argv = [sys.executable, "-m", "repro.service"] + service_args
        self.url = "http://127.0.0.1:{}".format(port)
        self.log = open(os.path.join(self.dir, "server.log"), "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=python_env(), stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        #: Host seconds from start until /healthz answers.
        self.setup_s = self._wait_healthy(start)

    def _wait_healthy(self, start):
        from repro.service.client import ServiceClient

        client = ServiceClient(self.url, timeout=2.0)
        deadline = start + 60.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            try:
                status, _ = client.healthz()
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - start
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("service did not answer /healthz; see {}".format(
            self.log.name))

    def stop(self):
        """SIGTERM (graceful drain), escalating to SIGKILL; always reaps
        the process so its port is free when this returns."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.log.close()

    def trace(self):
        with open(self.dump) as handle:
            return json.load(handle)


class Client:
    """The benchmark's closed-loop client over the repo's ServiceClient,
    timing every request it makes."""

    def __init__(self, url):
        from repro.service.client import ServiceClient

        self.api = ServiceClient(url, client_id="repobench", timeout=30.0)
        self.request_s = 0.0
        self.requests = 0
        self.polls = 0
        self.rejected = 0

    def call(self, method, *args, **kwargs):
        began = time.perf_counter()
        status, body = getattr(self.api, method)(*args, **kwargs)
        self.request_s += time.perf_counter() - began
        self.requests += 1
        if status in (429, 503):
            self.rejected += 1
        return status, body

    def job(self, seed):
        """Submit one novel job and poll until it settles; returns
        ``(latency_s, report or None)``."""
        began = time.perf_counter()
        status, body = self.call("submit", JOB_EXPERIMENT, scale=JOB_SCALE,
                                 seed=seed)
        if status not in (200, 202):
            return time.perf_counter() - began, None
        job_id = body["job"]
        deadline = began + JOB_TIMEOUT_S
        while True:
            status, body = self.call("job_result", job_id)
            if status != 202 or time.perf_counter() >= deadline:
                break
            self.polls += 1
            time.sleep(POLL_S)
        latency = time.perf_counter() - began
        if status != 200:
            return latency, None
        return latency, (job_id, body["report"])


def expected_report(seed):
    from repro.experiments.runner import run_experiment

    return run_experiment(JOB_EXPERIMENT, scale=JOB_SCALE, seed=seed,
                          _warn_seedless=False).format_report()


def run_round(client, ledger, run_seed, index, finished, rng, samples):
    """One write phase then one read phase.  Returns the round's host
    seconds, raw and calibrated, the in-process seconds its
    verification took, and the reports served."""
    before = quiet_chunk()
    write_began = time.perf_counter()
    served = []
    for job in range(JOBS_PER_ROUND):
        seed = job_seed(run_seed, index, job)
        latency, outcome = client.job(seed)
        samples["job"].append(latency)
        served.append((seed, outcome))
    write_s = time.perf_counter() - write_began

    check_began = time.perf_counter()
    for seed, outcome in served:
        ok = outcome is not None and outcome[1] == expected_report(seed)
        ledger.record(ok, "job seed {} was not served its report".format(
            seed))
        if ok:
            finished.append((seed,) + outcome)
    check_s = time.perf_counter() - check_began

    read_began = time.perf_counter()
    for read in range(READS_PER_ROUND):
        seed, job_id, report = finished[rng.randrange(len(finished))]
        began = time.perf_counter()
        if read % 2 == 0:
            status, body = client.call("job_result", job_id)
            ok = status == 200 and body.get("report") == report
        else:
            status, body = client.call("submit", JOB_EXPERIMENT,
                                       scale=JOB_SCALE, seed=seed)
            ok = status == 200 and body.get("state") == "done"
        samples["read"].append(time.perf_counter() - began)
        ledger.record(ok, "read {} of round {} failed (HTTP {})".format(
            read, index, status))
    read_s = time.perf_counter() - read_began
    raw = write_s + read_s
    scaled = calibrated(raw, (before + quiet_chunk()) / 2)
    return (raw, scaled), check_s, [o and o[1] for _, o in served]


def run(args):
    print_header("service-closed-loop", args, calibration_chunk())
    root = os.path.join(WORKDIR, str(os.getpid()))
    os.makedirs(root)
    try:
        return _run(args, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass


def _run(args, root):
    ledger = Ledger()
    rng = random.Random(args.seed)
    start = time.monotonic()
    servers = {}
    try:
        servers["untraced"] = Server(root, "main")
        if args.trace:
            # Every round runs on this server and on a traced twin, in
            # alternating order, so the overhead ratio and the output
            # identity check compare the same rounds under the same
            # host conditions.
            servers["traced"] = Server(root, "traced", traced=True)
        # Set-up probes are servers of their own, each started while the
        # main server idles; the main server's start also pays the
        # benchmark's first use of the client and runs slow.
        probes = []
        clients = {phase: Client(server.url)
                   for phase, server in servers.items()}
        finished = {phase: [] for phase in servers}
        samples = {phase: {"job": [], "read": []} for phase in servers}
        rounds = {phase: [] for phase in servers}
        # One untimed warm-up round per server.  The traced server's
        # counters cover it too, so its verification time is kept.
        check_s = {}
        for phase in servers:
            _, check_s[phase], _ = run_round(
                clients[phase], Ledger(), args.seed, WARMUP_ROUND,
                finished[phase], rng, {"job": [], "read": []})
        index = 0
        while index < 2 or time.monotonic() < start + args.seconds:
            if not args.trace and len(probes) < SETUP_PROBES and (
                    time.monotonic() >= start + len(probes)
                    * args.seconds / SETUP_PROBES):
                probe = Server(root, "probe{}".format(len(probes)))
                probe.stop()
                probes.append(probe.setup_s)
            served = {}
            order = list(servers)
            for phase in order if index % 2 == 0 else order[::-1]:
                seconds, checked, served[phase] = run_round(
                    clients[phase], ledger, args.seed, index,
                    finished[phase], rng, samples[phase])
                rounds[phase].append(seconds)
                check_s[phase] += checked
                print("# round {} {} raw_s={:.6f} calibrated_s={:.6f}".format(
                    index, phase, *seconds))
            if args.trace and served["traced"] != served["untraced"]:
                ledger.fail_gate("round {}: the traced server served "
                                 "different reports".format(index))
            index += 1
    finally:
        for server in servers.values():
            server.stop()

    wall_s = median([c for _, c in rounds["untraced"]])
    jobs, reads = samples["untraced"]["job"], samples["untraced"]["read"]
    print("# rounds={} wall_s={:.6f} calibrated, {:.6f} raw; {} novel jobs "
          "(raw): jobs_per_s={:.3f} job_p50_ms={:.3f} job_p90_ms={:.3f}; {} "
          "reads (raw): read_p50_ms={:.3f} read_p90_ms={:.3f}".format(
              len(rounds["untraced"]), wall_s,
              median([r for r, _ in rounds["untraced"]]), len(jobs),
              len(jobs) / sum(jobs), 1000 * median(jobs),
              1000 * percentile(jobs, 90), len(reads),
              1000 * median(reads), 1000 * percentile(reads, 90)))
    if args.trace:
        return ledger, service_layers(
            servers["traced"], clients["traced"], rounds,
            check_s["traced"])
    print("# setup probes (s, raw): {}".format(
        " ".join("{:.4f}".format(p) for p in probes)))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return ledger, {
        "setup_s": median(probes),
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb_self() + children / 1024.0,
    }


def service_layers(server, client, rounds, check_s):
    from layers import PER_LAYER

    trace = server.trace()
    spans, counts = trace["spans"], trace["counts"]
    n = len(rounds["traced"]) + 1  # the warm-up round is traced too
    jobs = n * JOBS_PER_ROUND

    def inclusive(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    values = {name: 0 for name, _, _ in PER_LAYER}
    for name in ("service.core.submit", "service.core.result",
                 "service.wal.append", "experiments.supervisor.run",
                 "experiments.cache.put", "experiments.cache.get"):
        values[name + "_s"] = inclusive(name) / n
    for name in ("experiments.supervisor.batches",
                 "experiments.supervisor.retries",
                 "experiments.cache.hits", "experiments.cache.misses"):
        values[name] = counts.get(name, 0) / n
    values["service.wal.appends_per_job"] = (
        calls("service.wal.append") / jobs)
    values["service.wal.bytes"] = os.path.getsize(
        os.path.join(server.state_dir, "queue.wal")) / n
    leased = counts.get("service.queue.leased", 0)
    values["service.queue.wait_ms"] = (
        counts.get("service.queue.wait_ms", 0.0) / leased if leased else 0)
    batches = counts.get("experiments.supervisor.batches", 0)
    values["experiments.supervisor.overhead_ms"] = (
        1000 * (inclusive("experiments.supervisor.run") - check_s) / batches
        if batches else 0)
    core_s = (inclusive("service.core.submit")
              + inclusive("service.core.result"))
    values["service.http_ms"] = (
        1000 * (client.request_s - core_s) / client.requests)
    values["service.rejected"] = client.rejected / n
    values["client.polls_per_job"] = client.polls / jobs
    values["trace.overhead_ratio"] = (
        median([c for _, c in rounds["traced"]])
        / median([c for _, c in rounds["untraced"]]))
    values["trace.rounds"] = n
    return values

"""The ``serve-mix`` workload: a ``repro serve --port 0 --workers 1``
subprocess driven over HTTP by one load-generator process.

Traffic is a mix of three request kinds, drawn from the seed:

* ~85% **hits**: repeats of a small spec set cached during set-up;
  the response must carry the pre-filled payload;
* ~12% **cold**: unique 1-2 ms simulations, polled by id until they
  reach a terminal state, which must be ``done``;
* ~3% **invalid** specs, which must get a 400.

A 429, 503, other 5xx, timeout or mismatched result counts as a failed
request. The generator keeps at most ``CONNECTIONS`` keep-alive
connections. ``replay`` sends a fixed request list as fast as the
connections allow (closed loop: a connection waits for each reply and
follows its cold jobs to their end). ``open_loop`` sends on a Poisson
schedule regardless of replies and times every request from when it
was due.
"""

import asyncio
import collections
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import STATS, normalize

HERE = Path(__file__).resolve().parent

#: At most one keep-alive connection per CPU.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
HIT_SHARE = 0.85
COLD_SHARE = 0.12
HIT_SPECS = 8
KINDS = ("gmake", "memclone", "psearchy", "vips")
MS = 1_000_000
POLL_SECONDS = 0.004
#: A replay polls a cold job first this long after submitting it, when
#: it has almost always finished: the number of polls, and so the
#: server's work per replay, then does not grow when the host is slow.
REPLAY_FIRST_POLL_SECONDS = 0.1
REQUEST_TIMEOUT = 10.0
TERMINAL = ("done", "failed", "cancelled")

#: Requests in one closed-loop replay, and the most cold jobs one
#: connection follows at once (the server refuses a client's ninth).
REPLAY_REQUESTS = 600
COLD_WINDOW = 4
#: Fixed-rate phase: offered rate and length.
FIXED_RATE = 200.0
FIXED_SECONDS = 6.0
#: Max-rate search: step between offered rates, length of a step.
STEP_RATE = 50.0
STEP_SECONDS = 2.0
MAX_STEPS = 6
#: Limits a rate must meet to count as sustained.
HIT_P99_LIMIT_MS = 10.0
COLD_P90_LIMIT_MS = 100.0
BACKLOG_LIMIT = 2 * CONNECTIONS

INVALID_SPECS = (
    {"scenario": "no-such-scenario", "duration_ns": MS},
    {"scenario": "solo", "duration_ns": -1},
    {"scenario": "solo", "duration_ns": MS, "unknown_field": 1},
    {"scenario": "solo", "duration_ns": MS,
     "scenario_kwargs": {"workload_kind": "no-such-workload"}},
    {"scenario": "solo", "duration_ns": 20_000 * MS},
)


def percentile(values, fraction):
    """Nearest-rank percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))]


class Mix:
    """Seeded request generator: the hit spec set, unique cold specs,
    invalid specs and Poisson schedules."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._seeds = set()
        self.hit_specs = [self._spec(KINDS[i % len(KINDS)], MS) for i in range(HIT_SPECS)]

    def _spec(self, kind, duration_ns):
        seed = self.rng.getrandbits(48)
        while seed in self._seeds:
            seed = self.rng.getrandbits(48)
        self._seeds.add(seed)
        return {"tag": "perfbench", "scenario": "solo", "seed": seed,
                "scenario_kwargs": {"workload_kind": kind}, "duration_ns": duration_ns}

    def cold_spec(self):
        return self._spec(self.rng.choice(KINDS), self.rng.randint(MS, 2 * MS))

    def request(self):
        """One ``(kind, payload)``: payload is a hit-set index for hits,
        a spec dict otherwise."""
        draw = self.rng.random()
        if draw < HIT_SHARE:
            return "hit", self.rng.randrange(HIT_SPECS)
        if draw < HIT_SHARE + COLD_SHARE:
            return "cold", self.cold_spec()
        return "invalid", self.rng.choice(INVALID_SPECS)

    def requests(self, count):
        """``count`` requests for a closed-loop replay: the mix's shares
        exactly, hit specs, cold kinds and invalid specs taken in turn,
        in seeded order (so every replay does the same amount of work)."""
        hits, cold = round(count * HIT_SHARE), round(count * COLD_SHARE)
        out = [("hit", i % HIT_SPECS) for i in range(hits)]
        out += [("cold", self._spec(KINDS[i % len(KINDS)], self.rng.randint(MS, 2 * MS)))
                for i in range(cold)]
        out += [("invalid", INVALID_SPECS[i % len(INVALID_SPECS)])
                for i in range(count - hits - cold)]
        self.rng.shuffle(out)
        return out

    def poisson(self, rate, seconds):
        """Requests with exponential gaps at ``rate`` per second."""
        schedule, due = [], self.rng.expovariate(rate)
        while due < seconds:
            schedule.append((due,) + self.request())
            due += self.rng.expovariate(rate)
        return schedule


class Connection:
    """One keep-alive HTTP/1.1 connection. Requests are pipelined: each
    is written when it is sent, and a reader task matches the
    fixed-length responses to them in order."""

    def __init__(self, host, port, client):
        self.host, self.port, self.client = host, port, client
        self.writer = None
        self.waiting = collections.deque()
        self._reader = None
        self._opening = asyncio.Lock()

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None
        if self._reader is not None:
            self._reader.cancel()
            await asyncio.gather(self._reader, return_exceptions=True)
            self._reader = None

    async def send(self, method, path, body=None):
        """Write one request now; returns a future of ``(status,
        headers, body bytes)``."""
        data = json.dumps(body).encode() if body is not None else b""
        head = ("%s %s HTTP/1.1\r\nHost: %s\r\nX-Repro-Client: %s\r\n"
                "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
                % (method, path, self.host, self.client, len(data)))
        async with self._opening:  # one socket and one reader per connection
            if self.writer is None:
                reader, self.writer = await asyncio.open_connection(self.host, self.port)
                self._reader = asyncio.ensure_future(self._read_loop(reader, self.writer))
            future = asyncio.get_running_loop().create_future()
            self.waiting.append(future)
            self.writer.write(head.encode() + data)
        return future

    async def request(self, method, path, body=None):
        """Send one request and wait for its response."""
        future = await self.send(method, path, body)
        return await asyncio.wait_for(future, REQUEST_TIMEOUT)

    async def _read_loop(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                status = int(line.split()[1])
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", 0)))
                future = self.waiting.popleft()
                if not future.done():
                    future.set_result((status, headers, body))
                if headers.get("connection") == "close":
                    raise ConnectionError("server closed the connection")
        except (ConnectionError, OSError, ValueError, IndexError,
                asyncio.IncompleteReadError) as err:
            while self.waiting:
                future = self.waiting.popleft()
                if not future.done():
                    future.set_exception(ConnectionError(repr(err)))
            if self.writer is writer:
                writer.close()
                self.writer = None


class Phase:
    """What one phase of traffic observed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.hit_ms = []
        self.cold_ms = []
        self.late_ms = []
        self.backlog = 0
        self.wall_s = 0.0

    def fail(self, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def meets_limits(self):
        return (self.failed == 0
                and percentile(self.hit_ms, 0.99) <= HIT_P99_LIMIT_MS
                and percentile(self.cold_ms, 0.90) <= COLD_P90_LIMIT_MS
                and self.backlog <= BACKLOG_LIMIT)


class LoadGenerator:
    """Runs phases of traffic over ``CONNECTIONS`` connections."""

    def __init__(self, host, port, mix, expected):
        self.mix = mix
        self.expected = expected  # hit-set index -> pre-filled result
        self.conns = [Connection(host, port, "perfbench-%d" % i) for i in range(CONNECTIONS)]
        self.cold_done = []  # specs of cold jobs that finished

    async def close(self):
        for conn in self.conns:
            await conn.close()

    def _least_loaded(self):
        return min(self.conns, key=lambda conn: len(conn.waiting))

    async def _one(self, phase, kind, payload, due, conn=None, first_poll=POLL_SECONDS):
        """Send one scheduled request (and, for a cold job, poll it to a
        terminal state); records its latency or its failure."""
        loop = asyncio.get_running_loop()
        pinned = conn
        conn = conn or self._least_loaded()
        spec = self.mix.hit_specs[payload] if kind == "hit" else payload
        try:
            future = await conn.send("POST", "/jobs", spec)
            phase.late_ms.append((loop.time() - due) * 1e3)
            status, headers, body = await asyncio.wait_for(future, REQUEST_TIMEOUT)
            if status in (429, 503):
                phase.fail("%s request refused with %d" % (kind, status))
            elif kind == "hit":
                if (status == 200 and headers.get("x-repro-cache") == "hit"
                        and json.loads(body)["result"] == self.expected[payload]):
                    phase.hit_ms.append((loop.time() - due) * 1e3)
                else:
                    phase.fail("hit request got %d with a different result" % status)
            elif kind == "invalid":
                if status != 400:
                    phase.fail("invalid spec got %d, expected 400" % status)
            elif status != 202:
                phase.fail("cold submission got %d, expected 202" % status)
            else:
                job_id = json.loads(body)["id"]
                wait = first_poll
                while True:
                    await asyncio.sleep(wait)
                    wait = POLL_SECONDS
                    poll = pinned or self._least_loaded()
                    status, _, body = await poll.request("GET", "/jobs/%s" % job_id)
                    state = json.loads(body)["state"] if status == 200 else None
                    if state in TERMINAL:
                        break
                    if status != 200:
                        phase.fail("poll of %s got %d" % (job_id, status))
                        return
                if state == "done":
                    phase.cold_ms.append((loop.time() - due) * 1e3)
                    self.cold_done.append(spec)
                else:
                    phase.fail("cold job %s ended %s" % (job_id, state))
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError, KeyError) as err:
            phase.fail("%s request failed: %r" % (kind, err))

    async def replay(self, requests):
        """Closed loop: each connection sends the next request of
        ``requests`` (``[(kind, payload)]``) once the previous one is
        answered. A cold job is followed (polled to its end) beside the
        later requests, with at most ``COLD_WINDOW`` followed at once per
        connection, so the replay measures the service's work rather
        than the poll interval. Ends when every cold job has finished."""
        loop = asyncio.get_running_loop()
        phase = Phase()
        phase.attempted = len(requests)
        pending = collections.deque(requests)
        start = loop.time()

        async def client(conn):
            followed = collections.deque()
            while pending:
                kind, payload = pending.popleft()
                request = self._one(phase, kind, payload, loop.time(), conn,
                                    REPLAY_FIRST_POLL_SECONDS)
                if kind != "cold":
                    await request
                    continue
                if len(followed) == COLD_WINDOW:
                    await followed.popleft()
                followed.append(asyncio.ensure_future(request))
            await asyncio.gather(*followed)

        await asyncio.gather(*(client(conn) for conn in self.conns))
        phase.wall_s = loop.time() - start
        return phase

    async def open_loop(self, schedule):
        """Open loop: send each request of ``schedule`` (``[(due_offset,
        kind, payload)]``) when due, whatever is still outstanding."""
        loop = asyncio.get_running_loop()
        phase = Phase()
        phase.attempted = len(schedule)
        tasks = []
        start = loop.time()
        for offset, kind, payload in schedule:
            delay = start + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(self._one(phase, kind, payload, start + offset)))
        phase.backlog = sum(len(conn.waiting) for conn in self.conns)
        await asyncio.gather(*tasks)
        return phase


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess with its own temporary cache dir.
    A ``sampled`` server runs under ``serve_sampled.py``, which samples
    the host's speed in it (see :mod:`hostspeed`)."""

    def __init__(self, root, scratch, sampled, cpus=None):
        self.root = Path(root)
        self.scratch = Path(scratch)
        self.cpus = cpus
        self.proc = None
        self.port = None
        self.stderr_path = self.scratch / "serve.stderr"
        self.stats_path = self.scratch / "sampler.stats" if sampled else None

    def start(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(self.scratch / "cache")
        env.pop("REPRO_CACHE", None)
        self.scratch.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "repro.cli"]
        if self.stats_path:
            self.stats_path.write_bytes(bytes(STATS.size))
            cmd = [sys.executable, str(HERE / "serve_sampled.py"), str(self.stats_path)]
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd + ["serve", "--port", "0", "--workers", "1"],
                cwd=str(self.scratch), env=env, stdout=subprocess.PIPE, stderr=err,
                preexec_fn=(lambda: os.sched_setaffinity(0, self.cpus)) if self.cpus else None,
            )
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError("repro serve did not start: %r" % line)
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def cpu_seconds(self):
        """CPU seconds the server process has used so far, all threads."""
        with open("/proc/%d/stat" % self.proc.pid) as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def sampler_stats(self):
        """``(slices, seconds in slices)`` the server's sampler has
        published so far."""
        return self._stats()[:2]

    def _stats(self):
        return STATS.unpack(self.stats_path.read_bytes()[:STATS.size])

    def _stop_sampler(self, timeout=10.0):
        """Disarm the server's sampler before it shuts down (see
        ``serve_sampled.py``); waits at most ``timeout`` seconds."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while self._stats()[2] and time.monotonic() < deadline:
            time.sleep(0.005)

    def peak_rss_mb(self):
        """The server's peak resident set (``VmHWM``) in MB."""
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self, timeout=60):
        """SIGTERM, wait for the drain; returns the exit code (None if
        it had to be killed)."""
        if self.proc is None:
            return None
        if self.stats_path and self.proc.poll() is None:
            self._stop_sampler()
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=timeout)
            return proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None

    def stderr(self):
        try:
            return self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""


async def prefill(host, port, mix):
    """Simulate the hit spec set through the server and return its
    results, which every later hit must reproduce."""
    conn = Connection(host, port, "perfbench-prefill")
    expected = []
    try:
        for spec in mix.hit_specs:
            status, _, body = await conn.request("POST", "/jobs", spec)
            if status not in (200, 202):
                raise RuntimeError("pre-fill submission got %d: %r" % (status, body[:200]))
            job_id = json.loads(body)["id"]
            while True:
                status, _, body = await conn.request("GET", "/jobs/%s/result" % job_id)
                if status == 200:
                    expected.append(json.loads(body)["result"])
                    break
                if status != 409:
                    raise RuntimeError("pre-fill result got %d: %r" % (status, body[:200]))
                await asyncio.sleep(POLL_SECONDS)
    finally:
        await conn.close()
    return expected


async def telemetry(host, port):
    conn = Connection(host, port, "perfbench-telemetry")
    try:
        status, _, body = await conn.request("GET", "/telemetry")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError("/telemetry got %d" % status)
    return json.loads(body)


async def spot_check(host, port, specs):
    """Resubmit finished cold specs (now cache hits) and compare the
    served payload with one simulated here. Returns failure lines."""
    from repro.runner import SimJob, run_job

    conn = Connection(host, port, "perfbench-check")
    problems = []
    try:
        for spec in specs:
            status, headers, body = await conn.request("POST", "/jobs", spec)
            served = json.loads(body).get("result", {}).get("payload") if status == 200 else None
            if headers.get("x-repro-cache") != "hit" or served != run_job(SimJob(**spec)):
                problems.append("cold spec seed %d: served payload differs (status %d)"
                                % (spec["seed"], status))
    finally:
        await conn.close()
    return problems


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
SETUPS = 5


def _histogram_delta(before, after, name):
    """The histogram of observations made between two ``/telemetry``
    snapshots (bucket counts subtract exactly)."""
    from repro.metrics.histogram import Histogram

    new = after["histograms"].get(name)
    if new is None:
        return Histogram(name=name)
    old = dict(before["histograms"].get(name, {}).get("buckets", []))
    buckets = [[index, count - old.get(index, 0)] for index, count in new["buckets"]]
    count = new["count"] - before["histograms"].get(name, {}).get("count", 0)
    return Histogram.from_snapshot({"name": name, "count": count, "min": 0, "max": new["max"],
                                    "mean": 0.0, "buckets": buckets})


def telemetry_layers(before, after):
    """Per-layer figures from the server's own counters between two
    snapshots: the runner (cache, inline simulation) and serve layers."""
    def delta(name):
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    hits, misses = delta("cache.hits"), delta("cache.misses")
    waves = delta("serve.dispatch_waves")
    handler = _histogram_delta(before, after, "serve.request_latency_us")
    queue_wait = _histogram_delta(before, after, "serve.queue_wait_us")
    rejected = sum(delta(name) for name in after["counters"]
                   if name.startswith("serve.admission.rejected_"))
    return {
        "runner.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runner.cache.stores": delta("cache.stores"),
        "runner.jobs_simulated": delta("engine.jobs_simulated"),
        "runner.sim_busy_s": delta("engine.job_wall_seconds"),
        "serve.handler_p50_ms": handler.percentile(50) / 1e3,
        "serve.handler_p99_ms": handler.percentile(99) / 1e3,
        "serve.queue_wait_p90_ms": queue_wait.percentile(90) / 1e3,
        "serve.waves": waves,
        "serve.wave_size_mean": delta("runner.jobs_planned") / waves if waves else 0.0,
        "serve.fast_path": delta("serve.submissions.cache_fast_path"),
        "serve.rejected": rejected,
    }


async def _start(root, scratch, mix, sampled, cpus=None):
    server = Server(root, scratch, sampled, cpus)
    server.start()
    try:
        expected = await prefill("127.0.0.1", server.port, mix)
    except BaseException:
        server.stop()
        raise
    return server, expected


async def _measure(root, scratch, seed, seconds, trace, server_cpus):
    out = {"setup_each_s": [], "setup_cpu_s": [], "problems": [], "exit_codes": [],
           "stderr": []}
    for index in range(SETUPS):
        mix = Mix(seed)
        start = time.perf_counter()
        server, expected = await _start(
            root, Path(scratch) / ("server-%d" % index), mix, not trace, server_cpus)
        out["setup_each_s"].append(time.perf_counter() - start)
        if not trace:
            slices, spent = server.sampler_stats()
            out["setup_cpu_s"].append(normalize(server.cpu_seconds(), spent, spent / slices))
        if index < SETUPS - 1:
            out["exit_codes"].append(server.stop())
            out["stderr"].append(server.stderr())
    out["ready"] = time.perf_counter()
    host, port = "127.0.0.1", server.port
    gen = LoadGenerator(host, port, mix, expected)
    phases = []
    try:
        before = await telemetry(host, port) if trace else None
        replays = []
        cpu = []
        while True:
            cpu_start = server.cpu_seconds()
            stats_start = server.sampler_stats() if not trace else (0, 0.0)
            phase = await gen.replay(mix.requests(REPLAY_REQUESTS))
            cpu.append(server.cpu_seconds() - cpu_start)
            if not trace:
                stats = server.sampler_stats()
                slices, spent = stats[0] - stats_start[0], stats[1] - stats_start[1]
                # A replay too short to hold a slice uses all slices so far.
                per_slice = spent / slices if slices else stats[1] / stats[0]
                cpu[-1] = normalize(cpu[-1], spent, per_slice)
            phases.append(phase)
            replays.append(phase.wall_s)
            if trace or time.perf_counter() - out["ready"] + statistics.median(replays) > seconds:
                break
        out["cpu_s"] = statistics.median(cpu)
        out["wall_s"] = statistics.median(replays)
        out["replays"] = len(replays)
        if trace:
            fixed = await gen.open_loop(mix.poisson(FIXED_RATE, FIXED_SECONDS))
            phases.append(fixed)
            out["fixed"] = fixed
            out["max_rate_rps"], out["steps"] = await _search(gen, mix, fixed, phases)
            out["layers"] = telemetry_layers(before, await telemetry(host, port))
        picked = random.Random(seed).sample(gen.cold_done, min(4, len(gen.cold_done)))
        out["problems"].extend(await spot_check(host, port, picked))
        out["spot_checked"] = len(picked)
    finally:
        await gen.close()
        out["peak_rss_mb"] = server.peak_rss_mb()
        out["exit_codes"].append(server.stop())
        out["stderr"].append(server.stderr())
    out["phases"] = phases
    return out


async def _search(gen, mix, fixed, phases):
    """Fixed-step search for the highest offered rate meeting the
    limits, stepping up until a rate misses them: from one step above
    the fixed rate when that passed, else from one step (up to the
    fixed rate). Returns ``(rate or 0, [(rate, passed)])``."""
    steps = []
    passed = fixed.meets_limits()
    best = FIXED_RATE if passed else 0.0
    rate = FIXED_RATE + STEP_RATE if passed else STEP_RATE
    while len(steps) < MAX_STEPS and (passed or rate < FIXED_RATE):
        phase = await gen.open_loop(mix.poisson(rate, STEP_SECONDS))
        phases.append(phase)
        steps.append((rate, phase.meets_limits()))
        if not steps[-1][1]:
            break
        best = rate
        rate += STEP_RATE
    return best, steps


def split_cpus():
    """``(server CPUs, load generator CPUs)``, or ``(None, None)`` on one
    CPU. The server gets a CPU of its own, so that every one of its
    threads runs where its sampler measures the host's speed (the
    sampler runs in the main thread, while more than half the server's
    CPU time is spent in its other threads)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


def measure(root, scratch, seed, seconds, trace):
    """Run serve-mix; see the module docstring."""
    server_cpus, own_cpus = split_cpus()
    previous = os.sched_getaffinity(0)
    if own_cpus:
        os.sched_setaffinity(0, own_cpus)
    try:
        return asyncio.run(_measure(root, scratch, seed, seconds, trace, server_cpus))
    finally:
        os.sched_setaffinity(0, previous)

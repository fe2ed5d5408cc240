#!/usr/bin/env python3
"""The repository benchmark: one command per workload, run from the root
of a checkout.

    python3 perfbench/run.py --workload serve_drain --seed 1 --seconds 10 --trace 0

Builds the release `redundancy` binary and the `perfbench` helper from
source (into $CARGO_TARGET_DIR, default `.bench_build`), runs the
workload against the real binary as a child process, checks every output,
and prints a human-readable report followed, as the last stdout line, by
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 1` it also replays the workload in process with spans around
each layer and prints the per-layer metrics instead.  `--compare A B`
compares two saved reports.  See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("serve_drain", "serve_paced", "campaign_mc")
EPSILON = 0.5
PROPORTION = 0.1
# Ticks before an in-flight copy expires; the tick clock advances once per
# request, so no copy ever expires and every drain is deterministic.
NO_TIMEOUT = 10**12
SERVER_CPU, CLIENT_CPU = 0, 1

# serve_drain: one closed-loop drain of this plan per round (~1 s here).
DRAIN_TASKS = 30_000
# serve_paced: each round's open-loop ladder (assignments/s, rung ms).  The
# 32k/s rung is the latency reference: well below capacity (>250k/s
# pipelined here) yet busy enough that the server's CPU never idles into
# the multi-millisecond wake-ups the 8k/s rung shows.
PACED_RATES = (8_000, 32_000, 128_000)
PACED_RUNG_MS = (300, 1_000, 300)
PACED_REFERENCE = 1
PACED_THINK_US = 2_000
LATENCY_LIMIT_US = 2_000
PACED_SHARDS = 2
PACED_STORE = ["--streams", "per-shard", "--shards", str(PACED_SHARDS)]
# Journal writes without fsync: with `--sync batch` the shared virtual
# disk's fsync latency, not the program, set the tail (see README).
PACED_SYNC = "off"
# The ptrace syscall-counting pass drains a plan this size.
SYSCALL_TASKS = 10_000
PACED_DRAIN = 40_000
# Extra daemons started and shut down in each serve round, so setup_s is
# a median over more spawns than rounds.
SETUP_PROBES = 2
# campaign_mc: campaigns per `simulate` invocation (~0.3 s here).
CAMPAIGN_TASKS = 100_000
CAMPAIGNS = 500
CAMPAIGN_THREADS = 2
# A researcher's latency limit on one estimate.
CAMPAIGN_LIMIT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "assign_per_s": "assignments/s",
    "rtt_p50_us": "us",
    "rtt_p99_us": "us",
    "lat_p50_us": "us",
    "max_ok_rate": "assignments/s",
    "cpu_us_per_assign": "us",
    "peak_rss_mb": "MiB",
}
# Measured and printed, but not a registered metric: on this shared host
# the open-loop p99 follows the hypervisor's steal time, and its spread
# across runs exceeded any bound the benchmark may set (see README).
UNGATED = {"lat_p99_us": "us"}
PER_LAYER = {
    "epoll.syscalls_per_assign": "count",
    "epoll.wakeups_per_assign": "count",
    "epoll.self_us_per_req": "us",
    "epoll.busy_share": "ratio",
    "protocol.self_us_per_req": "us",
    "protocol.frames_per_assign": "count",
    "store.issue_us": "us",
    "store.return_us": "us",
    "store.idle_ratio": "ratio",
    "store.build_ms": "ms",
    "journal.self_us_per_record": "us",
    "journal.records_per_assign": "count",
    "journal.bytes_per_assign": "bytes",
    "journal.syncs": "count",
    "plan.build_ms": "ms",
    "engine.ns_per_assign": "ns",
    "samplers.tables_per_worker": "count",
    "parallel.idle_share": "ratio",
    "parallel.spawn_us": "us",
    "parallel.merge_us": "us",
    "loadgen.late_p99_us": "us",
    "loadgen.cpu_share": "ratio",
    "trace.overhead": "ratio",
}
# Layers a workload never calls.  The result line still lists them, as
# every registered per-layer metric must be, reading 0: no span, no call.
SERVE_LAYERS = ("epoll.", "protocol.", "store.", "journal.", "loadgen.")
CAMPAIGN_LAYERS = ("engine.", "samplers.", "parallel.")
# Host-speed yardsticks (reference.rs), timed next to every round.  A
# round's times are divided, and its rates multiplied, by `slow`: the
# yardstick's time in that round over its nominal time below, which is
# about what it takes on this host when the host is quiet.  The metrics
# so read as on a host running at that speed (see README).
ECHO_TASKS = 10_000
ECHO_NOMINAL_NS = 20_000  # median round trip of a closed-loop echo drain
REF_CPU_OPS = 12_000_000
REF_CPU_NOMINAL_NS = 200_000_000  # wall time of the CPU kernel on 2 threads


class BenchError(Exception):
    """The benchmark cannot run here (no build, no binary, no port)."""


# ---------------------------------------------------------------- build


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def out_dir():
    d = os.path.join(target_dir(), "perfbench")
    os.makedirs(d, exist_ok=True)
    return d


def build():
    """Build both binaries from the checkout's sources; return their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "redundancy-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "redundancy"), os.path.join(release, "perfbench")


# ------------------------------------------------------------ provenance


def cpu_placement():
    """CPUs for the server child and the load generator: two different
    ones when the machine has two, else none (recorded as unpinned)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        return {cpus[SERVER_CPU]}, {cpus[CLIENT_CPU]}
    return None, None


def fs_type(path):
    """Filesystem type of the mount holding `path`."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                best, kind = mnt, parts[2]
    return kind


def provenance(binary, seed, server_cpus, client_cpus):
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": os.uname().release,
        "rustc": rustc,
        "binary_sha256": digest,
        "journal_fs": fs_type(out_dir()),
        "seed": seed,
        "server_cpus": sorted(server_cpus) if server_cpus else "unpinned",
        "loadgen_cpus": sorted(client_cpus) if client_cpus else "unpinned",
    }


# ---------------------------------------------------------- output checks


def parse_stats(text):
    """The `stats` dump as a dict of its key -> value strings."""
    out = {}
    for line in text.strip().splitlines():
        k, _, v = line.partition(" ")
        out[k] = v.strip()
    return out


def check_serve_stats(text, oracle_checksum):
    """Problems with a drained daemon's final stats dump (empty = ok)."""
    s = parse_stats(text)
    problems = []
    try:
        n = {k: int(s[k]) for k in (
            "tasks-total", "tasks-completed", "issued", "returned",
            "in-flight", "lost", "unresolved-tasks")}
    except (KeyError, ValueError) as e:
        return [f"stats dump unreadable: {e}"]
    if n["tasks-completed"] != n["tasks-total"]:
        problems.append(f"tasks-completed {n['tasks-completed']} != tasks-total {n['tasks-total']}")
    if n["issued"] != n["returned"]:
        problems.append(f"issued {n['issued']} != returned {n['returned']}")
    for k in ("in-flight", "lost", "unresolved-tasks"):
        if n[k] != 0:
            problems.append(f"{k} {n[k]} != 0")
    if s.get("checksum") != oracle_checksum:
        problems.append(f"checksum {s.get('checksum')} != in-process drain {oracle_checksum}")
    return problems


def check_journal(inspect_stdout, returncode):
    """Problems with `redundancy journal-inspect` output (empty = ok)."""
    if returncode != 0:
        return [f"journal-inspect exited {returncode}"]
    lines = inspect_stdout.strip().splitlines()
    if not lines or lines[-1].strip() != "integrity: intact":
        return [f"journal not intact: {lines[-1] if lines else '(no output)'}"]
    return []


def law_rate(epsilon, p):
    """Prop. 3: detection under the Balanced plan at adversary share p."""
    return 1 - (1 - epsilon) ** (1 - p)


def parse_plan(stdout):
    """`redundancy plan`'s table as {multiplicity: tasks}."""
    counts = {}
    for line in stdout.splitlines():
        m = re.match(r"^(\d+)\s+([\d,]+)\s+\w+$", line.strip())
        if m:
            counts[int(m.group(1))] = int(m.group(2).replace(",", ""))
    return counts


def realized_law(counts, p=PROPORTION):
    """P_{k,p} of the realized plan: the chance that a task on which the
    adversary holds k copies has another copy, when each copy is the
    adversary's with probability p.  Prop. 3's derivation, summed over
    the plan's integer task counts instead of the ideal distribution.
    It equals 1-(1-eps)^(1-p) at k=1 and departs from it at larger k only
    through the plan's rounding and tail (0.4717 at k=3 for 100k tasks)."""
    def held(k, more):
        return sum(n * math.comb(i, k) * p ** k * (1 - p) ** (i - k)
                   for i, n in counts.items() if i > k or (i == k and not more))
    return {k: held(k, True) / held(k, False) for k in counts if held(k, False) > 0}


def check_campaign(stdout, returncode, law):
    """Problems with a `redundancy simulate` table (empty = ok): exit 0,
    no false flags, and every k row with at least 1000 attacks within 5
    standard errors of the plan's detection rate law[k]."""
    if returncode != 0:
        return [f"simulate exited {returncode}"]
    problems = []
    m = re.search(r"false flags: (\d+)", stdout)
    if not m:
        problems.append("no false-flag count in the output")
    elif int(m.group(1)) != 0:
        problems.append(f"false flags {m.group(1)} != 0")
    rows = 0
    for line in stdout.splitlines():
        f = line.split()
        if len(f) >= 4 and f[0].isdigit() and f[1].isdigit() and f[2].isdigit():
            k, attacks, detected = int(f[0]), int(f[1]), int(f[2])
            if attacks < 1000:
                continue
            rows += 1
            if k not in law:
                problems.append(f"k={k}: no task of the plan has {k} copies")
                continue
            q = law[k]
            se = math.sqrt(q * (1 - q) / attacks)
            if abs(detected / attacks - q) > 5 * se:
                problems.append(
                    f"k={k}: rate {detected / attacks:.5f} is more than 5 SE ({se:.5f}) "
                    f"from the plan's P_k,p = {q:.5f}")
    if rows == 0:
        problems.append("no k row with at least 1000 attacks")
    return problems


# ------------------------------------------------------------ processes


def spawn(argv, cpus, **popen):
    """Popen `argv` on `cpus` (None: unpinned).  A child inherits this
    process's CPU affinity, so this process pins itself around the spawn:
    a `preexec_fn` would force Python's slow fork path, 2.7 ms per spawn
    against 0.5 ms here, and set-up time would mostly time Python."""
    old = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        return subprocess.Popen(argv, **popen)
    finally:
        os.sched_setaffinity(0, old)


def reap(proc):
    """Wait for `proc` and return (exit code, rusage)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru


def send_shutdown(port):
    """Send `shutdown` to the daemon on `port` and wait for `bye`."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(len(b"shutdown").to_bytes(4, "big") + b"shutdown")
        reply = b""
        while len(reply) < 7 and (chunk := s.recv(64)):
            reply += chunk
        if reply != b"\x00\x00\x00\x03bye":
            raise BenchError(f"daemon answered `shutdown` with {reply!r}")


def serve_argv(binary, flags):
    return [binary, "serve", "--port", "0", *flags]


class Daemon:
    """A server child that announces its port on stderr, as `redundancy
    serve --port 0` does, pinned to the server CPU; the set-up time runs
    from spawn to the first accepted connection."""

    def __init__(self, argv, cpus):
        t0 = time.perf_counter()
        self.proc = spawn(argv, cpus, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        m = re.search(r"127\.0\.0\.1:(\d+)", line)
        if not m:
            self.kill()
            raise BenchError(f"daemon did not announce a port: {line!r}")
        self.port = int(m.group(1))
        socket.create_connection(("127.0.0.1", self.port), timeout=10).close()
        self.setup_s = time.perf_counter() - t0

    def peak_kib(self):
        """The daemon's peak resident set (VmHWM) so far.  Read from /proc
        while it runs: `ru_maxrss` after exit would also count this Python
        process's resident set at fork time."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM in the daemon's /proc status")

    def shutdown(self):
        send_shutdown(self.port)

    def kill(self):
        self.proc.kill()
        self.finish()

    def finish(self):
        """Reap the child: (exit code, rusage)."""
        self.proc.stdout.read()
        code, ru = reap(self.proc)
        self.proc.stderr.close()
        self.proc.stdout.close()
        return code, ru


class IdlePoll:
    """The helper's `idle-poll` mode on every CPU for the life of a `with`
    block: no CPU halts between the requests of a closed loop, so no
    round trip waits for the hypervisor to wake a virtual CPU (see
    main.rs and README)."""

    def __init__(self, helper):
        cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))))
        self.proc = subprocess.Popen([helper, "idle-poll", "--cpus", cpus],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "polling":
            self.__exit__()
            raise BenchError("the idle-poll helper did not start")

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


PTRACE_TRACEME, PTRACE_SYSCALL, PTRACE_SETOPTIONS = 0, 24, 0x4200
PTRACE_O_TRACESYSGOOD, PTRACE_O_EXITKILL = 0x1, 0x100000


def count_syscalls(binary, flags, helper, cpus):
    """Exact system calls of one closed-loop drain of a daemon: the daemon
    runs under ptrace, which stops it at every syscall entry and exit, so
    this pass counts and times nothing else.  Returns (syscalls, issued)."""
    import ctypes
    libc = ctypes.CDLL(None, use_errno=True)
    libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
    port = free_port()
    argv = [binary, "serve", "--port", str(port), *flags]
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(null, fd)
            if cpus:
                os.sched_setaffinity(0, cpus)
            libc.ptrace(PTRACE_TRACEME, 0, None, None)
            os.execv(binary, argv)
        finally:
            os._exit(127)
    os.waitpid(pid, 0)  # the stop at exec
    libc.ptrace(PTRACE_SETOPTIONS, pid, None, PTRACE_O_TRACESYSGOOD | PTRACE_O_EXITKILL)
    lg = subprocess.Popen([helper, "closed", "--port", str(port)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    def watchdog():
        # The generator leaves the daemon running; so would a generator
        # that fails or hangs, with this thread's waitpid waiting on it.
        try:
            ok = lg.wait(timeout=150) == 0
        except subprocess.TimeoutExpired:
            ok = False
        try:
            if ok:
                send_shutdown(port)
                return
        except OSError:
            pass
        os.kill(pid, signal.SIGKILL)

    guard = threading.Thread(target=watchdog, daemon=True)
    guard.start()
    stops, sig = 0, 0
    while True:
        libc.ptrace(PTRACE_SYSCALL, pid, None, sig)
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            break
        stop = os.WSTOPSIG(status)
        sig = 0
        if stop == 0x80 | signal.SIGTRAP:
            stops += 1
        elif stop != signal.SIGTRAP:
            sig = stop
    guard.join()
    out, err = lg.communicate(timeout=170)
    if lg.returncode != 0:
        raise BenchError(f"load generator failed under ptrace: {err.strip()}")
    issued = int(parse_stats(json.loads(out)["stats"]).get("issued", 0)) or 1
    return stops // 2, issued


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def requests(self, n, failed):
        self.attempted += n
        self.failed += failed


def drive(helper, mode, port, cpus, extra, timeout):
    """Run the load generator against `port`; its parsed JSON."""
    p = spawn([helper, mode, "--port", str(port), *extra], cpus,
              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise
    if p.returncode != 0:
        raise BenchError(f"load generator failed: {err.strip()}")
    return json.loads(out)


def oracle_checksum(binary, tasks, seed, flags):
    """The stats checksum of an in-process drain with the same store flags."""
    r = subprocess.run(
        [binary, "serve", "--tasks", str(tasks), "--epsilon", str(EPSILON),
         "--proportion", str(PROPORTION), "--seed", str(seed),
         "--timeout", str(NO_TIMEOUT), *flags],
        capture_output=True, text=True, timeout=170)
    m = re.search(r"^checksum (0x[0-9a-f]+)$", r.stdout, re.M)
    if r.returncode != 0 or not m:
        raise BenchError(f"in-process drain failed: {r.stderr.strip()}")
    return m.group(1)


median = statistics.median


# ------------------------------------------------------------- workloads


def serve_flags(tasks, seed):
    return ["--tasks", str(tasks), "--epsilon", str(EPSILON), "--proportion", str(PROPORTION),
            "--seed", str(seed), "--timeout", str(NO_TIMEOUT)]


def echo_slow(helper, place):
    """A closed-loop drain of the echo yardstick, placed as the daemons
    are: its median round trip over ECHO_NOMINAL_NS."""
    d = Daemon([helper, "echo", "--tasks", str(ECHO_TASKS)], place[0])
    try:
        lg = drive(helper, "closed", d.port, place[1], [], 170)
        d.shutdown()
    except (BenchError, OSError, subprocess.TimeoutExpired):
        d.kill()
        raise
    code, _ = d.finish()
    if code != 0 or lg["drain"]["assignments"] != ECHO_TASKS:
        raise BenchError(f"the echo yardstick failed (exit {code})")
    return lg["drain"]["rtt_p50_ns"] / ECHO_NOMINAL_NS


def serve_round(binary, helper, flags, mode, extra, oracle, place, tally):
    """The echo yardstick, SETUP_PROBES set-up probes, then one daemon
    driven by the load generator to drained and `stats`, then shut down;
    checks its exit and final stats.  Returns (load generator JSON, set-up
    seconds of each daemon started, daemon rusage, peak KiB, assignments
    issued, the round's `slow`, host steal share over the round)."""
    t0 = cpu_times()
    slow = echo_slow(helper, place)
    setups = setup_probes(binary, flags, place[0], SETUP_PROBES, tally)
    d = Daemon(serve_argv(binary, flags), place[0])
    setups.append(d.setup_s)
    try:
        lg = drive(helper, mode, d.port, place[1], extra, 170)
        peak_kib = d.peak_kib()
        d.shutdown()
    except (BenchError, OSError, subprocess.TimeoutExpired):
        d.kill()
        raise
    code, ru = d.finish()
    steal = steal_share(t0, cpu_times())
    dr = lg["drain"]
    tally.requests(dr["requests"] + 2, dr["failed"])
    for r in lg.get("rungs", []):
        tally.requests(r["due"], r["failed"])
    tally.check([] if code == 0 else [f"daemon exited {code}"], "daemon")
    tally.check(check_serve_stats(lg["stats"], oracle), "stats")
    issued = int(parse_stats(lg["stats"]).get("issued", 0)) or 1
    return lg, setups, ru, peak_kib, issued, slow, steal


class Rounds:
    """The rounds of one run: they go on until `seconds` have passed and
    at least `minimum` have run.  Each records its raw figures and its
    `slow` (see ECHO_NOMINAL_NS); the metrics are medians over the rounds
    of figures scaled to the nominal host speed."""

    def __init__(self, seconds, minimum, what="rounds"):
        self.done = []
        self.seconds = seconds
        self.minimum = minimum
        self.what = what
        self.start = time.perf_counter()

    def more(self):
        return (len(self.done) < self.minimum
                or time.perf_counter() - self.start < self.seconds)

    def raw(self, key):
        return [r[key] for r in self.done]

    def times(self, key):
        """Each round's `key`, a time, at the nominal host speed."""
        return [r[key] / r["slow"] for r in self.done]

    def rates(self, key):
        """Each round's `key`, a rate, at the nominal host speed."""
        return [r[key] * r["slow"] for r in self.done]

    def setups(self):
        """Every set-up time of every round, at the nominal host speed."""
        return [s / r["slow"] for r in self.done for s in r["setups"]]

    def note(self):
        slow, steal = sorted(self.raw("slow")), sorted(self.raw("steal"))
        return (f"metrics: medians over {len(self.done)} {self.what} at the nominal host "
                f"speed; the yardstick ran at {slow[0]:.2f}-{slow[-1]:.2f}x its nominal "
                f"time; host steal {100 * steal[0]:.1f}-{100 * steal[-1]:.1f}% of CPU time")


def setup_probes(binary, flags, cpus, n, tally):
    """Set-up seconds of `n` daemons started and shut down at once."""
    setups = []
    for _ in range(n):
        d = Daemon(serve_argv(binary, flags), cpus)
        d.shutdown()
        code, _ = d.finish()
        tally.check([] if code == 0 else [f"probe daemon exited {code}"], "daemon")
        setups.append(d.setup_s)
    return setups


def run_serve_drain(binary, helper, seed, seconds, place, tally):
    """Closed-loop drains of a fresh daemon, round after round, until
    `seconds` have passed (at least three rounds)."""
    flags = serve_flags(DRAIN_TASKS, seed)
    oracle = oracle_checksum(binary, DRAIN_TASKS, seed, [])
    rounds = Rounds(seconds, 3)
    while rounds.more():
        lg, setups, ru, peak_kib, issued, slow, steal = serve_round(
            binary, helper, flags, "closed", [], oracle, place, tally)
        dr = lg["drain"]
        rounds.done.append({
            "setups": setups,
            "slow": slow,
            "assign_per_s": dr["assignments"] / (dr["wall_ns"] / 1e9),
            "rtt_p50_us": dr["rtt_p50_ns"] / 1e3,
            "rtt_p99_us": dr["rtt_p99_ns"] / 1e3,
            "lat_p50_us": dr["lat_p50_ns"] / 1e3,
            "lat_p99_us": dr["lat_p99_ns"] / 1e3,
            "cpu_us_per_assign": (ru.ru_utime + ru.ru_stime) * 1e6 / issued,
            "peak_rss_mb": peak_kib / 1024,
            "steal": steal,
            "wakeups": ru.ru_nvcsw / issued,
            "loadgen_cpu": lg["cpu_ns"] / lg["life_ns"],
            "samples": dr["samples"],
        })
    m = serve_medians(rounds)
    # A closed loop sustains its own rate; it meets the limit or it fails.
    m["max_ok_rate"] = m["assign_per_s"] if m["rtt_p99_us"] <= LATENCY_LIMIT_US else 0.0
    notes = [f"{len(rounds.done)} rounds of {DRAIN_TASKS} tasks; ~"
             f"{int(median(rounds.raw('samples')))} round trips per round (both verbs); "
             "p99s are windowed (see README); lat = rtt in a closed loop", rounds.note()]
    layer = {
        "epoll.wakeups_per_assign": median(rounds.raw("wakeups")),
        "loadgen.cpu_share": median(rounds.raw("loadgen_cpu")),
    }
    return m, layer, notes, rounds


def serve_medians(rounds):
    """The end-to-end metrics both serve workloads share, with the raw
    drain rate that `trace.overhead` compares with a traced replay."""
    m = {k: median(rounds.times(k)) for k in (
        "rtt_p50_us", "rtt_p99_us", "lat_p50_us", "lat_p99_us", "cpu_us_per_assign")}
    m["setup_s"] = median(rounds.setups())
    m["assign_per_s"] = median(rounds.rates("assign_per_s"))
    m["raw_assign_per_s"] = median(rounds.raw("assign_per_s"))
    m["peak_rss_mb"] = median(rounds.raw("peak_rss_mb"))
    return m


def paced_tasks():
    """Tasks enough for one round's ladder plus a closed-loop drain of
    about PACED_DRAIN assignments (the Balanced plan at eps 0.5 deals
    ~1.387 copies a task; Poisson arrivals stay within 2% of their mean)."""
    offered = sum(r * ms / 1e3 for r, ms in zip(PACED_RATES, PACED_RUNG_MS))
    return int((offered * 1.02 + PACED_DRAIN) / 1.3868)


def paced_ladder_args(seed):
    return ["--seed", str(seed), "--rates", ",".join(map(str, PACED_RATES)),
            "--rung-ms", ",".join(map(str, PACED_RUNG_MS)), "--think-us", str(PACED_THINK_US)]


def run_serve_paced(binary, helper, seed, seconds, place, tally):
    """Rounds of one journaled daemon each through the open-loop ladder,
    a closed-loop drain of the rest, stats and shutdown, until `seconds`
    have passed (at least four rounds)."""
    tasks = paced_tasks()
    journal = os.path.join(out_dir(), "serve_paced.journal")
    flags = serve_flags(tasks, seed) + PACED_STORE + ["--journal", journal,
                                                      "--sync", PACED_SYNC]
    oracle = oracle_checksum(binary, tasks, seed, PACED_STORE)
    rounds, notes = Rounds(seconds, 4), []
    extra = paced_ladder_args(seed) + ["--limit-us", str(LATENCY_LIMIT_US)]
    while rounds.more():
        # A fresh journal per round: else the first daemon started would
        # pay, in its set-up time, for truncating the last round's.
        if os.path.exists(journal):
            os.remove(journal)
        lg, setups, ru, peak_kib, issued, slow, steal = serve_round(
            binary, helper, flags, "paced", extra, oracle, place, tally)
        ins = subprocess.run([binary, "journal-inspect", "--journal", journal],
                             capture_output=True, text=True, timeout=170)
        tally.check(check_journal(ins.stdout, ins.returncode), "journal")
        dr, ref = lg["drain"], lg["rungs"][PACED_REFERENCE]
        ok = [r for r in lg["rungs"] if r["ok"]]
        rounds.done.append({
            "setups": setups,
            "slow": slow,
            "assign_per_s": dr["assignments"] / (dr["wall_ns"] / 1e9),
            "rtt_p50_us": dr["rtt_p50_ns"] / 1e3,
            "rtt_p99_us": dr["rtt_p99_ns"] / 1e3,
            "lat_p50_us": ref["lat_p50_ns"] / 1e3,
            "lat_p99_us": ref["lat_p99_ns"] / 1e3,
            "max_ok_rate": ok[-1]["achieved"] if ok else 0.0,
            "cpu_us_per_assign": (ru.ru_utime + ru.ru_stime) * 1e6 / issued,
            "peak_rss_mb": peak_kib / 1024,
            "steal": steal,
            "wakeups": ru.ru_nvcsw / issued,
            "late_p99_us": lg["late_p99_ns"] / 1e3,
            "loadgen_cpu": 1 - lg["ladder_idle_ns"] / lg["ladder_wall_ns"],
        })
        for r in lg["rungs"]:
            notes.append(
                f"round {len(rounds.done)} (yardstick {slow:.2f}x) rung {r['rate']}/s, "
                f"{r['due']} requests: achieved "
                f"{r['achieved']:.0f}/s, lat p50 {r['lat_p50_ns'] / 1e3:.1f} us, p99 "
                f"{r['lat_p99_ns'] / 1e3:.1f} us (pooled {r['lat_p99_pooled_ns'] / 1e3:.1f} us), "
                f"generator late p99 {r['late_p99_ns'] / 1e3:.1f} us, backlog "
                f"{r['backlog_mid']}->{r['backlog_end']}, "
                f"{'ok' if r['ok'] else 'over the limit'}")
    m = serve_medians(rounds)
    # The offered rate of a rung, not a time: it is not scaled.
    m["max_ok_rate"] = median(rounds.raw("max_ok_rate"))
    notes.insert(0, rounds.note())
    notes.insert(0, f"{len(rounds.done)} rounds of {tasks} tasks, {PACED_SHARDS} shards, journal "
                 f"on {fs_type(journal)} (--sync {PACED_SYNC}); latency reference rung "
                 f"{PACED_RATES[PACED_REFERENCE]}/s; drain phase ~{PACED_DRAIN} assignments")
    layer = {k: median(rounds.raw(r)) for k, r in (
        ("epoll.wakeups_per_assign", "wakeups"), ("loadgen.late_p99_us", "late_p99_us"),
        ("loadgen.cpu_share", "loadgen_cpu"))}
    return m, layer, notes, rounds


def campaign_cmd(binary, campaigns, seed):
    return [binary, "simulate", "--tasks", str(CAMPAIGN_TASKS), "--epsilon", str(EPSILON),
            "--proportion", str(PROPORTION), "--threads", str(CAMPAIGN_THREADS),
            "--campaigns", str(campaigns), "--seed", str(seed)]


def campaign_plan(binary, tasks):
    """(assignments, P_k,p by k) of the plan `simulate` runs, from
    `redundancy plan`; the law at k=1 must be Prop. 3's."""
    r = subprocess.run([binary, "plan", "--tasks", str(tasks), "--epsilon", str(EPSILON)],
                       capture_output=True, text=True, timeout=60)
    m = re.search(r"total assignments: ([\d,]+)", r.stdout)
    if r.returncode != 0 or not m:
        raise BenchError("`redundancy plan` did not report its assignments")
    counts = parse_plan(r.stdout)
    if sum(i * n for i, n in counts.items()) != int(m.group(1).replace(",", "")):
        raise BenchError("`redundancy plan`'s table does not add up to its assignments")
    return sum(i * n for i, n in counts.items()), realized_law(counts)


def cpu_slow(helper):
    """The CPU yardstick on the campaign's threads, unpinned as `simulate`
    is: its wall time over REF_CPU_NOMINAL_NS."""
    r = subprocess.run([helper, "ref-cpu", "--threads", str(CAMPAIGN_THREADS),
                        "--ops", str(REF_CPU_OPS)], capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"the CPU yardstick failed: {r.stderr.strip()}")
    return json.loads(r.stdout)["wall_ns"] / REF_CPU_NOMINAL_NS


def run_campaign(binary, helper, seed, seconds, tally):
    """`simulate` invocations (seeds derived from the run seed), each
    after the CPU yardstick and followed by a set-up probe at one
    campaign, until `seconds` have passed (at least 20)."""
    per_campaign, law = campaign_plan(binary, CAMPAIGN_TASKS)
    tally.check([] if abs(law[1] - law_rate(EPSILON, PROPORTION)) < 1e-3 else
                [f"P_1,p = {law[1]:.5f} is not 1-(1-eps)^(1-p)"], "plan")
    runs = Rounds(seconds, 20, "invocations")
    prev = time.perf_counter()
    while runs.more():
        i = len(runs.done)
        t0 = cpu_times()
        yardstick = time.perf_counter()
        slow = cpu_slow(helper)
        yardstick = time.perf_counter() - yardstick
        wall, code, cpu_s, peak_mb, out = run_child(
            helper, campaign_cmd(binary, CAMPAIGNS, seed * 1000 + 100 + i))
        done = time.perf_counter()
        tally.check(check_campaign(out, code, law), "campaign")
        setup, code, _, _, _ = run_child(helper, campaign_cmd(binary, 1, seed * 1000 + i))
        tally.check([] if code == 0 else [f"simulate exited {code}"], "setup")
        # The time since the previous invocation and its probe finished,
        # less the yardstick.
        runs.done.append({"setups": [setup], "slow": slow, "wall": wall,
                          "gap": done - prev - yardstick, "cpu": cpu_s, "rss": peak_mb,
                          "rate": per_campaign * CAMPAIGNS / wall,
                          "steal": steal_share(t0, cpu_times())})
        prev = time.perf_counter()
    assigns = per_campaign * CAMPAIGNS
    walls, gaps = runs.times("wall"), runs.times("gap")
    # p99: the median over windows of 10 invocations of each one's slowest.
    tail = lambda xs: median([max(xs[i:i + 10]) for i in range(0, len(xs) - 9, 10)])
    rate = median(runs.rates("rate"))
    m = {
        "setup_s": median(runs.setups()),
        "assign_per_s": rate,
        "raw_assign_per_s": median(runs.raw("rate")),
        "rtt_p50_us": median(walls) * 1e6,
        "rtt_p99_us": tail(walls) * 1e6,
        "lat_p50_us": median(gaps) * 1e6,
        "lat_p99_us": tail(gaps) * 1e6,
        "max_ok_rate": rate if max(runs.raw("gap")) <= CAMPAIGN_LIMIT_S else 0.0,
        "cpu_us_per_assign": median(runs.times("cpu")) * 1e6 / assigns,
        "peak_rss_mb": median(runs.raw("rss")),
    }
    notes = [f"{len(runs.done)} invocations of {CAMPAIGNS} campaigns x {per_campaign} "
             f"assignments ({CAMPAIGN_THREADS} threads); rtt = one invocation's wall time, "
             "lat = time since the previous one finished; p99 = median over windows of 10 "
             "invocations of the slowest in each", runs.note()]
    return m, {}, notes, runs


def run_child(helper, cmd):
    """Run `cmd` through the helper's `exec` mode, which spawns it from a
    small process so its peak memory is its own; returns (wall s, exit
    code, CPU s, peak MiB, stdout)."""
    out_path = os.path.join(out_dir(), "child.out")
    r = subprocess.run([helper, "exec", "--out", out_path, "--", *cmd],
                       capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"could not run {cmd[0]}: {r.stderr.strip()}")
    e = json.loads(r.stdout)
    with open(out_path) as f:
        out = f.read()
    return e["wall_ns"] / 1e9, e["code"], e["cpu_ns"] / 1e9, e["maxrss_kib"] / 1024, out


# ----------------------------------------------------------------- trace


def serve_store(workload):
    """(tasks, store flags) of a serve workload's daemon."""
    if workload == "serve_drain":
        return DRAIN_TASKS, []
    return paced_tasks(), PACED_STORE


def replay(cmd):
    """Run one traced replay of the helper; its parsed JSON."""
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"traced replay failed: {r.stderr.strip()}")
    return json.loads(r.stdout)


def run_trace(binary, helper, workload, seed, untraced, server_cpus, tally):
    """The traced in-process replay, checked against the real binary;
    returns its per-layer metrics and its JSON."""
    spans = os.path.join(out_dir(), f"spans-{workload}.tsv")
    if workload == "campaign_mc":
        t = replay([helper, "trace-campaign", "--tasks", str(CAMPAIGN_TASKS),
                    "--epsilon", str(EPSILON), "--proportion", str(PROPORTION),
                    "--campaigns", str(CAMPAIGNS), "--seed", str(seed * 1000 + 100),
                    "--threads", str(CAMPAIGN_THREADS), "--spans", spans])
        layer = dict(t["metrics"])
        _, _, _, _, out = run_child(helper, campaign_cmd(binary, CAMPAIGNS, seed * 1000 + 100))
        cli = [[int(x) for x in line.split()[:3]] for line in out.splitlines()
               if re.match(r"^\d+\s+\d+\s+\d+\s", line)]
        tally.check([] if cli == t["rows"] else ["traced rows differ from `simulate`"], "trace")
    else:
        tasks, store = serve_store(workload)
        oracle = oracle_checksum(binary, tasks, seed, store)
        cmd = [helper, "trace-serve", "--tasks", str(tasks), "--epsilon", str(EPSILON),
               "--proportion", str(PROPORTION), "--seed", str(seed),
               "--timeout", str(NO_TIMEOUT)]
        if workload == "serve_drain":
            cmd += ["--streams", "single", "--shards", "1"]
        else:
            cmd += ["--streams", "per-shard", "--shards", str(PACED_SHARDS),
                    *paced_ladder_args(seed)]
        journal = lambda sync: (["--journal", os.path.join(out_dir(), "trace.journal"),
                                 "--sync", sync] if store else [])
        t = replay([*cmd, "--spans", spans, *journal(PACED_SYNC)])
        layer = dict(t["metrics"])
        tally.check(check_serve_stats(t["stats"], oracle), "traced stats")
        if store:
            # The timed workload writes its journal without fsync; the
            # fsyncs `--sync batch` adds come from a second replay.
            batch = replay([*cmd, "--spans", spans + ".batch", *journal("batch")])
            tally.check(check_serve_stats(batch["stats"], oracle), "traced stats (--sync batch)")
            layer["journal.syncs"] = batch["metrics"]["journal.syncs"]
            store = [*store, "--journal", os.path.join(out_dir(), "count.journal"),
                     "--sync", PACED_SYNC]
        calls, issued = count_syscalls(binary, serve_flags(SYSCALL_TASKS, seed) + store,
                                       helper, server_cpus)
        layer["epoll.syscalls_per_assign"] = calls / issued
    headline = layer.pop("headline_assign_per_s")
    layer["trace.overhead"] = untraced["raw_assign_per_s"] / headline
    return layer, t


def breakdown_notes(t):
    b = t.get("breakdown")
    if not b:
        return [f"{t['workers']} run_trials workers"]
    wall = b["wall_us"] or 1
    share = lambda k: f"{b[k]:.0f} us ({100 * b[k] / wall:.1f}%)"
    return [
        f"server time over the traced {b['window']} ({wall:.0f} us wall, {b['frames']} frames): "
        f"protocol self {share('protocol_self_us')}, journal self {share('journal_self_us')}, "
        f"store {share('store_us')}, idle/off-CPU {share('server_idle_us')} "
        f"(of which run-queue wait {b['runqueue_wait_us']:.0f} us), unattributed "
        f"{share('unattributed_us')} = the io loop's own time, which no span covers yet"]


# ------------------------------------------------------------------ main


def report_line(name, value, unit):
    return f"  {name:28s} {value:>16.4f} {unit}"


def cpu_times():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(before, after):
    """Share of CPU time the hypervisor stole between two `cpu_times()`."""
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def not_exercised(workload):
    """Per-layer metrics of layers `workload` never calls."""
    idle = {k for k in PER_LAYER
            if k.startswith(SERVE_LAYERS if workload == "campaign_mc" else CAMPAIGN_LAYERS)}
    if workload == "serve_drain":
        idle.add("loadgen.late_p99_us")  # a closed loop has no schedule to be late on
    return idle


def run(args):
    binary, helper = build()
    start = cpu_times()
    server_cpus, client_cpus = cpu_placement()
    prov = provenance(binary, args.seed, server_cpus, client_cpus)
    tally = Tally()
    place = (server_cpus, client_cpus)
    # Only the serve workloads wait on wake-ups; under the spinners, a
    # one-campaign `simulate` took 8 ms in half the probes, not 4.
    serve = args.workload != "campaign_mc"
    with IdlePoll(helper) if serve else contextlib.nullcontext():
        if args.workload == "serve_drain":
            m, layer, notes, rounds = run_serve_drain(
                binary, helper, args.seed, args.seconds, place, tally)
        elif args.workload == "serve_paced":
            m, layer, notes, rounds = run_serve_paced(
                binary, helper, args.seed, args.seconds, place, tally)
        else:
            m, layer, notes, rounds = run_campaign(binary, helper, args.seed, args.seconds, tally)
        if args.trace:
            traced, t = run_trace(binary, helper, args.workload, args.seed, m, server_cpus, tally)
    idle = set()
    if args.trace:
        notes += breakdown_notes(t)
        produced = {**traced, **layer}
        idle = not_exercised(args.workload)
        missing = set(PER_LAYER) - set(produced) - idle
        if missing:
            raise BenchError(f"the traced run produced no {', '.join(sorted(missing))}")
        metrics = {k: {"value": float(produced.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(m[k]), "unit": u} for k, u in END_TO_END.items()}

    notes.append(f"host steal time during the run: "
                 f"{100 * steal_share(start, cpu_times()):.1f}% of CPU time")
    print(f"perfbench {args.workload} seed {args.seed} ({args.seconds} s, trace {args.trace})")
    for k, v in prov.items():
        print(f"  provenance {k}: {v}")
    for n in notes:
        print(f"  note: {n}")
    for p in tally.problems:
        print(f"  FAILED {p}")
    print(f"  fail_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(1, tally.attempted):.6f}")
    for k, v in metrics.items():
        if k in idle:
            print(f"  {k:28s} {'absent':>16s} (this workload never calls the layer)")
        else:
            print(report_line(k, v["value"], v["unit"]))
    if not args.trace:
        for k, u in UNGATED.items():
            print(report_line(k, m[k], u) + "  (not gated)")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    saved = os.path.join(out_dir(), f"report-{args.workload}-{args.seed}-t{args.trace}.json")
    with open(saved, "w") as f:
        json.dump({"schema": "perfbench-report/v3", "workload": args.workload,
                   "trace": args.trace, "provenance": prov, "absent": sorted(idle),
                   "notes": notes, "rounds": rounds.done, "problems": tally.problems,
                   **result}, f, indent=1)
    print(json.dumps(result))


# Provenance fields that may differ between two reports being compared:
# the seed, and the binary, whose change is what a comparison measures.
COMPARABLE_ACROSS = ("seed", "binary_sha256")


def compare(a_path, b_path):
    """Print metric ratios b / a for two saved reports; refuse when they
    differ in workload, trace mode or provenance (COMPARABLE_ACROSS
    aside)."""
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    for k in COMPARABLE_ACROSS:
        print(f"{k}: {a['provenance'].get(k)} vs {b['provenance'].get(k)}")
    diff = {k for k in set(a["provenance"]) | set(b["provenance"])
            if k not in COMPARABLE_ACROSS and a["provenance"].get(k) != b["provenance"].get(k)}
    for k in sorted(diff):
        print(f"provenance differs: {k}: {a['provenance'].get(k)} vs {b['provenance'].get(k)}")
    refuse = ["different provenance"] if diff else []
    if a.get("schema") != b.get("schema"):
        refuse.append("different report schemas")
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        refuse.append("different workloads or trace modes")
    if refuse:
        print(f"refusing to compare: {'; '.join(refuse)}")
        return 3
    absent = set(a.get("absent", [])) | set(b.get("absent", []))
    for k, va in a["metrics"].items():
        vb = b["metrics"].get(k, {}).get("value")
        if vb is not None and k not in absent:
            ratio = vb / va["value"] if va["value"] else float("nan")
            print(f"{k:28s} {va['value']:>14.4f} {vb:>14.4f} {va['unit']:>14s}  x{ratio:.4f}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    try:
        run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

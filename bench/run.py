"""Benchmark of the ``bratteli`` CLI; run from the root of a source checkout.

    python3 bench/run.py --workload query|sweep|table --seed N --seconds S --trace 0|1

One client in a closed loop: each op is one CLI call in a fresh process,
started only after the previous one exits.  Every op's output is checked
against ``oracle.py`` (which imports nothing from ``bratteli``) outside the
timed region; a wrong answer, a non-zero exit or a timeout fails the op.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate in-process run (see ``inproc.py``).  The last line of
stdout is the result object; the line before it records the environment and
the details behind the metrics.  See README.md for what each metric means
and which end-to-end metric it should move.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import select
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
ENTRY = "import sys; from bratteli.cli import main; sys.exit(main())"  # the console script
NO_WORK = ["count", "--k", "0", "--i", "0", "--j", "0"]
SETUP_PER_PASS = 5
IMPORT_PROBES = 5
OP_TIMEOUT = 60.0
TRACE_SECONDS = 150.0

# layer metric -> the end-to-end metric it should move, and on which workload
MOVES = {
    "cli.import_s": "setup_s, all workloads",
    "cli.auto.*_n": "wall_s and op_p75_s on query",
    "cli.auto.regret_s": "wall_s and op_p75_s on query",
    "cli.auto.slowdown_max": "op_p75_s on query",
    "cli.format.*_s": "wall_s and peak_rss_mb on table",
    "cli.format.bytes": "wall_s and peak_rss_mb on table",
    "cli.verify.*": "wall_s on sweep",
    "diagram.count_dp*": "wall_s and op_p75_s on query",
    "diagram.build_table*": "wall_s on table and sweep",
    "diagram.adjacency_power_row*": "wall_s on sweep",
    "genfunc.gf_closed_form_s, genfunc.poly_gcd_s, genfunc.recurrence_from_gf_s": "wall_s on query",
    "genfunc.series_coeffs*": "wall_s on sweep",
    "spectral.*": "wall_s on sweep, op_p75_s on query",
    "dyck.*": "wall_s on sweep and on query",
    "trace.overhead_frac": "none: the cost of the tracing itself",
}


def child_env() -> dict:
    """The caller's environment without Python's own switches, so that every
    child starts like an installed ``bratteli``: with a bytecode cache
    (written under src/ by the first call) and buffered output."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return env


class Launcher:
    """Runs child processes through launcher.py, so their max-RSS is their own."""

    def __init__(self, env: dict):
        self.peak_rss_kb = 0
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "launcher.py"), str(theirs.fileno())],
                pass_fds=[theirs.fileno()], env=env)

    def close(self):
        self.sock.close()  # the launcher exits on EOF
        self.proc.wait()

    def run(self, argv: list, timeout: float):
        """Run argv to completion: (seconds, exit code or None if it did not finish, stdout, stderr)."""
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        t0 = time.perf_counter()
        socket.send_fds(self.sock, [json.dumps(argv).encode()], [out_w, err_w])
        os.close(out_w)
        os.close(err_w)
        started = json.loads(self.sock.recv(4096))
        bufs = {out_r: bytearray(), err_r: bytearray()}
        finished = "pid" in started
        with selectors.DefaultSelector() as sel:
            for fd in bufs:
                sel.register(fd, selectors.EVENT_READ)
            while finished and sel.get_map():
                ready = sel.select(max(0.0, t0 + timeout - time.perf_counter()))
                if not ready:
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(started["pid"], signal.SIGKILL)  # and any worker it started
                    finished = False
                for key, _ in ready:
                    chunk = os.read(key.fd, 1 << 20)
                    if chunk:
                        bufs[key.fd] += chunk
                    else:
                        sel.unregister(key.fd)
        rc = None
        if "pid" in started:
            ended = json.loads(self.sock.recv(4096))
            rc = ended["rc"]
            self.peak_rss_kb = max(self.peak_rss_kb, ended["maxrss_kb"])
        elapsed = time.perf_counter() - t0
        for fd in bufs:
            os.close(fd)
        return elapsed, (rc if finished else None), bufs[out_r], bufs[err_r]


def cli_argv(args: list) -> list:
    return [sys.executable, "-c", ENTRY, *args]


# ---------------------------------------------------------------------------
# environment


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(launch: Launcher, seed: int) -> dict:
    code = ("import json, platform, mpmath, mpmath.libmp as m; print(json.dumps("
            "[platform.python_version(), mpmath.__version__, m.BACKEND]))")
    _, rc, out, _ = launch.run([sys.executable, "-c", code], OP_TIMEOUT)
    py, mp, backend = json.loads(out) if rc == 0 else (platform.python_version(), None, None)
    return {"python": py, "mpmath": mp, "mpmath_backend": backend, "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "git_commit": git_commit(), "seed": seed,
            "jobs": workloads.VERIFY_JOBS}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(ops: list, seconds: float, launch: Launcher) -> tuple:
    check = oracle.Checker()
    attempted = failed = 0
    errors = []

    def op_result(op, rc, out):
        nonlocal attempted, failed
        attempted += 1
        err = check(op, rc, out)
        if err:
            failed += 1
            errors.append(f"{' '.join(op['argv'])}: {err}")

    no_work = {"kind": "count", "argv": NO_WORK, "k": 0, "i": 0, "j": 0}
    setup = []

    def set_up():
        dt, rc, out, _ = launch.run(cli_argv(NO_WORK), OP_TIMEOUT)
        op_result(no_work, rc, out)
        return dt

    set_up()  # compiles the bytecode cache
    walls, chosen = [], {}
    by_op = [[] for _ in ops]  # each op's latencies, one per pass
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        wall = 0.0
        for n, op in enumerate(ops):
            # the no-work calls are spread over every pass, so that their
            # median sees the same machine as the ops do
            while len(setup) < SETUP_PER_PASS * (len(walls) + (n + 1) / len(ops)):
                setup.append(set_up())
            dt, rc, out, err = launch.run(cli_argv(op["argv"]), OP_TIMEOUT)
            wall += dt
            by_op[n].append(dt)
            op_result(op, rc, out)
            if err.startswith(b"backend: "):
                name = err.split()[1].decode()
                chosen[name] = chosen.get(name, 0) + 1
        walls.append(wall)
        now = time.perf_counter()
        if now - start + (now - p0) > seconds:  # the next pass would not fit
            break

    # the quantiles are over each op's median latency: the ops of a pass
    # repeat in every pass, and a quantile of the pooled samples that falls
    # between two ops of different cost would follow the extremes of their
    # samples rather than their typical latency
    op_latency = [statistics.median(ts) for ts in by_op]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(op_latency), "s"),
        "op_p75_s": (statistics.quantiles(op_latency, n=4)[2], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (launch.peak_rss_kb / 1024, "MB"),
    }
    detail = {"passes": len(walls), "pass_wall_s": walls,
              "setup_samples_s": setup, "failed_frac": failed / attempted,
              "op_median_s": [[" ".join(op["argv"]), t] for op, t in zip(ops, op_latency)],
              "auto_choices": chosen, "errors": errors[:20],
              "bench_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return metrics, attempted, failed, detail


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


class InProc:
    """One inproc.py interpreter, answering one JSON line per request line."""

    def __init__(self, mode: str, env: dict):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "inproc.py"), mode],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self.pending = b""

    def ask(self, request: dict, deadline: float):
        """The reply to one request, or None when the interpreter died or
        did not answer by the deadline (it is then killed)."""
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.kill()
            return None
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.pending:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
            chunk = os.read(fd, 1 << 20) if ready else b""
            if not chunk:
                self.kill()
                return None
            self.pending += chunk
        line, _, self.pending = self.pending.partition(b"\n")
        return json.loads(line)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Interpreters:
    """Fresh inproc.py interpreters by mode, replaced after one is killed,
    and a deadline over all their requests."""

    def __init__(self, env: dict, seconds: float):
        self.env = env
        self.end = time.perf_counter() + seconds
        self.live = {}
        self.asked = 0
        self.errors = []

    def ask(self, mode: str, request: dict, what: str):
        """The reply, or None with the failure recorded."""
        self.asked += 1
        now = time.perf_counter()
        if now >= self.end:
            self.errors.append(f"{what}: not run, the traced run is out of time")
            return None
        if mode not in self.live:
            self.live[mode] = InProc(mode, self.env)
        reply = self.live[mode].ask(request, min(now + OP_TIMEOUT, self.end))
        if reply is None:
            self.errors.append(f"{what}: {mode} interpreter died or timed out")
            del self.live[mode]
        elif reply.get("error"):
            self.errors.append(f"{what}: {reply['error']}")
        return reply

    def close(self):
        for child in self.live.values():
            child.kill()
        self.live.clear()


def import_time(launch: Launcher) -> float:
    code = ("import time; t = time.perf_counter(); import bratteli.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        _, rc, out, _ = launch.run([sys.executable, "-c", code], OP_TIMEOUT)
        if rc != 0:
            raise RuntimeError("import bratteli.cli failed")
        samples.append(float(out))
    return statistics.median(samples)


def self_times(spans: list) -> list:
    own = [s[2] - s[1] for s in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(ops: list, spans: list, crossover: dict, residue: list) -> tuple:
    """Per-layer metrics from the spans [name, start, end, parent, info, op],
    the crossover times by deep op index and the residue timings."""
    own = self_times(spans)
    total, calls, info = {}, {}, {}
    for (name, start, end, _, args, _), t in zip(spans, own):
        total[name] = total.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        info.setdefault(name, []).append((end - start, args))

    def tsum(*names):
        return sum(total.get(n, 0.0) for n in names)

    def args(name):
        return [a for _, a in info.get(name, [])]

    m = {}
    picks = {b: 0 for b in ("dp", "matrix", "gf", "spectral", "dyck")}
    chosen_by_op = {}
    for s in spans:
        if s[0] == "cli.count_via":
            picks[s[4][0]] += 1
            chosen_by_op[s[5]] = s[4][0]
    for b, n in picks.items():
        m[f"cli.auto.{b}_n"] = (n, "count")

    table = []
    regret, slowdown = 0.0, 0.0
    for n, row in crossover.items():
        best = min(row.values())
        pick = chosen_by_op.get(n)
        if pick in row:  # else the op failed, which is counted already
            regret += row[pick] - best
            slowdown = max(slowdown, row[pick] / best)
        op = ops[n]
        table.append({"k": op["k"], "i": op["i"], "j": op["j"], "auto": pick, **row})
    m["cli.auto.regret_s"] = (regret, "s")
    m["cli.auto.slowdown_max"] = (slowdown, "ratio")

    formatted = 0
    for fmt in ("csv", "json", "pretty"):
        m[f"cli.format.{fmt}_s"] = (tsum(f"cli.format.{fmt}"), "s")
        formatted += sum(a[0] for a in args(f"cli.format.{fmt}"))
    m["cli.format.bytes"] = (formatted, "count")

    levels = {}
    for s in spans:
        if s[0] == "cli.verify_level":
            levels.setdefault(s[5], []).append(s[2] - s[1])
    flat = [t for ts in levels.values() for t in ts]
    m["cli.verify.level_max_s"] = (max(flat, default=0.0), "s")
    m["cli.verify.level_sum_s"] = (float(sum(flat)), "s")
    # against the pool of the untraced run
    pool = workloads.VERIFY_JOBS
    m["cli.verify.imbalance"] = (max((max(ts) / (sum(ts) / pool) for ts in levels.values()
                                      if sum(ts) > 0), default=0.0), "ratio")
    m["cli.verify.compare_s"] = (tsum("cli.compare_backends"), "s")

    cells = sum((k + 1) * j for k, i, j in args("diagram.count_dp")
                if i <= k and i <= j and (i + j) % 2 == 0)
    dp_s = tsum("diagram.count_dp")
    m["diagram.count_dp_s"] = (dp_s, "s")
    m["diagram.count_dp.cells"] = (cells, "count")
    m["diagram.count_dp.ns_per_cell"] = (dp_s / cells * 1e9 if cells else 0.0, "ns")
    m["diagram.build_table_s"] = (tsum("diagram.build_table"), "s")
    m["diagram.build_table.entries"] = (sum(a[0] for a in args("diagram.build_table")), "count")
    m["diagram.adjacency_power_row_s"] = (tsum("diagram.adjacency_power_row"), "s")
    m["diagram.adjacency_power_row.calls"] = (calls.get("diagram.adjacency_power_row", 0), "count")

    m["genfunc.gf_closed_form_s"] = (tsum("genfunc.gf_closed_form"), "s")
    m["genfunc.poly_gcd_s"] = (tsum("genfunc.poly_gcd"), "s")
    m["genfunc.recurrence_from_gf_s"] = (tsum("genfunc.recurrence_from_gf"), "s")
    m["genfunc.series_coeffs_s"] = (tsum("genfunc.series_coeffs"), "s")
    m["genfunc.series_coeffs.terms"] = (sum(n + 1 for n, in args("genfunc.series_coeffs")), "count")

    spec = [d for d, _ in info.get("spectral.count_spectral", [])]
    m["spectral.count_spectral_s"] = (tsum("spectral.count_spectral"), "s")
    m["spectral.count_spectral.calls"] = (len(spec), "count")
    m["spectral.count_spectral.p50_s"] = (statistics.median(spec) if spec else 0.0, "s")
    m["spectral.residue_decomposition_s"] = (sum(residue), "s")

    nodes = sum(oracle.prefixes(k, length) for k, length in args("dyck.endpoint_counts"))
    nodes += sum(oracle.prefixes(k, j) for k, _, j in args("dyck.enumerate_count"))
    dyck_s = tsum("dyck.endpoint_counts", "dyck.enumerate_count")
    m["dyck.endpoint_counts_s"] = (dyck_s, "s")
    m["dyck.nodes"] = (nodes, "count")
    m["dyck.ns_per_node"] = (dyck_s / nodes * 1e9 if nodes else 0.0, "ns")
    return m, table


def serial(op: dict) -> dict:
    """The op with verify's level pool replaced by one in-process worker, so
    that every level's spans are recorded in the traced interpreter."""
    if op["kind"] != "verify":
        return op
    argv = list(op["argv"])
    argv[argv.index("--jobs") + 1] = "1"
    return {**op, "argv": argv}


def run_traced(ops: list, launch: Launcher, env: dict) -> tuple:
    pool = Interpreters(env, TRACE_SECONDS)
    spans = []
    times = {"plain": [], "traced": []}
    try:
        # plain and traced take turns, first one then the other, so that a
        # drifting machine weighs on both alike
        for n, op in enumerate(ops):
            op = serial(op)
            replies = {}
            for mode in ("plain", "traced")[:: 1 if n % 2 else -1]:
                replies[mode] = pool.ask(mode, op, " ".join(op["argv"]))
            if replies["traced"]:
                base = len(spans)
                for name, start, end, parent, info in replies["traced"]["spans"]:
                    spans.append([name, start, end, parent + base if parent >= 0 else -1, info, n])
            if replies["plain"] and replies["traced"]:
                for mode, reply in replies.items():
                    times[mode].append(reply["time"])
        deep = [(n, [op["k"], op["i"], op["j"]]) for n, op in enumerate(ops) if op["kind"] == "deep"]
        crossover = {}
        for n, kij in deep:
            reply = pool.ask("probe", {"crossover": kij}, f"crossover {kij}")
            if reply:
                crossover[n] = reply["times"]
        # each op's distinct spectral calls, in the order it made them
        calls = {}
        for s in spans:
            if s[0] == "spectral.count_spectral":
                calls.setdefault(s[5], {})[tuple(s[4])] = None
        residue = []
        for n, kijs in calls.items():
            reply = pool.ask("probe", {"residue": list(kijs)}, f"residues of op {n}")
            if reply:
                residue.append(reply["time"])
    finally:
        pool.close()

    layers, table = layer_metrics(ops, spans, crossover, residue)
    metrics = {"cli.import_s": (import_time(launch), "s"), **layers}
    base, with_trace = sum(times["plain"]), sum(times["traced"])
    metrics["trace.overhead_frac"] = ((with_trace - base) / base if base else 0.0, "ratio")
    detail = {"inproc_plain_s": base, "inproc_traced_s": with_trace, "spans": len(spans),
              "crossover": table, "errors": pool.errors[:20]}
    return metrics, pool.asked, len(pool.errors), detail


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("query", "sweep", "table"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "bratteli", "cli.py")):
        print(f"error: no bratteli sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    launch = Launcher(env)
    try:
        info = environment(launch, args.seed)
        ops = workloads.generate(args.workload, args.seed)
        if args.trace:
            metrics, attempted, failed, detail = run_traced(ops, launch, env)
        else:
            metrics, attempted, failed, detail = run_untraced(ops, args.seconds, launch)
    finally:
        launch.close()
    print(json.dumps({"workload": args.workload, "trace": args.trace, "ops_per_pass": len(ops),
                      "env": info, "layer_moves": MOVES if args.trace else None, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

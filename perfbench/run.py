#!/usr/bin/env python3
"""The repository benchmark: BRISK end to end, as deployed.

    python3 perfbench/run.py --workload steady|firehose|tree --seed N \
        --seconds S --trace 0|1

Builds libbrisk, the daemons and the benchmark binaries from the checkout's
sources (CMake, into .bench_build/), then runs one workload against the
shipped daemons: brisk_ism, one brisk_exs per node, and (tree) relays as
`brisk_ism --relay-to`. brisk_loadgen is the application and the consumer.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics: the daemons' own 0xFF01 snapshot from a traced run, the untraced vs
traced overhead, and the in-process layer replay (brisk_replay). The last
stdout line is one JSON object with keys correct, attempted, failed and
metrics. See perfbench/NOTES.md for the workloads and the metric map.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
WORKLOADS = ("steady", "firehose", "tree")
# Set-up probes per untraced run (spawn -> first delivered record).
SETUP_PROBES = 5
TRACE_RATE = "0.015625"  # 1/64
RUN_DEADLINE_S = 170
NODES = (1, 2, 3, 4)
RELAY_NODES = (101, 102)
MARKER = b"perfbench-counting-allocator-linked"

# Bounded end-to-end metrics (BENCHMARK.json end_to_end).
END_TO_END = (
    ("setup_s", "s"),
    ("delivered_rps", "rec/s"),
    ("e2e_p50_us", "us"),
    ("e2e_p99_us", "us"),
    ("ism_rss_mb", "MB"),
)
# End-to-end metrics printed in the report line and, from the untraced pass
# of a traced run, as unbounded per-layer metrics: the CPU-time figures
# swing with other load on a shared host, and the two ratios are 0 on a
# healthy run. Lost records are also the result's `failed` count.
UNBOUNDED = (
    ("notice_ns_p50", "ns"),
    ("ism_cpu_us_per_krec", "us"),
    ("exs_cpu_us_per_krec", "us"),
    ("lost_ratio", "ratio"),
    ("inversion_ratio", "ratio"),
)

LAT_PAIRS = ("ring_to_drain", "drain_to_seal", "seal_to_send", "send_to_ingest",
             "ingest_to_sort", "sort_to_merge", "merge_to_cre", "cre_to_sink", "end_to_end")
LAYERS = ("sensors.notice", "lis.drain", "tp.decode", "ism.sort", "ism.merge", "ism.cre",
          "ism.gateway", "ism.relay", "consumers.shm")
SNAPSHOT_COUNTERS = (
    ("lis.records_per_batch", "rec"),
    ("lis.paced_batches", "count"),
    ("lis.credit_stalled_us", "us"),
    ("ism.ingest_stalls", "count"),
    ("ism.submit_stalls", "count"),
    ("ism.zero_window_grants", "count"),
    ("ism.merge_inversions", "count"),
    ("tp.wire_bytes_per_rec", "B"),
    ("ism.gateway.lane_drops", "count"),
    ("ism.gateway.sub_drops", "count"),
)


class Abort(Exception):
    """A signal or the run deadline: tear everything down and fail."""


def on_signal(signum, _frame):
    raise Abort(f"signal {signum}")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---- build -------------------------------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no BRISK sources next to perfbench/ (src/CMakeLists.txt)")
    BUILD.mkdir(parents=True, exist_ok=True)
    generator = ["-G", "Ninja"] if _which("ninja") else []
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       check=True, stdout=subprocess.DEVNULL)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=subprocess.DEVNULL)


def _which(program):
    return any((Path(d) / program).is_file() for d in os.environ.get("PATH", "").split(":") if d)


def self_tests():
    """Checker and allocator self-tests; the e2e binary must not link the allocator."""
    ok = True
    for name in ("brisk_loadgen", "brisk_replay"):
        proc = subprocess.run([str(BUILD / name), "--self-test"], capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout + proc.stderr)
            ok = False
    if MARKER in (BUILD / "brisk_loadgen").read_bytes():
        log("self-test: brisk_loadgen links the counting allocator")
        ok = False
    if MARKER not in (BUILD / "brisk_replay").read_bytes():
        log("self-test: brisk_replay does not link the counting allocator")
        ok = False
    return ok


# ---- daemons -----------------------------------------------------------------------


class Topology:
    """One deployment of a workload: every daemon in one process group."""

    def __init__(self, workload, tag, traced):
        self.workload = workload
        self.traced = traced
        self.prefix = f"pb-{os.getpid()}-{tag}"
        self.dir = RUNS / self.prefix
        self.dir.mkdir(parents=True, exist_ok=True)
        self.pgid = None
        self.procs = {}  # role -> Popen
        self.exs_args = {}
        self.spawn_ns = 0
        self.gateway_port = None

    # -- process control --
    def _spawn(self, role, argv, **kwargs):
        out = open(self.dir / f"{role}.log", "wb")
        try:
            proc = subprocess.Popen([str(a) for a in argv], stdout=kwargs.pop("stdout", out),
                                    stderr=out, stdin=kwargs.pop("stdin", subprocess.DEVNULL),
                                    process_group=self.pgid or 0, **kwargs)
        finally:
            out.close()
        if self.pgid is None:
            self.pgid = proc.pid
        self.procs[role] = proc
        return proc

    def _await_line(self, role, pattern, timeout=15.0):
        path = self.dir / f"{role}.log"
        deadline = time.monotonic() + timeout
        regex = re.compile(pattern)
        while time.monotonic() < deadline:
            match = regex.search(path.read_text(errors="replace"))
            if match:
                return match
            if self.procs[role].poll() is not None:
                raise RuntimeError(f"{role} exited: {path.read_text(errors='replace')[-2000:]}")
            time.sleep(0.001)
        raise RuntimeError(f"{role} never printed {pattern!r}")

    def _ism(self, role, extra):
        argv = [BUILD / "brisk" / "apps" / "brisk_ism", "--port", "0", *extra]
        if self.traced:
            argv += ["--metrics-interval", "1"]
        self._spawn(role, argv)
        return int(self._await_line(role, r"listening on 127\.0\.0\.1:(\d+)").group(1))

    def _exs(self, node, port, extra):
        args = ["--node", str(node), "--shm", f"/{self.prefix}-n{node}", "--ism-port", str(port),
                *extra]
        if self.traced:
            args += ["--metrics-interval", "1", "--trace-sample-rate", TRACE_RATE]
        self.exs_args[node] = args
        self._spawn(f"exs{node}", [BUILD / "brisk" / "apps" / "brisk_exs", *args])

    def start(self):
        """Spawns root, relays, then every EXS, each once its parent listens."""
        self.spawn_ns = time.monotonic_ns()
        out = ["--shm", f"/{self.prefix}-out"]
        if self.workload == "steady":
            port = self._ism("root", out)
            for node in NODES:
                self._exs(node, port, [])
        elif self.workload == "firehose":
            port = self._ism("root", out + [
                "--poller", "epoll", "--ism-reader-threads", "2", "--ism-sorter-shards", "2",
                "--ism-credit-records", "8192", "--output-ring-bytes", str(64 << 20)])
            for node in NODES:
                self._exs(node, port, ["--poller", "epoll", "--ring-bytes", str(4 << 20),
                                       "--select-timeout-us", "1000", "--batch-age-us", "2000",
                                       "--replay-batches", "2048"])
        else:
            port = self._ism("root", out + ["--consumer-port", "0"])
            self.gateway_port = int(self._await_line(
                "root", r"consumer gateway listening on 127\.0\.0\.1:(\d+)").group(1))
            relay_ports = [self._ism(f"relay{r}", ["--relay-to", f"127.0.0.1:{port}",
                                                    "--relay-node", str(r)])
                           for r in RELAY_NODES]
            for node in NODES:
                self._exs(node, relay_ports[(node - 1) // 2], [])
        for node in NODES:
            self._await_line(f"exs{node}", r"brisk_exs .* node \d+")

    def tiers(self):
        """Daemon roles leaf to root."""
        return ([f"exs{n}" for n in NODES],
                [f"relay{r}" for r in RELAY_NODES if f"relay{r}" in self.procs],
                ["root"])

    def pids(self, roles):
        return ",".join(str(self.procs[r].pid) for r in roles if r in self.procs)

    def loadgen_args(self):
        args = ["--nodes", ",".join(f"{n}=/{self.prefix}-n{n}" for n in NODES),
                "--spawn-ns", str(self.spawn_ns)]
        if self.gateway_port is not None:
            args += ["--gateway-port", str(self.gateway_port)]
        else:
            args += ["--output-shm", f"/{self.prefix}-out"]
        exs, relays, root = self.tiers()
        args += ["--ism-pids", self.pids(root + relays), "--exs-pids", self.pids(exs)]
        if self.traced:
            args += ["--trace-rate", TRACE_RATE, "--trace", "1"]
        return args

    def stop_orderly(self):
        """SIGTERM each tier, leaf to root, and wait for it (SIGKILL past 10 s)."""
        for tier in self.tiers():
            for role in tier:
                if self.procs[role].poll() is None:
                    self.procs[role].send_signal(signal.SIGTERM)
            for role in tier:
                try:
                    self.procs[role].wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.procs[role].kill()
                    self.procs[role].wait()

    def kill(self):
        """Every exit path ends here: kill the group, reap, unlink shm."""
        if self.pgid is not None:
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                log(f"pid {proc.pid} survived SIGKILL")
        for path in Path("/dev/shm").glob(f"{self.prefix}-*"):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def knob_dumps(self):
        dumps = {}
        for role in self.procs:
            if role.startswith("exs") or role == "loadgen":
                continue
            text = (self.dir / f"{role}.log").read_text(errors="replace")
            dumps[role] = "\n".join(l for l in text.splitlines() if re.match(r"^[\w.]+ = ", l))
        for node, args in self.exs_args.items():
            proc = subprocess.run([str(BUILD / "brisk_loadgen"), "--describe-exs", *args],
                                  capture_output=True, text=True)
            dumps[f"exs{node}"] = proc.stdout.strip()
        return dumps


LIVE = []  # topologies not yet torn down


def run_loadgen(topology, argv, probe):
    """Runs brisk_loadgen against a started topology; returns its JSON result."""
    proc = topology._spawn("loadgen", [BUILD / "brisk_loadgen", *argv, *topology.loadgen_args()],
                           stdout=subprocess.PIPE, stdin=subprocess.PIPE)
    result = None
    for raw in proc.stdout:
        line = raw.decode(errors="replace").strip()
        if line == "QUIESCED":
            topology.stop_orderly()
            proc.stdin.write(b"STOPPED\n")
            proc.stdin.flush()
        elif line.startswith("{"):
            result = json.loads(line)["loadgen"]
    proc.stdin.close()
    proc.wait()
    if result is None or (probe and proc.returncode != 0):
        raise RuntimeError(f"loadgen failed ({proc.returncode}): "
                           + (topology.dir / "loadgen.log").read_text(errors="replace")[-3000:])
    return result


def deploy(workload, tag, traced, argv, probe=False):
    topology = Topology(workload, tag, traced)
    LIVE.append(topology)
    try:
        topology.start()
        result = run_loadgen(topology, argv, probe)
        if not probe:
            result["knobs"] = topology.knob_dumps()
        return result
    finally:
        topology.kill()
        LIVE.remove(topology)


# ---- metrics -----------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP, signal.SIGALRM):
        signal.signal(signum, on_signal)
    code = 1
    shutil.rmtree(RUNS, ignore_errors=True)  # logs of the previous run only
    try:
        build()
        signal.alarm(RUN_DEADLINE_S)  # after the (possibly first, slow) build
        code = run(args)
    except Abort as exc:
        log(f"aborted: {exc}")
        code = 3
    except (RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        log(f"failed: {exc}")
        code = 2
    finally:
        signal.alarm(0)
        for topology in list(LIVE):
            topology.kill()
    return code


def run(args):
    tests_ok = self_tests()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    digest = subprocess.run([str(BUILD / "brisk_loadgen"), *common, "--digest-only"],
                            capture_output=True, text=True, check=True).stdout.strip()

    setups = []
    if not args.trace:
        for probe in range(SETUP_PROBES):
            setups.append(deploy(args.workload, f"p{probe}", False, common + ["--probe"],
                                 probe=True)["setup_s"])
    plain = deploy(args.workload, "run", False, common)
    digest_ok = plain["digest"] == digest
    correct = bool(plain["correct"]) and digest_ok and tests_ok

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "input_digest": plain["digest"], "digest_recomputed": digest,
              "self_tests_ok": tests_ok, "check": plain["check"],
              "setup_samples_s": setups, "trial_rps": plain["trial_rps"],
              "e2e_p99_windows_us": plain["e2e_p99_windows_us"],
              "ism_peak_rss_mb": plain["ism_peak_rss_mb"],
              "knobs": plain.pop("knobs")}
    if setups:
        plain["setup_s"] = statistics.median(setups)
    metrics = {}
    if args.trace:
        traced = deploy(args.workload, "traced", True, common)
        correct = correct and bool(traced["correct"]) and traced["digest"] == digest
        record["traced_check"] = traced["check"]
        record["traced_knobs"] = traced.pop("knobs")
        replay = json.loads(subprocess.run(
            [str(BUILD / "brisk_replay"), *common[:4]],
            capture_output=True, text=True, check=True).stdout.strip().splitlines()[-1])["replay"]
        snap = traced["snapshot"]
        for pair in LAT_PAIRS:
            for q in ("p50", "p99"):
                key = f"lat.{pair}.{q}_us"
                metrics[key] = metric(snap[key], "us")
        for name, unit in SNAPSHOT_COUNTERS:
            metrics[name] = metric(snap[name], unit)
        metrics["shm.ring_full_retries"] = metric(traced["ring_full_retries"], "count")
        metrics["gen.late_p99_us"] = metric(traced["gen_late_p99_us"], "us")
        cpu = lambda r: r["ism_cpu_us_per_krec"] + r["exs_cpu_us_per_krec"]  # noqa: E731
        metrics["bench.trace_overhead_pct"] = metric(
            100.0 * (cpu(traced) - cpu(plain)) / cpu(plain) if cpu(plain) else 0.0, "%")
        for layer in LAYERS:
            metrics[f"{layer}.ns_per_rec"] = metric(replay[f"{layer}.ns_per_rec"], "ns")
            metrics[f"{layer}.allocs_per_rec"] = metric(replay[f"{layer}.allocs_per_rec"], "count")
            metrics[f"{layer}.alloc_bytes_per_rec"] = metric(
                replay[f"{layer}.alloc_bytes_per_rec"], "B")
        for name, unit in UNBOUNDED:
            metrics[name] = metric(plain[name], unit)
    else:
        for name, unit in END_TO_END:
            metrics[name] = metric(plain[name], unit)
        report = {name: metric(plain[name], unit) for name, unit in END_TO_END + UNBOUNDED}
        print(json.dumps({"report": report}), flush=True)

    print(json.dumps({"perfbench_record": record}), flush=True)
    print(json.dumps({"correct": correct, "attempted": max(int(plain["issued"]), 1),
                      "failed": int(plain["lost"]), "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

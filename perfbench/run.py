"""anchorseq benchmark: timed CLI ops per workload, checked outputs.

    python3 perfbench/run.py --workload {scan-deep,dense,catalog} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout of the repository.  Every op is one `python -m
anchorseq.cli ...` invocation in a fresh interpreter, with the checkout's
src/ as the only PYTHONPATH entry, ANCHORSEQ_WORKERS removed and
bytecode writing off, so each op pays what a user of the source tree
pays.  Ops run one at a time (closed loop, one client) in rounds drawn from
the seed until S seconds of op time have been measured.  Each op's output
is checked after its timed region; an op that exits non-zero or fails its
check counts as failed.

--trace 0 prints the end-to-end metrics; --trace 1 runs every op twice,
untraced and under tracer.py, requires byte-identical outputs, and prints
the per-layer metrics and the tracing overhead.  The last stdout line is
the result object; the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import launcher
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES_FIRST = 4
SETUP_SAMPLES_PER_ROUND = 1
OP_TIMEOUT_S = 60
# No op or check outlives DEADLINE_S after start, and no op starts once
# fewer than OP_MARGIN_S remain (no round, once a round would not fit).
DEADLINE_S = 165
OP_MARGIN_S = 30
REAP_WAIT_S = 3


@dataclass
class Result:
    rc: int
    stdout: bytes
    stderr: bytes
    wall: float
    maxrss_kb: int
    leftover: bool = False  # processes of the op outlived it


def kill_session(pgid: int) -> bool:
    """Kill what is left of a launched op's process group and wait until
    it is gone; True if anything was left.  The wait is bounded: a killed
    orphan can stay a zombie until init, not this process, reaps it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    give_up = time.perf_counter() + REAP_WAIT_S
    while time.perf_counter() < give_up:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    return True


def launch(cmd: list[str], env: dict, timeout: float) -> Result:
    """Run cmd to completion under launcher.py, which measures its wall
    time and peak RSS; killed with its pool workers after timeout.  Any
    process of its session still alive after it ends is killed too."""
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "launcher.py"), *cmd],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    leftover = kill_session(proc.pid)
    report, err = split_marked(err, launcher.LAUNCH_MARK)
    if report is None:
        return Result(proc.returncode or -signal.SIGKILL, out, err, timeout, 0, leftover)
    return Result(report["rc"], out, err, report["wall"], report["maxrss_kb"], leftover)


def split_marked(stderr: bytes, mark: str) -> tuple[dict | None, bytes]:
    """The JSON after the last `mark` in stderr, and stderr without it."""
    text = stderr.decode(errors="replace")
    head, found, tail = text.rpartition(mark)
    if not found:
        return None, stderr
    return json.loads(tail), head.encode()


class Context:
    """Launches ops and the reference runs their checks need."""

    def __init__(self):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "ANCHORSEQ_WORKERS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self._families: dict = {}
        self._references: dict = {}

    def launch(self, cmd: list[str]) -> Result:
        """launch() with a timeout that ends every run before its deadline."""
        timeout = min(OP_TIMEOUT_S, self.deadline - time.perf_counter())
        return launch(cmd, self.env, max(timeout, 0.1))

    def past_deadline(self, margin: float) -> bool:
        return time.perf_counter() + margin > self.deadline

    def cli(self, args: list[str], traced: bool = False) -> Result:
        entry = [str(HERE / "tracer.py")] if traced else ["-m", "anchorseq.cli"]
        return self.launch([sys.executable, *entry, *args])

    def family(self, scheme: str, q: int):
        """The family `solve --format json` prints, checked; cached."""
        if (scheme, q) not in self._families:
            res = self.cli(["solve", "--scheme", scheme, "--q", str(q), "--format", "json"])
            if res.rc != 0:
                self._families[scheme, q] = (None, [f"solve exited {res.rc}"])
            else:
                self._families[scheme, q] = checks.parse_family(res.stdout)
        return self._families[scheme, q]

    def reference(self, args: list[str]) -> bytes | None:
        """Output of a reference run, or None if it failed; cached."""
        key = tuple(args)
        if key not in self._references:
            res = self.cli(args)
            self._references[key] = res.stdout if res.rc == 0 else None
        return self._references[key]

    def setup_sample(self) -> float:
        """Time to start an interpreter and import anchorseq.cli."""
        res = self.launch([sys.executable, "-c", "import anchorseq.cli"])
        if res.rc != 0:
            raise RuntimeError(f"import anchorseq.cli failed: {res.stderr.decode()[-300:]}")
        return res.wall


def check_op(op, res: Result, ctx: Context, digests: dict) -> list[str]:
    if res.rc != 0:
        return [f"exit code {res.rc}: {res.stderr.decode(errors='replace')[-300:]}"]
    problems = ["left processes running after it ended"] if res.leftover else []
    problems += op.check(res.stdout, ctx)
    expected = digests.get(op.label)
    if expected and hashlib.sha256(res.stdout).hexdigest() != expected:
        problems.append("output digest differs from the one recorded for this input")
    return problems


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def end_to_end(rounds, setup_samples) -> tuple[dict, dict]:
    """Metrics with tracing off.  Each op kind's wall time and peak RSS
    are medians over the run, so one slow op does not move a metric; a
    round's time is the sum over its ops of their kind's median wall time,
    and peak_rss_mb is the largest of the kinds' median peaks."""
    walls: dict[str, list[float]] = {}
    peaks: dict[str, list[int]] = {}
    for results in rounds:
        for op, res in results:
            walls.setdefault(op.kind, []).append(res.wall)
            peaks.setdefault(op.kind, []).append(res.maxrss_kb)
    median = {kind: statistics.median(w) for kind, w in walls.items()}
    ops = [op for op, _ in rounds[0]]
    work = sum(op.work for op in ops)
    work_s = sum(median[op.kind] for op in ops if op.work)
    latency_s = sum(median[op.kind] for op in ops if op.latency)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "work_per_s": (work / work_s, "1/s"),
        "latency_s": (latency_s, "s"),
        "peak_rss_mb": (max(statistics.median(p) for p in peaks.values()) / 1024, "MB"),
    }
    bases = {"work_per_s": {"work_per_round": work, "median_op_seconds_per_round": work_s}}
    return metrics, bases


PER_LAYER_UNITS = {
    "search.self_s": "s",
    "search.tests_per_mk": "1/Mk",
    "search.witnesses": "count",
    "search.verify_witness.s": "s",
    "primality.is_prime.calls": "count",
    "primality.is_prime.s": "s",
    "primality.is_prime.true_frac": "ratio",
    "construction.coefficient_range.s": "s",
    "construction.coefficient_range.rows": "count",
    "construction.np_exponent.calls": "count",
    "construction.is_prime.calls": "count",
    "variants.qnr_anchor.calls": "count",
    "variants.no_prime_anchor.calls": "count",
    "crt.build_system.s": "s",
    "crt.solve_system.s": "s",
    "crt.merge_congruences.calls": "count",
    "crt.modulus_bits": "bits",
    "conditions.full_admissibility.s": "s",
    "conditions.check_admissibility.calls": "count",
    "conditions.solution_tuple.calls": "count",
    "conditions.condition_C_sweep.s": "s",
    "conditions.condition_E_sweep.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(traced_rounds) -> tuple[dict, dict]:
    """Per-layer metrics: per-round totals of the traced ops, median over
    rounds; ratios from the counts summed over all traced rounds."""
    per_round = []
    for results in traced_rounds:
        total = dict.fromkeys(tracer.LAYER_KEYS, 0)
        total["cli.output_bytes"] = total["trace.overhead_s"] = total["untraced_s"] = 0
        for _, res, plain, layers in results:
            for key, value in layers.items():
                if key == "crt.modulus_bits":
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
            total["cli.output_bytes"] += len(res.stdout)
            total["trace.overhead_s"] += res.wall - plain.wall
            total["untraced_s"] += plain.wall
        per_round.append(total)
    summed = {key: sum(r[key] for r in per_round) for key in per_round[0]}
    metrics = {
        name: (statistics.median(r[name] for r in per_round), unit)
        for name, unit in PER_LAYER_UNITS.items()
        if name in per_round[0]
    }
    ratios = {
        "search.tests_per_mk": ("tests", "k_full", 1e6),
        "primality.is_prime.true_frac": ("is_prime_true", "primality.is_prime.calls", 1),
        "trace.overhead_frac": ("trace.overhead_s", "untraced_s", 1),
    }
    bases = {}
    for name, (num, den, scale) in ratios.items():
        value = scale * summed[num] / summed[den] if summed[den] else 0.0
        metrics[name] = (value, PER_LAYER_UNITS[name])
        bases[name] = {num: summed[num], den: summed[den], "rounds": len(per_round)}
    return metrics, bases


@dataclass
class Measured:
    rounds: list = field(default_factory=list)  # per round: [(op, untraced Result)]
    traced_rounds: list = field(default_factory=list)  # per round: [(op, traced, untraced, layers)]
    setup_samples: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # op kind -> ops run
    messages: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(args, ctx: Context, digests: dict) -> Measured:
    """Run rounds of the workload until args.seconds of op time is measured."""
    m = Measured()

    def sample_setup(count):
        if not args.trace and not ctx.past_deadline(OP_MARGIN_S):
            m.setup_samples.extend(ctx.setup_sample() for _ in range(count))

    def record(op, tag, problems):
        m.attempted += 1
        if problems:
            m.failed += 1
            m.messages += [f"{tag}{op.label}: {p}" for p in problems[:3]]

    sample_setup(SETUP_SAMPLES_FIRST)
    measured = 0.0
    while True:
        rng = random.Random(f"{args.workload}:{args.seed}:{len(m.rounds)}")
        results, traced = [], []
        for op in WORKLOADS[args.workload](rng):
            if results and ctx.past_deadline(OP_MARGIN_S):
                break
            m.samples[op.kind] = m.samples.get(op.kind, 0) + 1
            res = ctx.cli(op.args)
            measured += res.wall
            results.append((op, res))
            record(op, "", check_op(op, res, ctx, digests))
            if args.trace:
                # The untraced output was checked above; the traced one must equal it.
                tres = ctx.cli(op.args, traced=True)
                measured += tres.wall
                trace, tres.stderr = split_marked(tres.stderr, tracer.TRACE_MARK)
                problems = ["left processes running after it ended"] if tres.leftover else []
                if trace is None:
                    problems.append("traced op wrote no trace")
                elif (tres.rc, tres.stdout) != (res.rc, res.stdout):
                    problems.append("traced output differs from untraced output")
                else:
                    traced.append((op, tres, res, tracer.layer_metrics(trace)))
                record(op, "[traced] ", problems)
        sample_setup(SETUP_SAMPLES_PER_ROUND)
        m.rounds.append(results)
        if traced:
            m.traced_rounds.append(traced)
        round_s = measured / len(m.rounds)
        if measured + round_s / 2 >= args.seconds or ctx.past_deadline(OP_MARGIN_S + round_s):
            return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "anchorseq" / "cli.py").is_file():
        print(f"error: no anchorseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ctx = Context()
    try:
        ctx.setup_sample()  # warms the file cache; also fails early without a package
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    m = measure(args, ctx, digests)

    for line in m.messages:
        print(line, file=sys.stderr)
    if not args.trace:
        metrics, bases = end_to_end(m.rounds, m.setup_samples)
    elif m.traced_rounds:
        metrics, bases = per_layer(m.traced_rounds)
    else:
        metrics, bases = {}, {}
    meta = {
        **machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(m.rounds),
        "samples_per_op_kind": m.samples,
        "setup_samples": len(m.setup_samples),
        "failed_frac": {"failed": m.failed, "attempted": m.attempted},
        "ratio_bases": bases,
        # digests.json holds this field of a --seed 0 run of each workload
        "round0_sha256": {
            op.label: hashlib.sha256(res.stdout).hexdigest() for op, res in m.rounds[0]
        },
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": m.failed == 0 and bool(metrics),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

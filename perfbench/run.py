#!/usr/bin/env python3
"""kumquat's benchmark: `kumquat run`'s path on three workloads, checked
against GNU coreutils.

    python3 perfbench/run.py --workload text-filter|sort-spill|catalog|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the library and the measuring
process (perfbench/kqbench.cpp) into .bench_build/perfbench, generates the
workload's inputs from the seed, takes the GNU reference once, proves that
a corrupted output is caught, then repeats fresh `kqbench rep` processes
for S seconds (--trace 0) or runs one `kqbench layers` process (--trace 1).
It prints a table, then as the last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`. NOTES.md explains the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("text-filter", "sort-spill", "catalog")
MIN_REPS = 3
RUN_LIMIT_S = 170  # a run must end well inside 180 seconds
MIB = 1 << 20

# Metric names and units come from BENCHMARK.json; NOTES.md explains them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
E2E = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Failed(Exception):
    pass


def build():
    """Configures and builds kqbench; returns its path, or None on failure."""
    # The compiler's temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        return None
    return os.path.join(BUILD, "kqbench")


def failures(results, reference):
    """Executions that failed or disagree with a GNU checksum."""
    return sum(not r["ok"] or (reference[r["index"]] is not None
                               and r["hash"] != reference[r["index"]])
               for r in results)


def tail_percentile(values, low=False):
    """(label, value) of the most extreme percentile on the slow side that
    still has at least ten samples beyond it: the high tail of a time, the
    low tail of a throughput (`low`)."""
    n = len(values)
    if n < 11:
        return "p-", None
    if low:
        return f"p{-(-100 * 10 // n)}", sorted(values)[10]
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def self_times(trace_path):
    """Self time per span kind: each span's duration minus the part of it
    that child spans on the same thread cover. Returns
    [(category, span, count, self_s)], largest first."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_thread = {}
    for e in events:
        by_thread.setdefault(e["tid"], []).append(e)
    totals = {}
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, event, time covered by children]

        def close(entry):
            end, e, covered = entry
            key = (e["cat"], e["name"].split(": ")[-1][:40])
            count, total = totals.get(key, (0, 0.0))
            totals[key] = (count + 1, total + max(0.0, e["dur"] - covered))
            if stack:
                parent = stack[-1]
                parent[2] += max(0.0, min(end, parent[0]) - e["ts"])

        for e in spans:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            stack.append([e["ts"] + e["dur"], e, 0.0])
        while stack:
            close(stack.pop())
    rows = [(cat, name, n, us / 1e6) for (cat, name), (n, us) in totals.items()]
    return sorted(rows, key=lambda r: -r[3])


def cpu_ticks():
    """(steal, total) jiffies over all CPUs. Steal is time the host gave
    this machine's CPUs to someone else, one source of run-to-run noise."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class Run:
    """One workload run in its own work directory under .bench_build."""

    def __init__(self, binary, workload, seed, seconds):
        self.binary, self.workload = binary, workload
        self.seed, self.seconds = seed, seconds
        self.started = time.monotonic()
        self.work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        # Spill files and GNU sort's temporaries stay inside the checkout.
        self.env = dict(os.environ, TMPDIR=os.path.join(self.work, "tmp"),
                        LC_ALL="C")
        self.env.pop("KQ_IO_BACKEND", None)

    def left(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def call(self, verb, *extra):
        """Runs kqbench and returns the JSON object on its last stdout line."""
        args = [self.binary, verb, self.workload, str(self.seed), self.work]
        # Its own process group, so a timeout also stops the GNU pipelines
        # that `prepare` starts.
        proc = subprocess.Popen(args + list(extra), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=self.env, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(0, self.left()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise Failed(f"kqbench {verb} did not finish in time")
        if proc.returncode != 0:
            raise Failed(f"kqbench {verb} exited {proc.returncode}: "
                         f"{stderr.strip()[-400:]}")
        return json.loads(stdout.strip().splitlines()[-1])

    def measure(self, trace):
        """Returns (correct, attempted, failed, metrics)."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "tmp"))
        try:
            self.prep = self.call("prepare")
            self.reference = [p["hash"] for p in self.prep["pipelines"]]
            # The reference check must count a wrong answer: damage the
            # output of the first verified pipeline and expect one failure.
            canary = next(i for i, h in enumerate(self.reference) if h)
            rep = self.call("rep", "--corrupt", str(canary))
            self.canary_caught = failures(rep["results"], self.reference) == 1
            self.steal_start = cpu_ticks()
            return self.layers() if trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def print_context(self, extra):
        steal, total = (a - b for a, b in zip(cpu_ticks(), self.steal_start))
        ctx = dict(self.prep["context"], workload=self.workload,
                   seed=self.seed, k=4, nproc=os.cpu_count(),
                   build_type="Release", canary_caught=self.canary_caught,
                   steal_share=steal / total if total else 0, **extra)
        print(f"context: {json.dumps(ctx, sort_keys=True)}")
        unverified = [f"{p['label']} [{p['unverified']}]"
                      for p in self.prep["pipelines"] if p["unverified"]]
        print(f"unverified (no GNU reference): "
              f"{', '.join(unverified) or 'none'}")

    def end_to_end(self):
        reps, attempted, failed, error = [], 0, 0, None
        deadline = time.monotonic() + self.seconds
        while len(reps) < MIN_REPS or time.monotonic() < deadline:
            longest = max((r["setup_s"] + r["exec_s"] for r in reps), default=0)
            if reps and self.left() < 2 * longest + 5:
                break
            try:
                rep = self.call("rep")
            except Failed as e:  # a hang or crash fails the whole repetition
                error = str(e)
                attempted += len(self.reference)
                failed += len(self.reference)
                break
            reps.append(rep)
            attempted += len(rep["results"])
            failed += failures(rep["results"], self.reference)
        if not reps:
            raise Failed(error)

        # Each pipeline's median over the repetitions, summed over the
        # pipelines: a slow moment moves one pipeline's sample, not a total.
        def summed_median(field, only=lambda i: True):
            return sum(statistics.median(r["results"][i][field] for r in reps)
                       for i in range(len(self.reference)) if only(i))

        input_mib = reps[0]["input_bytes"] / MIB
        exec_s = summed_median("seconds")
        metrics = {
            "throughput_mbps": input_mib / exec_s,
            "setup_s": summed_median("setup_s"),
            "cpu_s": summed_median("cpu_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps)
            / 1024,
            "success_rate": 1 - failed / attempted,
            "certified_cmds": statistics.median(r["certified_cmds"] for r in reps),
            "parallel_stages": statistics.median(r["parallel_stages"]
                                                 for r in reps),
        }
        samples = {  # per-repetition totals, for the tail column
            "throughput_mbps": [input_mib / r["exec_s"] for r in reps],
            "setup_s": [r["setup_s"] for r in reps],
            "cpu_s": [r["cpu_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in reps],
        }

        print(f"== {self.workload}: {len(reps)} repetitions, {attempted} "
              f"executions at k=4 (stream mode)")
        print(f"{'metric':<18}{'unit':<10}{'median':>12}{'slow tail':>16}{'n':>5}")
        for name, unit in E2E:
            values = samples.get(name, [metrics[name]])
            label, tail = tail_percentile(values, low=name == "throughput_mbps")
            tail_text = f"{label} {tail:.4g}" if tail is not None else "p- (n<11)"
            print(f"{name:<18}{unit:<10}{metrics[name]:>12.5g}{tail_text:>16}"
                  f"{len(values):>5}")
        print(f"error_rate        fraction  {failed / attempted:>12.5g}   "
              f"({failed} of {attempted} executions)")
        gnu_s = self.prep["context"]["gnu_s"]
        self.print_context({
            "io_backend": reps[-1]["io_backend"],
            "exec_s": exec_s,
            # GNU's time covers the verified pipelines only.
            "kumquat_over_gnu": summed_median(
                "seconds", lambda i: self.reference[i] is not None) / gnu_s,
            "stages": reps[-1]["stages"],
            "unique_cmds": reps[-1]["unique_cmds"],
        })
        if error:
            print(f"error: {error}")
        correct = failed == 0 and self.canary_caught and error is None
        return correct, attempted, failed, {
            name: {"value": metrics[name], "unit": unit} for name, unit in E2E}

    def layers(self):
        out = self.call("layers", str(self.seconds))
        attempted = sum(len(p) for p in out["passes"])
        failed = sum(not ok for p in out["passes"] for ok in p)
        # The last pass's outputs are also checked against GNU.
        failed += failures(out["results"], self.reference) - sum(
            not r["ok"] for r in out["results"])

        print(f"== {self.workload} traced run: {out['context']['passes']} "
              f"passes, {attempted} executions")
        print(f"{'layer metric':<34}{'value':>14}")
        for name, value in sorted(out["metrics"].items()):
            print(f"{name:<34}{value:>14.5g}")
        print("self time by span kind, last traced execution (NOTES.md):")
        rows = self_times(os.path.join(self.work, "trace.json"))
        total = sum(r[3] for r in rows) or 1
        for cat, name, n, self_s in rows[:12]:
            print(f"  {cat:<9}{name:<42}{n:>7}{self_s:>10.4f} s"
                  f"{self_s / total:>7.1%}")
        self.print_context(out["context"])
        correct = failed == 0 and self.canary_caught
        return correct, attempted, failed, {
            name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in out["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            correct, attempted, failed, metrics = Run(
                binary, workload, args.seed, args.seconds).measure(args.trace)
        except (Failed, StopIteration, KeyError, ValueError) as e:
            print(f"perfbench: {workload}: {e!r}", file=sys.stderr)
            return 1
        summary["correct"] &= correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        # `all` prefixes each metric with its workload.
        prefix = f"{workload}." if len(workloads) > 1 else ""
        summary["metrics"].update(
            {prefix + name: m for name, m in metrics.items()})
        sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

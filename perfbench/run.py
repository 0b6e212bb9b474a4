"""Benchmark for the igq CLI: cold child interpreters running real invocations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

Run it from the repository root.  Workloads, metric names and units are
in BENCHMARK.json; every child is a fresh interpreter that imports
``igq.cli`` and calls ``igq.cli.main(argv)`` for each invocation of the
workload, in an order permuted by ``--seed`` (which also sets the child's
PYTHONHASHSEED).  Children run one at a time.

``--trace 0`` times whole children with tracing off, as many as start
within ``--seconds`` (at least three), and prints the end-to-end metrics as
medians over them:

* ``cpu_probe_units`` the child's user + system CPU time (from ``wait4``)
  divided by the CPU time of a fixed pure-Python probe loop, measured every
  0.1 s on the same vCPU while the child runs (see ``probe_scale``);
* ``peak_rss_mb``     the child's ``ru_maxrss``;
* ``setup_s``         spawn until ``igq.cli`` is imported, over import-only
  children, rescaled by the probe to a vCPU that runs it in PROBE_REF_S.

Raw wall and CPU seconds are logged to stderr but not reported: on a shared
host a vCPU's speed changes by up to 1.8x for seconds at a time, so from
one run to the next they spread wider than any useful bound, while their
ratio to the probe stays within a few per cent.

``--trace 1`` runs one untraced child and two traced children, and prints
the per-layer metrics ``<module>.<function>.<stat>`` (see tracer.py) plus
``trace.overhead_s``, traced minus untraced CPU time, both rescaled like
``setup_s``.  The two traced children must agree exactly on every count,
and the counts must match the zero / nonzero predictions below.

An invocation fails on an exception, a nonzero exit code, a FAIL row or
an output whose sha256 differs from the one recorded in digests.json
(``--record-digests`` records them; do that only at a commit whose output
is known good).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, which is also appended to .bench_build/perfbench/runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_SPAWNS = 15  # import-only children per run, for the setup_s median
MIN_CHILDREN = 3  # workload children per untraced run, however long they take
RUN_BUDGET_S = 170.0  # a run must end within 180 s; children are killed after this
PROBE_PERIOD_S = 0.1  # how often the vCPU's speed is sampled while a child runs
PROBE_ITERATIONS = 4000
# Rescaled times are given for a vCPU on which a probe between children takes
# this long; on a 2-vCPU Xeon VM such probes take 2.3-3.5 ms.
PROBE_REF_S = 0.003

WORKLOADS = {
    "qh-spectrum": [
        ["qh", "--n", str(n), "--check", "spectrum,zcount,unfolding"] for n in range(2, 6)
    ],
    "qh-presentations": [
        ["qh", "--n", str(n), "--check", "dims,homomorphism,lemma,regularity", "--q-mode", "symbolic"]
        for n in range(2, 6)
    ],
    "dcat-sweep": [
        ["dcat", "--k", str(k), "--space", s, "--max-k", "10"]
        for k in range(2, 11)
        for s in ("gr", "igr")
    ],
}

GROEBNER_CORE = (
    "groebner.buchberger.calls",
    "groebner.buchberger.self_s",
    "groebner.buchberger.basis_len",
    "groebner.buchberger.max_coeff_bits",
    "groebner.spoly.calls",
    "groebner.normal_form.calls",
    "groebner.normal_form.self_s",
    "groebner.quotient_dimension.self_s",
    "poly.monomial_lcm.calls",
    "poly.monomial_div.calls",
    "poly.order_key.calls",
    "linalg.rank.calls",
    "linalg.rank.self_s",
)
SATURATION = (
    "groebner.saturate.total_s",
    "groebner.colon.calls",
    "groebner.intersect.total_s",
    "groebner.eliminate.total_s",
    "groebner.minimal_polynomial.self_s",
    "groebner.divide_exact.calls",
)
SPECTRUM_STAGES = (
    "presentations.decompose_spectrum.total_s",
    "presentations.offorigin_ideal.total_s",
    "presentations.count_offorigin_by_substitution.total_s",
    "univariate.univ_gcd.calls",
    "univariate.univ_gcd.self_s",
    "univariate.distinct_root_count.total_s",
    "unfolding.match_quantum_factor.self_s",
)
PRESENTATION_CHECKS = (
    "presentations.verify_homomorphism.self_s",
    "deformation.verify_lemma_presentation.total_s",
    "deformation.verify_lemma_presentation.self_s",
    "deformation.regularity_corank.self_s",
)
# presentation_basis.hit_ratio is measured, not predicted: every basis is
# requested once per child, so the memo never hits on these workloads.
PRESENTATION_BUILD = (
    "presentations.build_presentation.calls",
    "presentations.build_presentation.self_s",
    "presentations.presentation_basis.calls",
)
BBW = (
    "bbw.bundle_cohomology.calls",
    "bbw.bundle_cohomology.self_s",
    "bbw.bundle_cohomology.hit_ratio",
    "bbw.bbw_gl.self_s",
    "bbw.bbw_sp.self_s",
    "bbw.ext_bundles.calls",
    "bbw.ext_bundles.self_s",
    "bbw.verify_collection.total_s",
    "bbw.ext_f_pair.total_s",
    "bbw.check_f_orthogonality.total_s",
)
# Predicted from the call graph: which layer metrics must be > 0, and which
# exactly 0, on each workload.  The > 0 check skips a function the program
# no longer defines.
NONZERO = {
    "qh-spectrum": GROEBNER_CORE + SATURATION + SPECTRUM_STAGES + PRESENTATION_BUILD[:1],
    "qh-presentations": GROEBNER_CORE + PRESENTATION_CHECKS + PRESENTATION_BUILD,
    "dcat-sweep": BBW + ("report.emit_json.self_s",),
}
ZERO = {
    "qh-spectrum": BBW + PRESENTATION_CHECKS,
    "qh-presentations": BBW + SATURATION + SPECTRUM_STAGES,
    "dcat-sweep": GROEBNER_CORE + SATURATION + SPECTRUM_STAGES + PRESENTATION_CHECKS + PRESENTATION_BUILD,
}
EXACT_STATS = ("calls", "basis_len", "max_coeff_bits", "hit_ratio")


def probe() -> float:
    """CPU seconds this thread takes for a fixed pure-Python loop: the vCPU's speed now.

    Tuple-keyed dict updates with big-int values slow down with the host's
    load by the same factor as the igq children do (fitted over whole
    children: slope 1.00-1.07 in log-log), where a small-int variant of the
    loop under-corrected (slope 1.34).
    """
    start = time.thread_time()
    table = {}
    for i in range(PROBE_ITERATIONS):
        k = (i * 7919) % 65521
        key = (k, i & 15, k ^ i)
        table[key] = table.get(key, 0) + (k * i) ** 3  # big ints, like the Groebner coefficients
    return time.thread_time() - start


def probe_scale(probes) -> float:
    """1 / (probe time averaged over a child's life), from (elapsed, probe) samples.

    Each sample's elapsed time is read just before its probe runs, and the
    first probe runs before the child starts.  The child and the probing
    parent share one vCPU, so an interval between samples is the child's
    time less the probe at its start; that time is divided by the mean of
    the probes at its two ends.
    """
    busy = per_probe = 0.0
    for i, ((t0, p0), (t1, p1)) in enumerate(zip(probes, probes[1:])):
        dt = max(t1 - t0 - (p0 if i else 0.0), 0.0)
        busy += dt
        per_probe += dt / ((p0 + p1) / 2)
    return per_probe / busy if busy else 1.0 / probes[-1][1]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_commit": commit,
        "cold_caches": "fresh interpreter per child: igq memo caches empty, "
        "bytecode cached, OS page cache not dropped",
        "pythonhashseed": seed % 2**32,
    }


class Runner:
    """Spawns children one at a time and checks every invocation they run."""

    def __init__(self, seed: int, digests):
        """digests: recorded output sha256 per invocation, or None to skip that check."""
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
        # One vCPU for this process and its children, so that the probes see
        # the speed the running child gets.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.digests = digests
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0

    def spawn(self, argvs, trace=None) -> dict:
        """Run one child; return wall, cpu, probe-scaled cpu, peak RSS, setup time and its reply."""
        request = json.dumps({"argvs": argvs, "trace": trace}).encode()
        probes = [(0.0, probe())]  # (child wall time so far, probe CPU seconds)
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(SRC)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=self.env,
        )
        chunks = []
        reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
        reader.start()
        try:
            proc.stdin.write(request)
            proc.stdin.close()
            reader.join(PROBE_PERIOD_S)
            while reader.is_alive():
                if time.monotonic() > self.deadline:
                    proc.kill()  # not yet reaped, so the pid is still this child's
                probes.append((time.monotonic() - t0, probe()))
                reader.join(PROBE_PERIOD_S)
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            reader.join()
            proc.stdout.close()
        probes.append((wall, probe()))
        cpu = usage.ru_utime + usage.ru_stime
        scale = probe_scale(probes)
        try:
            reply = json.loads(b"".join(chunks))
        except ValueError:
            reply = {"results": []}
        if proc.returncode != 0 or len(reply["results"]) != len(argvs):
            log("child exited with %d after %.1fs" % (proc.returncode, wall))
            reply = {"results": []}
        self.attempted += len(argvs)
        self.failed += len(argvs) - len(reply["results"])
        self.failed += sum(not self._ok(r) for r in reply["results"])
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "probe_scale": scale,
            "cpu_probe_units": cpu * scale,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": reply["import_done"] - t0 if "import_done" in reply else None,
            "reply": reply,
        }

    def _ok(self, r: dict) -> bool:
        key = " ".join(r["argv"])
        problem = r["error"]
        if problem is None and r["rc"] != 0:
            problem = "exit code %s" % r["rc"]
        if problem is None and r["fail_rows"]:
            problem = "%d FAIL rows" % r["fail_rows"]
        if problem is None and self.digests is not None and self.digests.get(key) != r["sha256"]:
            problem = "output digest %s, expected %s" % (r["sha256"][:12], self.digests.get(key))
        if problem:
            log("FAILED %s: %s" % (key, problem))
        return problem is None

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def run_untraced(runner: Runner, argvs, seconds: int) -> dict:
    runner.spawn([])  # compiles bytecode on a fresh checkout; not measured
    setups = []
    for _ in range(SETUP_SPAWNS):
        child = runner.spawn([])
        if child["setup_s"] is not None:
            setups.append(child["setup_s"] * child["probe_scale"] * PROBE_REF_S)
    children = []
    start = time.monotonic()
    while len(children) < MIN_CHILDREN or time.monotonic() - start < seconds:
        if children and runner.time_left() < 1.5 * max(c["wall_s"] for c in children):
            log("stopping after %d children: run budget" % len(children))
            break
        children.append(runner.spawn(argvs))
    for key in ("wall_s", "cpu_s", "cpu_probe_units"):
        log("child %s: %s" % (key, " ".join("%.3f" % c[key] for c in children)))
    metrics = {m: statistics.median(c[m] for c in children) for m in ("cpu_probe_units", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups) if setups else 0.0
    return metrics


def layer_value(layers: dict, name: str) -> float:
    func, stat = name.rsplit(".", 1)
    return layers.get(func, {}).get(stat, 0)


def run_traced(runner: Runner, workload: str, argvs, seed: int, names) -> tuple:
    """Return (per-layer metrics, list of self-test problems)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / ("%s.spans.jsonl" % workload)
    spans_path.unlink(missing_ok=True)
    untraced = runner.spawn(argvs)
    traced = [
        runner.spawn(argvs, {"run_id": "%s-seed%d-%d" % (workload, seed, i), "spans_path": str(spans_path)})
        for i in (1, 2)
    ]
    replies = [t["reply"] for t in traced]
    problems = []
    if any("layers" not in r for r in replies):
        return {}, ["a traced child gave no layer data"]
    missing = set(replies[0]["missing"])
    for name in names:
        values = [layer_value(r["layers"], name) for r in replies]
        if name.rsplit(".", 1)[1] in EXACT_STATS and values[0] != values[1]:
            problems.append("%s differs between traced runs: %s" % (name, values))
    first = replies[0]["layers"]
    for name in NONZERO[workload]:
        if name.rsplit(".", 1)[0] not in missing and not layer_value(first, name) > 0:
            problems.append("%s predicted > 0, measured %s" % (name, layer_value(first, name)))
    for name in ZERO[workload]:
        if layer_value(first, name) != 0:
            problems.append("%s predicted 0, measured %s" % (name, layer_value(first, name)))
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            extra = statistics.median(t["cpu_probe_units"] for t in traced) - untraced["cpu_probe_units"]
            metrics[name] = extra * PROBE_REF_S
        elif name.rsplit(".", 1)[1] in EXACT_STATS:
            metrics[name] = layer_value(first, name)
        else:
            metrics[name] = statistics.median(layer_value(r["layers"], name) for r in replies)
    log("%d spans per traced child; spans in %s" % (replies[0]["spans"], spans_path))
    return metrics, problems


def record_digests() -> int:
    runner = Runner(0, None)
    digests = {}
    for workload, argvs in WORKLOADS.items():
        for r in runner.spawn(argvs)["reply"]["results"]:
            if r["error"] or r["rc"] != 0 or r["fail_rows"]:
                log("refusing to record: %s gave %s" % (" ".join(r["argv"]), r))
                return 1
            digests[" ".join(r["argv"])] = r["sha256"]
    if len(digests) != sum(len(a) for a in WORKLOADS.values()):
        log("refusing to record: some children gave no results")
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    log("recorded %d digests in %s" % (len(digests), DIGESTS))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "igq" / "cli.py").is_file() or not spec_path.is_file():
        log("no igq sources under %s (or no BENCHMARK.json); run from a checkout" % SRC)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads(spec_path.read_text())
    digests = json.loads(DIGESTS.read_text())

    argvs = [list(a) for a in WORKLOADS[args.workload]]
    random.Random(args.seed).shuffle(argvs)
    runner = Runner(args.seed, digests)
    env = environment(args.seed)
    problems = []
    if args.trace:
        section = spec["per_layer"]
        values, problems = run_traced(runner, args.workload, argvs, args.seed, [m["name"] for m in section])
    else:
        section = spec["end_to_end"]
        values = run_untraced(runner, argvs, args.seconds)
    for p in problems:
        log("SELF-TEST: " + p)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in section}
    result = {
        "correct": runner.failed == 0 and not problems and set(values) >= {m["name"] for m in section},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, **result}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("# env " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

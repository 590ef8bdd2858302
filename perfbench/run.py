"""mmekit benchmark: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Run it from anywhere; it measures the source tree it sits in
(`<checkout>/src/mmekit`).  `--trace 0` runs the workload's job list
untraced and reports the end-to-end metrics; `--trace 1` first runs the
same list untraced in a child process, then traced in this process, and
reports the per-layer metrics.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.  The full record (inputs,
environment, per-job results) goes to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import checker  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_STARTS = 11  # cold interpreter starts per run; setup_s is their median
CAL_REF_S = 0.0005  # calibration kernel time that defines one reference second
CAL_EVERY_S = 0.05  # seconds between two calibration samples
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mmekit.cli as c; "
    "c.build_parser(); sys.exit(0 if c.__file__.startswith(sys.argv[1]) else 3)"
)
CHILD_TIMEOUT_S = 170

# Functions wrapped by the traced run: (module, function).  Each gives
# `<module>.<function>.calls` and `.busy_s` (self time).
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("modes", "project_level"),
    ("tgx", "enumerate_me_tuples"),
    ("tgx", "is_me_tuple"),
    ("tgx", "apply_lu"),
    ("mme", "max_mme_rank"),
    ("mme", "construct"),
    ("entcore", "lstar"),
    ("entcore", "ent_pure"),
    ("linalg", "mode_reduction_of_pure"),
    ("linalg", "mix"),
    ("verify", "min_avg_ent"),
    ("verify", "decompose"),
    ("verify", "average_ent"),  # DecompositionSample.average_ent
    ("verify", "haar_unitary"),
    ("verify", "reduction_purity_report"),
    ("mme", "compatible"),  # pair probe after the job list, traced alone
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import mmekit from this checkout's source tree, and only from it."""
    sys.path.insert(0, SRC)
    import mmekit
    from mmekit import cli, entcore, linalg, mme, modes, tgx, verify

    if not os.path.abspath(mmekit.__file__).startswith(SRC + os.sep):
        die(f"mmekit imported from {mmekit.__file__}, not from {SRC}")
    return types.SimpleNamespace(cli=cli, entcore=entcore, linalg=linalg, mme=mme,
                                 modes=modes, tgx=tgx, verify=verify)


def measure_setup() -> tuple[float, list[float]]:
    """Median time, in reference seconds, of fresh interpreters that
    import mmekit.cli and build the parser, after one untimed start.
    Also returns the raw wall times.  Calibration runs between starts
    only, so it never competes with a starting interpreter."""
    spans = []
    with SpeedClock(CAL_REF_S, None) as clock:
        for _ in range(SETUP_STARTS + 1):
            t0 = clock.now()
            proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC], cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=60)
            spans.append((t0, clock.now()))
            clock.sample()
            if proc.returncode != 0:
                die(f"setup start failed: {proc.stderr.decode(errors='replace')[-400:]}")
    spans = spans[1:]
    return (statistics.median(clock.scale(a, b) for a, b in spans),
            [b - a for a, b in spans])


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "threads": thread_count(),
    }


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mmekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_jobs(mk, jobs, refs, tracer=None) -> list[dict]:
    """Run the job list once, in order, checking each output as soon as
    its job ends and keeping only a summary per job.

    Times are taken on a SpeedClock and kept raw (`wall_s`, `cert_s`)
    and in reference seconds (`ref_wall_s`, `ref_cert_s`).  Neither
    checking nor calibration counts as job time.
    """
    summaries, intervals = [], []
    with SpeedClock(CAL_REF_S, CAL_EVERY_S) as clock:
        if tracer is not None:
            tracer.clock = clock.now
        for job in jobs:
            if tracer is not None:
                tracer.job = job["id"]
            t0 = clock.now()
            try:
                res = workloads.run_job(mk, job, clock.now)
            except Exception as exc:  # a failed job is counted, not fatal
                res = {"error": repr(exc)}
            t1 = clock.now()
            if tracer is not None:
                tracer.job = None
            intervals.append(((t0, t1), res.get("cert_at")))
            summaries.append({
                "id": job["id"], "wall_s": t1 - t0, "samples": res.get("samples"),
                "rc": res.get("rc"), "stdout_bytes": len(res.get("stdout", "")),
                "errors": check_job(job, res, refs) + thread_errors(),
            })
    for summary, (job_at, cert_at) in zip(summaries, intervals):
        summary["ref_wall_s"] = clock.scale(*job_at)
        summary["cert_s"] = cert_at[1] - cert_at[0] if cert_at else None
        summary["ref_cert_s"] = clock.scale(*cert_at) if cert_at else None
    return summaries


def thread_errors() -> list[str]:
    """The run must stay single-threaded: a thread left running by the
    program would also skew the calibration."""
    n = thread_count()
    return [f"{n} threads running after the job"] if n not in (None, 1) else []


def check_job(job, res, refs) -> list[str]:
    if "error" in res:
        return [f"raised {res['error']}"]
    kind = job["kind"]
    if kind in ("table", "rank", "tuples", "construct"):
        if res["rc"] != 0:
            return [f"exit code {res['rc']}: {res['stderr'][-200:]}"]
        if kind == "table":
            return checker.check_table(res["stdout"], refs["table"][job["ref"]])
        if kind == "rank":
            return checker.check_rank(res["stdout"], refs["rank"][job["ref"]])
        if kind == "tuples":
            return checker.check_tuples(res["stdout"], refs["tuples"][job["ref"]])
        return checker.check_construct(res["stdout"], job["dims"], job["tuples"],
                                       job["spectrum"])
    if kind == "grid":
        return checker.check_grid_cert(job["family"], job["lam"], res["min_avg"],
                                       res["samples"], workloads.GRID_POINTS)
    expected = (job["Dmax"] - job["Dmin"] + 1) * job["samples"]
    return checker.check_mme_cert(res["min_avg"], res["samples"], expected,
                                  res["max_deviation"])


def job_wall(summaries, scaled=True) -> float:
    """Time to finish the job list: the sum of its job times."""
    return sum(r["ref_wall_s" if scaled else "wall_s"] for r in summaries)


def end_to_end(summaries, failed, setup_s, scaled=True) -> dict:
    certs = [r for r in summaries if r["cert_s"] is not None]
    cert_s = [r["ref_cert_s" if scaled else "cert_s"] for r in certs]
    if len(cert_s) < 100:
        die(f"only {len(cert_s)} certificates; the p90 needs 100")
    q = statistics.quantiles(cert_s, n=100)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (job_wall(summaries, scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (1.0 - failed / len(summaries), "ratio"),
        "cert_p50_ms": (q[49] * 1e3, "ms"),
        "cert_p90_ms": (q[89] * 1e3, "ms"),
        "decomps_per_s": (sum(r["samples"] for r in certs) / sum(cert_s), "1/s"),
    }
    if setup_s is None:
        del metrics["setup_s"]
    return metrics


class LayerCounts:
    """Exact counts taken from the values the traced functions return."""

    def __init__(self, totals):
        self.totals = totals  # "dims|L" -> all ME tuples at that L
        self.tuples = 0
        self.bnb_nodes = 0
        self.streamed = 0
        self.stream_total = 0
        self.unknown_totals = []
        self.members = 0
        self.dropped = 0
        self.flops = 0
        self.bytes = 0

    def on_enumerate(self, out, args):
        self.tuples += len(out)

    def on_rank(self, report, args):
        self.bnb_nodes += report.nodes - report.tuple_count
        total = self.totals.get(f"{report.structure}|{report.L_used}")
        if total is None:
            self.unknown_totals.append(f"{report.structure}|{report.L_used}")
            return
        self.streamed += report.tuple_count
        self.stream_total += total

    def on_decompose(self, sample, args):
        # member formation: one (n x R) matvec and a renormalization per
        # kept member; the basis is read once and each member written once
        n, R = sample.structure.n, args[0].rank
        kept = sum(w is not None for w in sample.members)
        self.members += sample.D
        self.dropped += sample.D - kept
        self.flops += kept * (8 * n * R + 8 * n)
        self.bytes += 16 * n * R + 16 * n * kept

    def on_reduction(self, red, args):
        # A (n_m x n/n_m) times its adjoint: 8 n n_m flops; the state is
        # read once and the n_m x n_m reduction written once
        n, n_m = args[0].structure.n, red.shape[0]
        self.flops += 8 * n * n_m
        self.bytes += 16 * n + 16 * n_m * n_m


def run_untraced_child(args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--no-setup"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"untraced run failed: {proc.stderr.decode(errors='replace')[-400:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def per_layer(tracer, counts, summaries, untraced_wall, wall) -> dict:
    metrics = {}
    for mod, fn in LAYER_FUNCTIONS:
        name = f"{mod}.{fn}"
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.busy_s"] = (tracer.self_s(name), "s")
    metrics["cli.emit_bytes"] = (sum(r["stdout_bytes"] for r in summaries), "bytes")
    metrics["tgx.enumerate_me_tuples.tuples"] = (counts.tuples, "count")
    metrics["mme.bnb_nodes"] = (counts.bnb_nodes, "count")
    metrics["mme.stream_ratio"] = (
        counts.streamed / counts.stream_total if counts.stream_total else 0.0, "ratio")
    for name in ("verify.decompose", "entcore.ent_pure"):
        calls = tracer.calls(name)
        metrics[f"{name}.us_per_call"] = (
            tracer.total_s(name) / calls * 1e6 if calls else 0.0, "us")
    metrics["verify.decompose.members"] = (counts.members, "count")
    metrics["verify.decompose.members_dropped"] = (counts.dropped, "count")
    metrics["verify.kernel_flops_computed"] = (counts.flops, "flop")
    metrics["verify.kernel_bytes_computed"] = (counts.bytes, "bytes")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    return metrics


def probe_tuples(refs, workload):
    """(dims, tuples) groups whose pairs the compatible() probe visits."""
    if workload == "certify-haar":
        return list(refs["published_sets"].items())
    probe = refs["probe_tuples"][workload]
    return [(probe["dims"], probe["tuples"])]


def compatible_probe(mk, tracer, refs, workload) -> None:
    """Pairwise compatible() calls over the workload's tuples: the O(K^2)
    adjacency-build predicate, traced on its own after the job list."""
    groups = []
    for dims, levels in probe_tuples(refs, workload):
        s = mk.modes.parse_dims(dims)
        groups.append([mk.tgx.MeTgxTuple(s, t) for t in levels])
    tracer.install([(mk.mme, "compatible", "mme.compatible", None)])
    try:
        for ts in groups:
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    mk.mme.compatible([ts[i], ts[j]])
    finally:
        tracer.uninstall()


def trace_targets(mk, counts):
    hooks = {
        "tgx.enumerate_me_tuples": counts.on_enumerate,
        "mme.max_mme_rank": counts.on_rank,
        "verify.decompose": counts.on_decompose,
        "linalg.mode_reduction_of_pure": counts.on_reduction,
    }
    targets = []
    for mod, fn in LAYER_FUNCTIONS:
        name = f"{mod}.{fn}"
        if name == "mme.compatible":
            continue
        owner = mk.verify.DecompositionSample if name == "verify.average_ent" \
            else getattr(mk, mod)
        targets.append((owner, fn, name, hooks.get(name)))
    return targets


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--no-setup", action="store_true",
                    help="skip the setup_s starts (used by the traced run's child)")
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for w in workloads.WORKLOADS]
        return max(codes)
    if not os.path.isfile(os.path.join(SRC, "mmekit", "__init__.py")):
        die(f"no package source at {SRC}/mmekit")
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    jobs = workloads.generate(args.workload, args.seed, args.seconds, refs)

    setup_s, setup_samples = (None, [])
    child = None
    if args.trace:
        child = run_untraced_child(args)
    elif not args.no_setup:
        setup_s, setup_samples = measure_setup()

    mk = load_package()
    tracer = counts = None
    if args.trace:
        tracer = Tracer()
        counts = LayerCounts(refs["me_tuple_totals"])
        tracer.install(trace_targets(mk, counts))
    try:
        summaries = run_jobs(mk, jobs, refs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = sum(1 for r in summaries if r["errors"])

    if args.trace:
        tracer.job = None
        compatible_probe(mk, tracer, refs, args.workload)
        metrics = per_layer(tracer, counts, summaries,
                            child["metrics"]["wall_s"]["value"], job_wall(summaries))
        raw = {}
    else:
        metrics = end_to_end(summaries, failed, setup_s)
        raw = end_to_end(summaries, failed, statistics.median(setup_samples)
                         if setup_samples else None, scaled=False)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = failed == 0 and (child is None or child["correct"])
    certificates = sum(1 for r in summaries if r["cert_s"] is not None)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup_samples_s": setup_samples, "fail_ratio": failed / len(jobs),
        "certificates": certificates, "metrics": metrics,
        "raw_seconds_metrics": {k: v for k, (v, _) in raw.items()},
        "inputs": jobs, "results": summaries,
    }
    if args.trace:
        record["untraced"] = child
        record["spans_kept"] = len(tracer.spans)
        record["spans_dropped"] = tracer.dropped
        record["stream_totals_unknown"] = counts.unknown_totals
        tracer.write_spans(stem + "-spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for r in summaries:
        for err in r["errors"]:
            print(f"FAIL job {r['id']} ({jobs[r['id']]['kind']}): {err}")
    print(f"{args.workload} seed={args.seed} jobs={len(jobs)} failed={failed} "
          f"fail_ratio={failed / len(jobs)} certificates={certificates}")
    for name, m in metrics.items():
        note = f"  (raw {raw[name][0]:.6g})" if name in raw and raw[name][0] != m["value"] else ""
        print(f"  {name} = {m['value']} {m['unit']}{note}")
    print(f"  record: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

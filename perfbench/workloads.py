"""Seeded job lists for the four workloads, and the code that runs a job.

`generate(workload, seed, seconds, refs)` draws every input of a run (greedy
search seeds, spectra, local-unitary seeds, Haar stream keys) from the
seed alone, so the same seed gives the same job list.  No job repeats
within a list.  The package receives only these inputs: certificates
of search witnesses use the witnesses recorded in `references.json`,
not the witnesses the run itself returns.

`run_job(mk, job, clock)` executes one job through the package's public entry
points, reached as attributes of the `mk` module bundle at call time so
that the traced run can swap them for wrappers.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np

WORKLOADS = ("tables", "rank-large", "certify-grid", "certify-haar")

# Search jobs (argv without --seed); each argv string keys its reference.
SEARCH_JOBS = {
    "tables": [
        ("table", ["tables", "1"]),
        ("table", ["tables", "3"]),
        ("table", ["tables", "5", "--max-N", "7", "--search", "exhaustive"]),
        ("rank", ["rank", "3x3x3x3"]),
        ("rank", ["rank", "2x2x2x2x2", "--L", "6", "--search", "exhaustive"]),
    ],
    "rank-large": [
        ("rank", ["rank", "4x4x4x4"]),
        ("rank", ["rank", "2x2x2x2x3"]),
        ("rank", ["rank", "2x3x3x3"]),
        ("tuples", ["tuples", "2x2x2x2x3"]),
    ],
}

MIN_CERTS = 120  # certificates per run: >= 100, so the p90 has 10 beyond it

# The search workloads carry MIN_CERTS certificates of one recorded
# witness each, at D = R with the given number of Haar unitaries: one
# latency cluster, so the p50 and p90 never sit on a boundary between
# two, and certificates long enough (~12-20 ms) to be timed steadily.
WITNESS = {"tables": ("rank 3x3x3x3", 24), "rank-large": ("rank 4x4x4x4", 16)}

# Structures whose first PROBE_TUPLES ME tuples feed the traced run's
# pairwise `compatible` probe: the adjacency-build input of each search
# workload.  The certificate workloads probe the tuples they certify.
PROBE_STRUCTURES = {"tables": ("2x2x2x2x2", 6), "rank-large": ("2x2x2x2x3", 6),
                    "certify-grid": ("2^4", 2)}
PROBE_TUPLES = 64

GRID_FAMILIES = ("mme", "e_spacewise", "e_selfspace", "separable")
GRID_POINTS = 400  # the default 20 x 20 u2 grid
GRID_CERTS_PER_SECOND = 20  # calibrated: ~45 ms per grid certificate

# certify-haar: one round builds and certifies these published sets.
# Shares set the percentiles: the two cheap sets fill the bottom third,
# 2^4 the middle half (the p50), 2^6 the top sixth (the p90).
HAAR_ROUND = ["2^6", "2^4", "3x3x3", "2^4", "2x2x3x3", "2^4"]
HAAR_ROUNDS_PER_SECOND = 7  # calibrated: ~130 ms per round
HAAR_SAMPLES = 8  # Haar unitaries per D, D = R .. R + 2
HAAR_EXTRA_D = 2


def _search_jobs(workload, rng):
    jobs = []
    for kind, argv in SEARCH_JOBS[workload]:
        job = {"kind": kind, "argv": list(argv), "ref": " ".join(argv)}
        if kind != "tuples":
            job["argv"] += ["--seed", str(int(rng.integers(0, 2**31)))]
        jobs.append(job)
    return jobs


def _spectrum(rng, R):
    w = rng.dirichlet(np.full(R, 2.0))
    w = w / w.sum()
    return [float(x) for x in w]


def _lu_cert(rng, dims, tuples, Dmin, Dmax, samples, purity_D):
    return {
        "kind": "lu",
        "dims": dims,
        "tuples": [list(t) for t in tuples],
        "spectrum": _spectrum(rng, len(tuples)),
        "lu_seed": int(rng.integers(0, 2**31)),
        "Dmin": Dmin,
        "Dmax": Dmax,
        "samples": samples,
        "stream": int(rng.integers(0, 2**31)),
        "purity_D": purity_D,
    }


def generate(workload: str, seed: int, seconds: int, refs: dict) -> list[dict]:
    """The run's job list, in execution order; inputs only, no outputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs: list[dict] = []
    if workload in SEARCH_JOBS:
        search = _search_jobs(workload, rng)
        key, samples = WITNESS[workload]
        ref = refs["rank"][key]
        R = ref["R_MME"]
        certs = [_lu_cert(rng, ref["dims"], ref["witness"], R, R, samples, R)
                 for _ in range(MIN_CERTS)]
        # spread the certificates over the run, a share after each search,
        # so one slow spell of the host cannot hold a whole percentile
        share = MIN_CERTS // len(search)
        for i, job in enumerate(search):
            jobs.append(job)
            jobs += certs[i * share:(i + 1) * share]
    elif workload == "certify-grid":
        for i in range(max(MIN_CERTS, GRID_CERTS_PER_SECOND * seconds)):
            lam = float(rng.uniform(0.55, 0.95))
            jobs.append({"kind": "grid", "family": GRID_FAMILIES[i % 4], "lam": lam})
    else:
        for _ in range(max(MIN_CERTS // len(HAAR_ROUND), HAAR_ROUNDS_PER_SECOND * seconds)):
            for dims in HAAR_ROUND:
                tuples = refs["published_sets"][dims]
                R = len(tuples)
                cert = _lu_cert(rng, dims, tuples, R, R + HAAR_EXTRA_D,
                                HAAR_SAMPLES, R + 1)
                argv = ["construct", dims,
                        "--tuples", ";".join(",".join(map(str, t)) for t in tuples),
                        "--spectrum", ",".join(repr(w) for w in cert["spectrum"]),
                        "--lu-seed", str(cert["lu_seed"])]
                jobs.append({"kind": "construct", "argv": argv, "dims": dims,
                             "tuples": cert["tuples"], "spectrum": cert["spectrum"]})
                jobs.append(cert)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def run_job(mk, job: dict, clock=time.perf_counter) -> dict:
    """Execute one job; returns its raw outputs.

    CLI jobs capture stdout and stderr.  Certificate jobs report the
    `min_avg_ent` call's start and end on `clock` as `cert_at`: that
    call alone is the certificate latency.
    """
    kind = job["kind"]
    if kind in ("table", "rank", "tuples", "construct"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mk.cli.main(job["argv"])
        res = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    elif kind == "grid":
        state = mk.verify.comparison_family_spectral(job["family"],
                                                     (job["lam"], 1.0 - job["lam"]))
        c0 = clock()
        est = mk.verify.min_avg_ent(state, strategy="grid")
        res = {"cert_at": (c0, clock()), "min_avg": est.min_avg, "samples": est.samples}
    elif kind == "lu":
        s = mk.modes.parse_dims(job["dims"])
        lus = mk.verify.random_lu_set(s, job["lu_seed"])
        state, _ = mk.mme.construct(s, job["tuples"], job["spectrum"], lus)
        c0 = clock()
        est = mk.verify.min_avg_ent(state, strategy="random", Dmin=job["Dmin"],
                                    Dmax=job["Dmax"], samples=job["samples"],
                                    seed=job["stream"])
        cert_at = (c0, clock())
        spectral, _ = mk.verify.as_spectral(state)
        rng = np.random.default_rng([job["stream"], job["purity_D"]])
        sample = mk.verify.decompose(spectral,
                                     mk.verify.haar_unitary(job["purity_D"], rng))
        report = mk.verify.reduction_purity_report(sample)
        res = {"cert_at": cert_at, "min_avg": est.min_avg, "samples": est.samples,
               "max_deviation": report.max_deviation}
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return res

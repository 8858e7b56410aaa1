"""Seeded job lists for the two benchmark workloads, and their checks.

A job is one in-process call of ``cyclogab.cli.main(argv)``.  Inputs and the
expected answers come from the workload seed alone; expected verdicts and
dimensions are computed here by brute force over row subsets, never by the
code under test.  Shapes are fixed per workload so that every seed runs the
same mix and only the patterns, points and draw seeds change.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path

from cyclogab import GaloisContext, SupportSpec, construct, required_sample_size

EPSILON = "0.01"

# Each workload's pass takes 7 to 12 s on a 2-core machine.  Single job times
# spread up to 2x between the patterns of one shape, so a quantile that falls
# between two jobs of different shape jumps with the seed.  A pass of `sweep`
# therefore has four cost groups: cheap jobs, a block of five to
# seven around the median, three to five around the tail percentile (3 to 4
# jobs of a pass lie above it) and the two costliest jobs.  The blocks are
# mostly one shape of steady cost with different patterns, and the groups
# are at least 1.3x apart in cost, so both quantiles fall inside a block for
# every seed.  The groups alternate, so every block's samples spread over the
# whole run.


def _interleave(*groups):
    """Round-robin over the groups: g0[0], g1[0], ..., g0[1], g1[1], ..."""
    longest = max(len(g) for g in groups)
    return [g[i] for i in range(longest) for g in groups if i < len(g)]


# ("certify", p, k, n) re-certifies a stored result; k = 5 takes the Bareiss
# path (minors above 4x4).  ("subcode", p, k, n, L) builds the subcode of an
# infeasible pattern whose required dimension is L; larger n makes the rank
# sweep past s = k cost tens of seconds per job.
SWEEP_JOBS = _interleave([("certify", 11, 3, 6), ("subcode", 11, 2, 5, 3), ("certify", 13, 3, 6),
                          ("certify", 11, 3, 6), ("subcode", 11, 2, 5, 3), ("certify", 11, 3, 6),
                          ("certify", 11, 3, 6)],
                         [("certify", 13, 3, 7)] * 6 + [("certify", 11, 4, 7)],
                         [("certify", 13, 3, 8)] * 5,
                         [("certify", 11, 5, 6), ("subcode", 11, 3, 6, 5)])
# ("check", k, feasible) and ("oracle", k) jobs, in the same kind of cost
# groups: checks up to k = 11 and the k = 7 oracle; the median block of seven
# feasible k = 12 checks and the k = 8 oracle; k = 13 to 15 and the k = 9 and
# 10 oracles; the tail block of four feasible k = 16 checks and the k = 11
# oracle; and the k = 12 oracle and a feasible k = 18 check.  An infeasible
# k = 18 check would cost anywhere from a k = 16 to a k = 18 check, so there
# is none.
PATTERN_JOBS = _interleave(
    [("check", k, f) for k in range(7, 12) for f in (True, False)]
    + [("check", k, False) for k in range(8, 12)] + [("oracle", 7)],
    [("check", 12, True)] * 7 + [("oracle", 8)],
    [("check", 13, True), ("check", 13, False), ("check", 13, False), ("check", 14, True),
     ("check", 14, False), ("check", 15, True), ("check", 15, False), ("oracle", 9),
     ("oracle", 10)],
    [("check", 16, True)] * 4 + [("oracle", 11)],
    [("oracle", 12), ("check", 18, True)])

WORKLOADS = ("sweep", "patterns")


# -- independent pattern arithmetic ---------------------------------------

def _masks(zeros) -> list[int]:
    return [sum(1 << c for c in z) for z in zeros]


def brute_ell(k: int, zeros) -> int:
    """max over nonempty row sets of |common zero columns| + |rows|."""
    rows = _masks(zeros)
    inter = [0] * (1 << k)
    best = 0
    for mask in range(1, 1 << k):
        low = mask & -mask
        i = low.bit_length() - 1
        inter[mask] = rows[i] if mask == low else inter[mask ^ low] & rows[i]
        value = inter[mask].bit_count() + mask.bit_count()
        if value > best:
            best = value
    return best


def violates(k: int, zeros, omega) -> bool:
    """True iff the 1-based row set omega breaks the support condition."""
    common = set(zeros[omega[0] - 1])
    for i in omega[1:]:
        common &= set(zeros[i - 1])
    return len(common) + len(omega) > k


def det_nonzero_at(zeros, point) -> bool:
    """Whether the coefficient matrix of prod_{t in Z_i} (X - a_t) is
    nonsingular at the integer point, by Gaussian elimination over Q."""
    rows = []
    for z in zeros:
        coeffs = [Fraction(1)]
        for t in sorted(z):
            a = point[t - 1]
            lifted = [Fraction(0)] * (len(coeffs) + 1)
            for d, c in enumerate(coeffs):
                lifted[d + 1] += c
                lifted[d] -= c * a
            coeffs = lifted
        rows.append(coeffs)
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return True


# -- seeded pattern generators ----------------------------------------------

def _random_zeros(rng: random.Random, n: int, k: int, max_size: int, min_size: int = 0):
    return [sorted(rng.sample(range(1, n + 1), rng.randint(min_size, max_size)))
            for _ in range(k)]


def feasible_pattern(rng: random.Random, n: int, k: int, max_size: int,
                     min_size: int = 0, distinct: bool = False):
    while True:
        zeros = _random_zeros(rng, n, k, max_size, min_size)
        if distinct and len({tuple(z) for z in zeros}) < k:
            continue
        if brute_ell(k, zeros) <= k:
            return zeros


def pattern_with_ell(rng: random.Random, n: int, k: int, ell: int):
    while True:
        zeros = _random_zeros(rng, n, k, ell - 1)
        if brute_ell(k, zeros) == ell:
            return zeros


def planted_violation(rng: random.Random, n: int, k: int):
    """A feasible pattern whose last r rows then share k - r + 1 columns.

    The planted rows are the last ones so that the subset scan meets the
    violation at the same depth for every seed."""
    zeros = feasible_pattern(rng, n, k, k // 2 + 1, min_size=k // 2 - 1, distinct=True)
    r = rng.randint(2, 3)
    common = rng.sample(range(1, n + 1), k - r + 1)
    for i in range(k - r, k):
        zeros[i] = sorted(set(zeros[i]) | set(common))
    return zeros


# -- job lists ----------------------------------------------------------------

def _job(jid: str, kind: str, argv: list[str], out: bool, **expect) -> dict:
    return {"id": jid, "kind": kind, "argv": argv, "out": out, "expect": expect}


def make_jobs(workload: str, seed: int) -> tuple[list[dict], dict[str, dict]]:
    """Job list and the pattern files it reads (name -> pattern object).

    argv entries of the form ``@name`` are paths relative to the work
    directory; ``certify`` jobs read ``@<id>.result.json``, stored in set-up.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[dict] = []
    files: dict[str, dict] = {}

    def pattern_file(jid, n, k, zeros):
        files[f"{jid}.pattern.json"] = {"n": n, "k": k, "zeros": zeros}
        return f"@{jid}.pattern.json"

    if workload == "sweep":
        for idx, (kind, p, k, n, *ell) in enumerate(SWEEP_JOBS):
            jid = f"{kind[0]}{idx:02d}"
            if kind == "certify":
                zeros = feasible_pattern(rng, n, k, k - 1)
                pattern_file(jid, n, k, zeros)
                jobs.append(_job(jid, kind, ["certify", f"@{jid}.result.json"], True,
                                 n=n, k=k, p=p, zeros=zeros, build_seed=rng.randrange(10**6)))
            else:
                zeros = pattern_with_ell(rng, n, k, ell[0])
                argv = ["subcode", "--prime", str(p), "--zeros",
                        pattern_file(jid, n, k, zeros), "--epsilon", EPSILON,
                        "--seed", str(rng.randrange(10**6))]
                jobs.append(_job(jid, kind, argv, True, n=n, k=k, ell=ell[0], zeros=zeros))
    else:
        for idx, (kind, k, *feasible) in enumerate(PATTERN_JOBS):
            jid = f"{kind[0]}{idx:02d}"
            n = k + 4
            if kind == "check":
                zeros = (feasible_pattern(rng, n, k, k // 2 + 1, min_size=k // 2 - 1,
                                          distinct=True)
                         if feasible[0] else planted_violation(rng, n, k))
                argv = ["check", "--zeros", pattern_file(jid, n, k, zeros)]
                jobs.append(_job(jid, kind, argv, False, k=k, zeros=zeros,
                                 ell=brute_ell(k, zeros)))
            else:
                zeros = feasible_pattern(rng, n, k, k // 2, min_size=k // 2 - 2)
                argv = ["oracle", "--mode", "randomized", "--zeros",
                        pattern_file(jid, n, k, zeros), "--seed", str(rng.randrange(10**6))]
                jobs.append(_job(jid, kind, argv, False, n=n, k=k, zeros=zeros))
    return jobs, files


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def prepare(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the inputs of a workload into workdir and return its job list.

    For ``sweep`` this also builds the stored results that ``certify`` jobs
    read, with the library's own construction.
    """
    jobs, files = make_jobs(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, obj in files.items():
        (workdir / name).write_text(_dump(obj), encoding="utf-8")
    for job in jobs:
        if job["kind"] == "certify":
            store_result(job, workdir)
    return jobs


def store_result(job: dict, workdir: Path) -> None:
    """Build and write the stored result a ``certify`` job reads."""
    e = job["expect"]
    spec = SupportSpec(e["n"], e["k"], e["zeros"])
    s_size = required_sample_size(e["n"], e["k"], Fraction(EPSILON))
    result = construct(spec, GaloisContext(e["p"]), s_size, e["build_seed"]).to_obj()
    result["epsilon"] = EPSILON
    (workdir / f"{job['id']}.result.json").write_text(_dump(result), encoding="utf-8")


def dir_digest(workdir: Path) -> str:
    """sha256 over the names and bytes of the files directly in workdir."""
    h = hashlib.sha256()
    for path in sorted(p for p in workdir.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# -- execution ----------------------------------------------------------------

def resolve_argv(job: dict, workdir: Path) -> list[str]:
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in job["argv"]]
    if job["out"]:
        argv += ["--out", str(workdir / "out" / job["id"])]
    return argv


def clear_output(job: dict, workdir: Path) -> None:
    if job["out"]:
        shutil.rmtree(workdir / "out" / job["id"], ignore_errors=True)


def emitted_files(job: dict, workdir: Path) -> dict[str, bytes]:
    out = workdir / "out" / job["id"]
    if not job["out"] or not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def output_digest(job: dict, code, stdout: str, files: dict[str, bytes]) -> str:
    h = hashlib.sha256(f"{job['id']}\0{code}\0".encode() + stdout.encode())
    for name, data in files.items():
        h.update(b"\0" + name.encode() + b"\0" + data)
    return h.hexdigest()


def _zeros_hold(matrix: dict, zeros) -> bool:
    cols = matrix["cols"]
    return all(coeff == "0/1" for i, z in enumerate(zeros) for c in z
               for coeff in matrix["entries"][i * cols + c - 1])


def _check_certificate(cert: dict, distance: int) -> None:
    if cert["passed"] is not True:
        raise AssertionError("certificate did not pass")
    if cert["claimed_rank_distance"] != distance:
        raise AssertionError(f"claimed distance {cert['claimed_rank_distance']} != {distance}")
    if cert["hamming_distance"] != distance:
        raise AssertionError(f"hamming distance {cert['hamming_distance']} != {distance}")


def check_output(job: dict, code, stdout: str, stderr: str, files: dict[str, bytes]) -> None:
    """Raise AssertionError (or a parsing error) when a job's output is wrong."""
    e, kind = job["expect"], job["kind"]
    if kind == "check":
        feasible = e["ell"] <= e["k"]
        if code != (0 if feasible else 1):
            raise AssertionError(f"exit code {code}, expected {0 if feasible else 1}")
        report = json.loads(stdout)
        if report["condition"] is not feasible or report["ell"] != e["ell"]:
            raise AssertionError(f"verdict {report}, expected ell={e['ell']}")
        if not feasible and not violates(e["k"], e["zeros"], report["witness_omega"]):
            raise AssertionError(f"witness {report['witness_omega']} does not violate")
        return
    if code != 0:
        raise AssertionError(f"exit code {code}: {stderr.strip()[-200:]}")
    if kind == "oracle":
        report = json.loads(stdout)
        if not (report["condition"] and report["det_p_nonzero"]):
            raise AssertionError(f"oracle report {report}")
        completed = json.loads(stderr.split("pattern completed to", 1)[1].strip())
        if any(len(z) != e["k"] - 1 or not set(o) <= set(z)
               for z, o in zip(completed, e["zeros"])) or len(completed) != e["k"]:
            raise AssertionError("completion does not extend the pattern to k-1 zeros")
        if brute_ell(e["k"], completed) > e["k"]:
            raise AssertionError("completed pattern is infeasible")
        if len(report["witness_point"]) != e["n"] \
                or not det_nonzero_at(completed, report["witness_point"]):
            raise AssertionError("witness point does not make the determinant nonzero")
        return
    cert = json.loads(stdout)
    if json.loads(files["certificate.json"]) != cert:
        raise AssertionError("certificate.json differs from stdout")
    n, k = e["n"], e["k"]
    if kind == "certify":
        _check_certificate(cert, n - k + 1)
        if cert["checked_minors"] != math.comb(n, k):
            raise AssertionError(f"checked {cert['checked_minors']} minors, "
                                 f"expected C({n},{k}) = {math.comb(n, k)}")
    elif kind == "subcode":
        _check_certificate(cert, n - e["ell"] + 1)
        if cert["ell"] != e["ell"]:
            raise AssertionError(f"ell {cert['ell']}, expected {e['ell']}")
        if not _zeros_hold(json.loads(files["subcode.json"])["generator_sub"], e["zeros"]):
            raise AssertionError("a prescribed zero of the subcode is not exactly 0/1")
    else:
        raise ValueError(f"unknown job kind {kind!r}")

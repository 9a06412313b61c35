#!/usr/bin/env python3
"""End-to-end benchmark of the qsp subscription service.

Builds perfbench/qsp_perfbench from the checkout's sources into
.bench_build/, runs one workload, checks its answers and prints every
metric by name. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload round-sharded --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --sweep     # scaling sweep; not part of gated runs

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
through the SubscriptionService facade with no tracing. --trace 1 reports
the per-layer metrics from a separate traced run that drives the same
inputs through each module's public functions. See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "cmake"
RESULTS_DIR = OUT_DIR / "results"
BINARY = BUILD_DIR / "qsp_perfbench"
RUN_TIMEOUT_S = 170

# Fixed percentile ladder for tails: the reported tail is the highest rung
# with at least ten samples beyond it. Tails are reported, not gated.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark binary; build output goes to stderr."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "qsp_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def run_binary(args, out_path):
    subprocess.run([str(BINARY)] + args + ["--out", str(out_path)],
                   check=True, timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
    with open(out_path) as f:
        return json.load(f)


# --- statistics ------------------------------------------------------------

def percentile(samples, p):
    """Linear-interpolated percentile p (0..100) of a non-empty list."""
    xs = sorted(samples)
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_rung(n):
    """Highest ladder percentile with >= TAIL_MIN_BEYOND of n samples beyond
    it; None when even the median lacks that support."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def tail(samples):
    """(value, percentile, supported) of the tail rule; an unsupported tail
    falls back to the median."""
    rung = tail_rung(len(samples))
    if rung is None:
        return percentile(samples, 50.0), 50.0, False
    return percentile(samples, rung), rung, True


def median(samples):
    return percentile(samples, 50.0)


# --- metrics ---------------------------------------------------------------

def end_to_end(raw):
    """Metric values and the tails (reported, not gated) of one untraced
    run."""
    values = {
        "setup_s": median(raw["setup_s"]),
        "plan_s": median(raw["plan_s"]),
        "round_p50_ms": median(raw["round_ms"]),
        "placement_p50_ms": median(raw["placement_ms"]),
        "admit_ops_per_s": raw["admit_ops"] / raw["admit_seconds"],
        "plan_cost_ratio": raw["plan_cost_ratio"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    tails = {}
    for key in ("plan_s", "round_ms", "placement_ms"):
        value, p, supported = tail(raw[key])
        tails[key] = {"value": value, "percentile": p, "n": len(raw[key]),
                      "supported": supported}
    return values, tails


def per_layer(raw):
    values = dict(raw["layers"])
    values["failed_share"] = raw["failed"] / max(1, raw["attempted"])
    return values


# --- fingerprint and provenance --------------------------------------------

def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_fingerprint(key, fingerprint):
    """Exact-match check against earlier runs of the same build, workload
    and seed in this checkout. Returns the disagreeing counters."""
    path = RESULTS_DIR / "fingerprints.json"
    known = {}
    if path.exists():
        with open(path) as f:
            known = json.load(f)
    previous = known.get(key, {})
    mismatched = sorted(k for k in fingerprint
                        if k in previous and previous[k] != fingerprint[k])
    known[key] = {**previous, **fingerprint}
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    tmp.replace(path)
    return mismatched


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(raw):
    return {
        "commit": commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": raw["seed"],
        "threads": raw["threads"],
    }


# --- modes -----------------------------------------------------------------

def run_workload(spec, workload, seed, seconds, trace):
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        log(f"unknown workload {workload!r}; expected one of {names}")
        return 2
    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", "traced" if trace else "e2e"]
    if trace:
        args += ["--spans", str(RESULTS_DIR / f"{stem}-spans.jsonl")]
    raw = run_binary(args, RESULTS_DIR / f"{stem}-raw.json")

    errors = list(raw["harness_errors"])
    mismatched = check_fingerprint(f"{binary_digest()}/{workload}/{seed}",
                                   raw["fingerprint"])
    if mismatched:
        errors.append("fingerprint differs from an earlier run: " +
                      ", ".join(mismatched))
    if trace:
        values, tails = per_layer(raw), {}
        declared = spec["per_layer"]
    else:
        values, tails = end_to_end(raw)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    result = {
        "correct": not errors,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "provenance": provenance(raw),
        "tails": tails,
        "fingerprint": raw["fingerprint"],
        "failures": raw["failures"],
        "errors": errors,
    }
    with open(RESULTS_DIR / f"{stem}.json", "w") as f:
        json.dump({**detail, "result": result}, f, indent=1)
    for e in errors:
        log(f"check failed: {e}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def fit_exponent(sizes, values):
    """Least-squares slope of log(value) on log(size)."""
    pts = [(math.log(n), math.log(v)) for n, v in zip(sizes, values) if v > 0]
    if len(pts) < 2:
        return float("nan")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# stage -> the work counter that should scale with it
SWEEP_STAGES = {
    "merge.plan_s": "merge.candidates",
    "net.execute_s": "net.payload_rows",
    "net.broadcast_s": "net.headers_checked",
    "net.verify_s": "net.rows_examined",
}
SWEEP_SIZES = {
    "plan-unsharded": (1000, 2000, 4000),
    "round-sharded": (2000, 4000, 8000, 16000),
}


def run_sweep(seed):
    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    report = {}
    for workload, sizes in SWEEP_SIZES.items():
        rows = []
        for n in sizes:
            raw = run_binary(
                ["--workload", workload, "--seed", str(seed), "--queries",
                 str(n), "--mode", "traced"],
                RESULTS_DIR / f"sweep-{workload}-{n}.json")
            rows.append(raw["layers"])
            log(f"{workload} |Q|={n}: " + ", ".join(
                f"{s}={raw['layers'].get(s, 0):.4g}" for s in SWEEP_STAGES))
        fits = {}
        for stage, counter in SWEEP_STAGES.items():
            fits[stage] = {
                "wall_exponent": fit_exponent(sizes, [r.get(stage, 0) for r in rows]),
                "counter": counter,
                "counter_exponent": fit_exponent(sizes,
                                                 [r.get(counter, 0) for r in rows]),
            }
        report[workload] = {"sizes": list(sizes), "layers": rows, "fits": fits}
        print(f"\n{workload} (seed {seed}), sizes {list(sizes)}")
        print(f"  {'stage':<18}{'wall exp':>10}  {'counter':<22}{'counter exp':>12}")
        for stage, fit in fits.items():
            print(f"  {stage:<18}{fit['wall_exponent']:>10.2f}  "
                  f"{fit['counter']:<22}{fit['counter_exponent']:>12.2f}")
    with open(RESULTS_DIR / "sweep.json", "w") as f:
        json.dump(report, f, indent=1)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no qsp sources next to the benchmark (looked in {ROOT / 'src'})")
        return 2
    try:
        if args.sweep:
            return run_sweep(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(load_spec(), args.workload, args.seed,
                            args.seconds, args.trace)
    except subprocess.CalledProcessError as e:
        log(f"command failed with exit code {e.returncode}: {e.cmd}")
    except subprocess.TimeoutExpired as e:
        log(f"command timed out after {e.timeout} s: {e.cmd}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

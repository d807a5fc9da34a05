"""formaldiv benchmark: seeded CLI workloads, timed end to end, plus a
traced in-process replay for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload divide --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS

Each run builds a pool of distinct inputs from the seed.  With --trace 0
one client runs `python -m formaldiv.cli` subprocesses one at a time (a
closed loop), cycling through the pool for --seconds, and reports the
end-to-end metrics named in BENCHMARK.json.  With --trace 1 the pool is
replayed in-process through formaldiv.cli.run_command: once with call
counters, then each op plain and again with spans; the per-layer metrics
come from the counters and the spans.  Every output is checked by
perfbench/checks.py outside the timed region.  The last line of standard
output is one JSON object, whose `attempted` and `failed` count distinct
inputs, not calls; each run also writes a result file, with an
environment record, under .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("divide", "relations", "families")
OUT_DIR = ".perfbench_out"
# Distinct inputs per run.  A timed run cycles through them, so every run
# measures the same mix however fast it goes and repeats every input; a
# traced run replays them once.
POOL_SIZE = {"divide": 18, "relations": 18, "families": 20}

# What every CLI call pays before it computes: a fresh interpreter imports
# formaldiv.cli and parses its input files.
SETUP_CODE = (
    "import sys\n"
    "import formaldiv.cli\n"
    "from formaldiv import io\n"
    "for path in sys.argv[1:]:\n"
    "    io.parse_module_file(path)\n"
)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_sha(root):
    """HEAD of a git checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment(root, args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# subprocess runs
# ---------------------------------------------------------------------------

def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def closed_loop(pool, seconds, env, root, work):
    """Run loop.py over the pool for `seconds`; returns its result (see
    loop.py), which also holds the set-up samples."""
    job_path = os.path.join(work, "loop.job.json")
    result_path = os.path.join(work, "loop.result.json")
    with open(job_path, "w") as fh:
        json.dump({"ops": [[op.key, op.argv] for op in pool],
                   "setup": [[sys.executable, "-c", SETUP_CODE, *op.files] for op in pool],
                   "seconds": seconds, "cwd": root, "env": env, "outdir": work}, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "loop.py"),
                             job_path, result_path])
    try:
        code = proc.wait()
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"loop.py exited with {code}")
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def verify(results):
    """Check (op, exit code, output sha256, output) records outside any
    timed region; the output may be None for an input seen before.

    Returns (failed flags, wrong flags, failure reasons, checker self-test
    errors).  An op fails on a nonzero exit or timeout, on a failed output
    check, or when its output differs from an earlier run of the same input.
    It is also wrong when the output itself is shown wrong, that is, on any
    of these but an exit code or a verification the program reported as
    failed.
    """
    first_sha = {}
    verdict = {}
    failed, wrong, reasons = [], [], []
    for op, code, sha, output in results:
        why, shown_wrong = None, False
        if code != 0:
            why = f"exit {code}"
        else:
            if op.key not in verdict:
                verdict[op.key] = checks.check(op, output)
                first_sha[op.key] = sha
            if verdict[op.key]:
                why = verdict[op.key]
                shown_wrong = op.kind not in checks.SELF_REPORTED
            elif sha != first_sha[op.key]:
                why = "output differs from an earlier run of the same input"
                shown_wrong = True
        failed.append(why is not None)
        wrong.append(shown_wrong)
        if why:
            reasons.append(f"{op.key}: {why}")
    return failed, wrong, reasons, self_test(results, verdict)


def count_inputs(results, failed):
    """(distinct inputs run, distinct inputs with a failed call).  A timed
    run makes as many calls as its time allows, so the number of failed
    calls varies with the machine's pace; an input's outcome does not, so
    these counts are the same in every run of one seed."""
    bad = {r[0].key for r, f in zip(results, failed) if f}
    return len({r[0].key for r in results}), len(bad)


def self_test(results, verdict):
    """Feed each checker a corrupted copy of a correct output; a checker that
    accepts it cannot be trusted, and the run is marked incorrect."""
    errors = []
    tested = set()
    for op, code, _, output in results:
        if op.kind in tested or output is None or code != 0 or verdict.get(op.key):
            continue
        bad = checks.corrupt(op, output)
        if bad is None:
            continue
        tested.add(op.kind)
        if checks.check(op, bad) is None:
            errors.append(f"{op.kind} checker accepted a corrupted output of {op.key}")
    for kind in sorted({r[0].kind for r in results} - tested):
        errors.append(f"no {kind} output could be corrupted to test its checker")
    return errors


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def timed_run(workload, args, root, src, work):
    env = child_env(src)
    pool = workloads.build_pool(workload, args.seed, work, POOL_SIZE[workload])
    loop = closed_loop(pool, args.seconds, env, root, work)
    by_key = {op.key: op for op in pool}
    records, loaded = [], set()
    for key, code, _, _, _, sha in loop["runs"]:
        output = None
        if code == 0 and key not in loaded:
            loaded.add(key)
            with open(os.path.join(work, f"{key}.out"), "rb") as fh:
                output = fh.read()
        records.append((by_key[key], code, sha, output))
    failed, wrong, reasons, selftest = verify(records)
    runs = loop["runs"]
    walls = [r[2] for r in runs]
    n = len(runs)
    metrics = {
        "ops_per_s": ((n - sum(failed)) / loop["elapsed"], n),
        "latency_p50_s": (statistics.median(walls), n),
        "latency_p90_s": (statistics.quantiles(walls, n=10, method="inclusive")[8]
                          if n > 1 else walls[0], n),
        "cpu_s_per_op": (sum(r[3] for r in runs) / n, n),
        "setup_s": (statistics.median(loop["setup"]), len(loop["setup"])),
        "peak_rss_mb": (max(r[4] for r in runs), n),
    }
    return {
        "metrics": metrics,
        "shown": dict(metrics, failed_frac=(sum(failed) / n, n)),
        "inputs": count_inputs(records, failed), "wrong": any(wrong),
        "reasons": reasons, "selftest": selftest,
        "extra": {"elapsed_s": loop["elapsed"], "calls": n, "failed_calls": sum(failed),
                  "ops": [[key, wall, cpu] for key, _, wall, cpu, _, _ in runs]},
    }


def replay(op, work):
    """Run one op in-process through formaldiv.cli.run_command; returns its
    (op, exit code, output sha256, output) record and its wall time."""
    from formaldiv import cli

    out_path = os.path.join(work, "replay.out")
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.run_command([*op.argv, "--out", out_path])
        wall = time.perf_counter() - t0
    output = b""
    if code == 0:
        with open(out_path, "rb") as fh:
            output = fh.read()
    return (op, code, hashlib.sha256(output).hexdigest(), output), wall


def traced_run(workload, args, root, src, work):
    import tracing

    sys.path.insert(0, src)
    ops = workloads.build_pool(workload, args.seed, work, POOL_SIZE[workload])
    # the counting pass goes first and so also warms up the interpreter
    counter = tracing.Counter()
    with tracing.instrument(counter.wrapper, lambda name: True):
        counted = [replay(op, work) for op in ops]
    # each op runs plain and with spans back to back, so both runs meet the
    # same machine state; which goes first alternates between ops
    tracer = tracing.Tracer()
    plain, traced = [], []
    for k, op in enumerate(ops):
        tracer.op_id = k
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_spans:
                plain.append(replay(op, work))
                continue
            with tracing.instrument(tracer.wrapper, lambda name: name not in tracing.HOT):
                traced.append(replay(op, work))
    plain_walls = [w for _, w in plain]
    traced_walls = [w for _, w in traced]
    records = [r for r, _ in counted + plain + traced]
    failed, wrong, reasons, selftest = verify(records)
    values = tracing.layer_metrics(tracer, counter.counts)
    values["trace.overhead_frac"] = sum(traced_walls) / sum(plain_walls) - 1.0
    values["trace.span_errors"] = tracing.self_time_errors(tracer, traced_walls)
    spans_dir = os.path.join(root, OUT_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    tracer.write(os.path.join(spans_dir, f"{workload}-seed{args.seed}.jsonl.gz"))
    metrics = {k: (v, len(ops)) for k, v in values.items()}
    return {
        "metrics": metrics, "shown": metrics,
        "inputs": count_inputs(records, failed), "wrong": any(wrong),
        "reasons": reasons, "selftest": selftest,
        "extra": {"calls": len(records), "failed_calls": sum(failed),
                  "spans": len(tracer), "untraced_s": sum(plain_walls),
                  "traced_s": sum(traced_walls),
                  "call_counts": dict(sorted(counter.counts.items()))},
    }


def run_workload(workload, args, root, src, spec):
    work = os.path.join(root, OUT_DIR, f"work-{workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env_record = environment(root, args)
    try:
        body = traced_run if args.trace else timed_run
        out = body(workload, args, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env_record["loadavg_end"] = list(os.getloadavg())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    shown = out["shown"]
    print(f"== {workload} (seed {args.seed}, trace {args.trace}) ==")
    for name, (value, samples) in shown.items():
        print(f"  {name:40s} {value:14.6g} {units.get(name, 'frac'):6s} n={samples}")
    attempted, failed = out["inputs"]
    print(f"  inputs: {attempted} attempted, {failed} failed; calls: "
          f"{out['extra']['calls']}, {out['extra']['failed_calls']} failed")
    for line in out["reasons"][:20] + out["selftest"]:
        print(f"  FAIL {line}")

    record = {
        "workload": workload,
        "env": env_record,
        "correct": not out["wrong"] and not out["selftest"],
        "attempted": attempted,
        "failed": failed,
        "failures": out["reasons"],
        "checker_self_test": out["selftest"] or "every checker rejected its corrupted output",
        "metrics": {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"],
                                "samples": shown[m["name"]][1]} for m in wanted},
        "extra": out["extra"],
    }
    results_dir = os.path.join(root, OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two result files or directories of them")
    args = parser.parse_args(argv)
    # a terminated run still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "formaldiv", "cli.py")) \
            or not os.path.isfile(spec_path):
        print("error: run from the root of a formaldiv checkout "
              "(src/formaldiv and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.compare:
        return compare.main(spec, *args.compare)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args, root, src, spec) for w in chosen]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

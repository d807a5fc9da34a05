"""The timed closed loop, run in a lean interpreter of its own.

The kernel reports a child's max-RSS as at least the RSS of the process
that spawned it, so the children are spawned from here, a process that
imports only a few standard modules and keeps no outputs in memory, rather
than from the larger benchmark process.

    python3 loop.py JOB RESULT

JOB is a JSON object {"ops": [[key, argv], ...], "setup": [argv, ...],
"seconds", "cwd", "env", "outdir"}.  One client runs the ops in turn,
cycling, one subprocess at a time, until `seconds` have passed.  After
every SETUP_EVERY ops it also runs the next set-up command, so the set-up
samples spread over the whole run.  `seconds` covers both; the set-up time
is left out of `elapsed`.
RESULT receives {"elapsed": s, "runs": [[key, code, wall_s, cpu_s,
maxrss_mb, sha256], ...], "setup": [wall_s, ...]}.  The first output of
each key with exit code 0 is kept as OUTDIR/<key>.out for the output
checks.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time

OP_TIMEOUT_S = 60.0
SETUP_EVERY = 4


def run_child(argv, env, cwd, stdout_path, stderr_path, timeout=OP_TIMEOUT_S):
    """Run argv to completion; returns (code, wall, cpu, maxrss_mb).  A child
    still running after `timeout` seconds is killed and gets code "timeout"."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = "timeout" if wall >= timeout else proc.returncode
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    out_path = os.path.join(job["outdir"], "op.out")
    err_path = os.path.join(job["outdir"], "op.err")
    runs, setup = [], []
    kept = set()
    setups = itertools.cycle(job["setup"])
    t0 = time.perf_counter()
    deadline = t0 + job["seconds"]
    for key, argv in itertools.cycle(job["ops"]):
        if time.perf_counter() >= deadline:
            break
        code, wall, cpu, rss = run_child([sys.executable, "-m", "formaldiv.cli", *argv],
                                         job["env"], job["cwd"], out_path, err_path)
        with open(out_path, "rb") as fh:
            output = fh.read()
        if code == 0 and key not in kept:
            kept.add(key)
            os.replace(out_path, os.path.join(job["outdir"], f"{key}.out"))
        runs.append([key, code, wall, cpu, rss, hashlib.sha256(output).hexdigest()])
        if len(runs) % SETUP_EVERY == 1:
            code, wall, _, _ = run_child(next(setups), job["env"], job["cwd"],
                                         out_path, err_path)
            if code != 0:
                sys.exit(f"set-up command exited with {code}")
            setup.append(wall)
    elapsed = time.perf_counter() - t0 - sum(setup)
    with open(result_path, "w") as fh:
        json.dump({"elapsed": elapsed, "runs": runs, "setup": setup}, fh)


if __name__ == "__main__":
    # a terminated loop still kills its child before it exits
    import signal

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    main(*sys.argv[1:])

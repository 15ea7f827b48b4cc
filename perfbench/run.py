"""Benchmark of the adaptive loop: one workload, several fresh-process rounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each round is one new process (see
``round.py``) that sets up the workload and runs ``safem_run`` to its
element cap.  The first round checks the outputs; a later round whose
outputs are bit for bit those of a checked round skips the checks, and
any other runs them.  A round starts only while it can end within S
seconds; every metric is the median over the rounds.  The end-to-end
times are CPU times of the round process scaled to a reference speed
by a calibration computation timed in the same process (see
``round.calibrate``).  With ``--trace 0`` the rounds run the program
untouched and the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced rounds alternate; the per-layer metrics come from
the traced round of median wall time, and ``trace.overhead_s`` is its
wall time minus the untraced median.  The last line of standard output
is one JSON object; a copy and the traced rounds' per-level spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0


def round_env():
    """One thread in every BLAS/OpenMP pool of a round.

    A second BLAS thread buys the loop no wall time, and its spinning
    would count in the round's CPU time.
    """
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_round(workload, seed, traced, index, deadline, checked):
    trace_file = OUT / f"trace-{workload}-seed{seed}-round{index}.jsonl"
    argv = [sys.executable, str(HERE / "round.py"), workload, str(seed)]
    argv += ["1" if traced else "0", str(trace_file), checked or "-"]
    proc = subprocess.run(
        argv, cwd=ROOT, env=round_env(), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round {index} of {workload} exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = traced
    for err in out["errors"]:
        print(f"round {index}: check failed: {err}", file=sys.stderr)
    return out


def main():
    # turn SIGTERM into an exception, so that subprocess.run kills and
    # waits for the running round before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sepfem" / "__init__.py").is_file():
        ap.exit(2, f"{ROOT / 'src' / 'sepfem'} not found: run from a checkout of the repository\n")
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    rounds, last = [], 0.0
    checked = None  # fingerprint of the first round that passed its checks
    # a round starts only if it would end within --seconds, judged by
    # the round before it; in a traced run, rounds alternate
    # untraced, traced, ..., and at least one round of each kind runs
    while (
        time.monotonic() - start + last <= args.seconds
        or not rounds
        or (args.trace and len(rounds) < 2)
    ):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        began = time.monotonic()
        r = run_round(args.workload, args.seed, traced, len(rounds), deadline, checked)
        if checked is None and r.get("checked") and not r["errors"]:
            checked = r["fingerprint"]
        last = time.monotonic() - began
        rounds.append(r)
        print(
            f"round {len(rounds) - 1}{' traced' if traced else ''}: levels {r['attempted']} "
            f"failed {r['failed']}{'' if r.get('checked', True) else ' (outputs equal a checked round)'}"
            + (
                f" wall {r['run_s']:.3f} s, CPU {r['run_cpu_s']:.3f} s, calibration {r['cal_s']:.3f} s,"
                f" run_ref_s {r['run_ref_s']:.3f}, setup_s {r['setup_s']:.3f}"
                if "run_s" in r else ""
            )
        )

    measured = [r for r in rounds if "run_s" in r]
    plain = [r for r in measured if not r["traced"]]
    if args.trace:
        traced = sorted((r for r in measured if r["traced"]), key=lambda r: r["run_s"])
        if not traced or not plain:
            raise SystemExit("no traced and untraced round completed")
        chosen = traced[(len(traced) - 1) // 2]
        values = dict(chosen["layers"])
        values["trace.run_s"] = chosen["run_s"]
        values["trace.overhead_s"] = chosen["run_s"] - statistics.median(r["run_s"] for r in plain)
        declared = spec["per_layer"]
    else:
        if not plain:
            raise SystemExit("no round completed")
        values = {k: statistics.median(r[k] for r in plain) for k in ("run_ref_s", "setup_s", "peak_rss_mb", "fitted_s")}
        values["elements_per_s"] = statistics.median(r["elements_total"] for r in plain) / values["run_ref_s"]
        declared = spec["end_to_end"]

    result = {
        "correct": all(not r["errors"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)


if __name__ == "__main__":
    main()

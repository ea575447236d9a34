#!/usr/bin/env python3
"""Entry point of the layered benchmark; README.md beside this file has
the workloads and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py compare BASE.jsonl [NEW.jsonl]

Run it from the root of a checkout.  It builds the benchmark program and
rotary_cli from source with dune (build directory: $CARGO_TARGET_DIR, else
.bench_build), runs one workload in a fresh process and passes its output
through: the last stdout line is the JSON result.  Above it, a "stamp" line
records git rev, nproc, CPU model, OCaml version and job count; --out FILE
appends the stamped result as one JSON line, the input of `compare`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("paper_flow", "scale_100k", "serve_mixed")
JOBS = {
    "paper_flow": "jobs=2",
    "scale_100k": "jobs=2",
    "serve_mixed": "2 worker processes x 1 scheduler domain",
}
# A run must end within 180 s; a hung one is killed before that.
RUN_TIMEOUT_S = 170


def build(bdir):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.exit("run.py: not the root of a rotary-clock checkout (dune-project, lib/ or bin/ missing)")
    tmp = os.path.abspath(os.path.join(bdir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    # keep every build artefact and temporary file inside the checkout
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        TMPDIR=tmp,
        XDG_CACHE_HOME=os.path.abspath(os.path.join(bdir, "cache")),
    )
    cmd = ["dune", "build", "--build-dir", bdir, "--display", "quiet",
           "./perfbench/perfbench.exe", "./bin/rotary_cli.exe"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return env


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def stamp(workload):
    rev = "unknown"
    if os.path.isdir(".git"):
        rev = command_output(["git", "--git-dir=.git", "rev-parse", "HEAD"])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ocaml": command_output(["ocaml", "-vnum"]),
        "jobs": JOBS[workload],
    }


def kill_leftover_server(run_dir):
    """The program removes the pid file once it has stopped its server;
    a file still there means the program was killed first."""
    try:
        with open(os.path.join(run_dir, "supervisor.pid")) as f:
            os.killpg(int(f.read().strip()), signal.SIGKILL)
    except (OSError, ValueError):
        pass


def run(args):
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = build(bdir)
    run_dir = os.path.join(".bench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "default", "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(bdir, "default", "bin", "rotary_cli.exe"),
           "--run-dir", run_dir]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        sys.stderr.write(out)
        sys.exit("run.py: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        kill_leftover_server(run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        sys.exit("run.py: the program printed no result (exit code %d)" % proc.returncode)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("run.py: the program exited with code %d" % proc.returncode)
    st = stamp(args.workload)
    if args.out:
        record = {"stamp": st, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "result": result}
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print("\n".join(lines[:-1]))
    print("stamp " + json.dumps(st))
    print(lines[-1], flush=True)


# ---- compare -------------------------------------------------------------

def load(path):
    """{workload: {"values": {metric: [v...]}, "attempted": n, "failed": n,
    "stamps": set}} from the untraced records of a results file."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace") != 0:
                continue
            w = out.setdefault(rec["workload"], {"values": {}, "attempted": 0, "failed": 0, "stamps": set()})
            res = rec["result"]
            w["attempted"] += res["attempted"]
            w["failed"] += res["failed"]
            w["stamps"].add(json.dumps(rec["stamp"], sort_keys=True))
            for name, m in res["metrics"].items():
                w["values"].setdefault(name, []).append(m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(args):
    with open("BENCHMARK.json") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base = load(args.base)
    new = load(args.new) if args.new else None
    for workload in sorted(base):
        b = base[workload]
        print("%s  (fail_frac %d/%d)" % (workload, b["failed"], b["attempted"]))
        for s in sorted(b["stamps"]):
            print("  base stamp " + s)
        if new and workload in new:
            n = new[workload]
            print("  new  fail_frac %d/%d" % (n["failed"], n["attempted"]))
            for s in sorted(n["stamps"]):
                print("  new  stamp " + s)
        for name, m in spec.items():
            vals = b["values"].get(name)
            if not vals:
                continue
            med, q1, q3, spread = summary(vals)
            row = "  %-12s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.1f%% bound %3.0f%%" % (
                name, len(vals), med, q1, q3, 100 * spread, 100 * m["bound"])
            verdict = "unresolved" if spread > m["bound"] else "steady"
            if new and workload in new and new[workload]["values"].get(name):
                nmed, _, _, nspread = summary(new[workload]["values"][name])
                delta = (nmed - med) / med
                worse = delta if m["better"] == "lower" else -delta
                if max(spread, nspread) > m["bound"]:
                    verdict = "unresolved"
                elif worse > m["bound"]:
                    verdict = "REGRESSED"
                else:
                    verdict = "within bound"
                row += "  new median %-12.6g delta %+6.1f%%" % (nmed, 100 * delta)
            print(row + "  " + verdict)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new", nargs="?")
        compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    run(p.parse_args())


if __name__ == "__main__":
    main()

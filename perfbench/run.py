#!/usr/bin/env python3
"""Build and run the sertool end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

It builds perfbench/perfbench.exe and bin/sertool.exe from source with
dune (all output stays in the checkout), then runs the benchmark, whose
last stdout line is the JSON result. The exit code is non-zero, and no
result is printed, when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

OUT = ".perfbench"
EXE = "_build/default/perfbench/perfbench.exe"
SERTOOL = "_build/default/bin/sertool.exe"
WORKLOADS = ("sweep", "serve-mix")


def source_digest():
    """SHA-256 prefix over the build inputs of the benchmark and the
    program, so a result can be tied to the code it measured even outside
    a git checkout."""
    h = hashlib.sha256()
    paths = ["dune-project"] + sorted(
        os.path.join(d, f)
        for top in ("lib", "bin", "perfbench")
        for d, _, fs in os.walk(top)
        for f in fs
        if f == "dune" or f.endswith((".ml", ".mli", ".c", ".h")))
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(".git"):
        return "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    # keep the compilers' and the runtime's scratch files in the checkout
    tmp = os.path.abspath(os.path.join(OUT, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(tmp, "xdg-cache"))
    # dune from PATH, else through the opam switch
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "./perfbench/perfbench.exe",
                    "./bin/sertool.exe"],
            capture_output=True, text=True, env=env, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: cannot build: %s\n" % e)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        sys.stderr.write("perfbench: build failed\n")
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sertool", SERTOOL, "--out", OUT, "--rev", git_rev(),
           "--source-digest", source_digest()]
    # Own process group, so a timeout also stops the serve daemon the
    # benchmark started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded 170 s\n")
        return 1
    sys.stderr.write(err)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.stderr.write("perfbench: run failed with code %d\n" % proc.returncode)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

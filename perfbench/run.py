#!/usr/bin/env python3
"""Build and run the STOREL benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run compiles the engine
sources (src/main/scala) together with the benchmark program
(perfbench/src) with sbt, into .bench_build/; later runs reuse that build
until a source file changes. Each run then starts one JVM, which prints
its progress and, as the last line of standard output, one JSON object
with the run's metrics. A detailed report of every program and pass is
written under .bench_build/perfbench/reports/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENGINE_SRC = os.path.join(ROOT, "src", "main", "scala")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compile-table4", "sweep-formats", "exec-scaled")

# One JVM, one benchmark thread: the serial collector adds no GC threads.
# The heap covers the largest workload (sweep-formats' dense MMM allocates
# about 3.4 GB per execution, most of it short-lived); the stack size
# matches the one the sbt build gives its tests.
JVM_OPTIONS = ["-Xmx3g", "-Xss256m", "-XX:+UseSerialGC"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [ENGINE_SRC, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for root in roots:
        for d, _, names in os.walk(root):
            files += [os.path.join(d, n) for n in names if n.endswith((".scala", ".java"))]
    return sorted(files)


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        opts = ["-Xmx2g"]
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true",
                     f"-Dsbt.repository.config={repos}", "-Dsbt.offline=true"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def build():
    """Returns the runtime classpath, compiling first if sources changed."""
    stamp_file = os.path.join(OUT, "build.stamp")
    cp_file = os.path.join(OUT, "classpath.txt")
    stamp = source_stamp()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    os.makedirs(OUT, exist_ok=True)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"sbt build did not finish within {BUILD_TIMEOUT_S} s")
    sys.stderr.write(proc.stdout)
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"sbt build failed (exit {proc.returncode})")
    cp = lines[-1]
    if not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        fail("sbt did not print a usable classpath")
    with open(cp_file, "w") as f:
        f.write(cp + "\n")
    with open(stamp_file, "w") as f:
        f.write(stamp + "\n")
    return cp


def stop_on_signal(signum, _frame):
    # turns SIGTERM into an exception, so that the child processes are
    # stopped and waited for on the way out
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isdir(ENGINE_SRC):
        fail(f"engine sources not found at {os.path.relpath(ENGINE_SRC, ROOT)}; "
             "run from the root of a full checkout")
    cp = build()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else shutil.which("java")
    if not java or not os.path.exists(java):
        fail("java not found")
    report = os.path.join(OUT, "reports", f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    cmd = [java, *JVM_OPTIONS, "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--report", report]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        fail(f"benchmark JVM exited with {code}")


if __name__ == "__main__":
    main()

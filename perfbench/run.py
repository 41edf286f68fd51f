#!/usr/bin/env python3
"""tripQuery benchmark: builds the program from the checkout's sources and runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run in a checkout compiles the
program and the benchmark with sbt and caches the resulting classpath in
`.bench_build/`, keyed by a hash of every source and build file; later runs
start the JVM directly. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the exit code is
non-zero when any query failed or the program could not be built.

`setup_s` is the median set-up time of several fresh JVMs: the measuring JVM
plus `SETUP_JVMS` processes that only set up.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SETUP_JVMS = 2
# One fixed, pre-touched heap on transparent huge pages for every run: fewer
# TLB misses made run-to-run spread smaller on a shared 4-vCPU VM. The parallel
# collector keeps pauses short; two collector threads leave the processors to
# the throughput clients. -Xbatch compiles in the foreground, so what the JIT
# compiles no longer depends on how far the program ran while a compilation was
# queued (run-to-run differences of 30 % from that alone). No perf-data file, so
# the JVM writes nothing outside the checkout.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
            "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-Xbatch", "-XX:-UsePerfData"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file whose change must trigger a rebuild, in a stable order."""
    roots = [os.path.join(ROOT, d) for d in ("src/main", "jobs", "project")]
    roots += [os.path.join(HERE, d) for d in ("src", "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt"),
             os.path.join(ROOT, "src/test/scala/repro/testutil/Fixtures.scala")]
    for r in roots:
        for dirpath, dirnames, names in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, n) for n in sorted(names)
                      if n.endswith((".scala", ".sbt", ".properties", ".java"))]
    return files


def classpath():
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail(f"no program sources next to the benchmark (expected {ROOT}/build.sbt "
             "and src/main/scala); run from a full checkout")
    h = hashlib.sha256()
    for f in sources():
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    stamp = h.hexdigest()
    os.makedirs(CACHE, exist_ok=True)
    stamp_file = os.path.join(CACHE, "stamp")
    cp_file = os.path.join(CACHE, "classpath")
    if os.path.isfile(stamp_file) and os.path.isfile(cp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    log = os.path.join(CACHE, "sbt.log")
    with open(log, "w") as out:
        try:
            p = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                                "perfbench/writeClasspath"],
                               cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out after {BUILD_TIMEOUT_S} s; see {log}")
    built = os.path.join(HERE, "target", "bench-classpath")
    if p.returncode != 0 or not os.path.isfile(built):
        with open(log) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        fail(f"build failed (sbt exit {p.returncode}); see {log}")
    with open(built) as fh:
        cp = fh.read().strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


def jvm(cp, args):
    """Run the benchmark JVM once; returns (stdout lines, parsed last line, exit code)."""
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    try:
        p = subprocess.run([java, *JVM_OPTS, "-cp", cp, "repro.perfbench.Main", *args],
                           cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark JVM timed out after {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    try:
        return lines[:-1], json.loads(lines[-1]), p.returncode
    except (IndexError, ValueError):
        fail(f"benchmark JVM exited {p.returncode} without a result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--scale", default="bench", choices=["bench", "test"],
                    help="data set size; 'test' is the small self-test scale")
    a = ap.parse_args()
    cp = classpath()
    base = ["--workload", a.workload, "--seed", str(a.seed), "--scale", a.scale]
    lines, result, code = jvm(cp, base + ["--seconds", str(a.seconds), "--trace", a.trace])
    if a.trace == "0" and code == 0:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_JVMS):
            _, r, c = jvm(cp, base + ["--seconds", "0", "--trace", "0", "--setup-only"])
            if c != 0:
                fail("set-up-only run failed")
            setups.append(r["metrics"]["setup_s"]["value"])
        print(f"# setup_s samples: {' '.join(f'{s:.3f}' for s in setups)}")
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print("\n".join(lines))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()

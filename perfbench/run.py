#!/usr/bin/env python3
"""Run one benchmark workload of the PRoST engine and print its result.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload star --seed 1 --seconds 12 --trace 0

The first call builds the engine and the benchmark from source with sbt
into `.bench_build/`; later calls reuse that build while no source file is
newer. Each run then starts one JVM, generates its inputs from the seed,
measures, checks every answer against DuckDB and prints, as the last line
of standard output, one JSON object with `correct`, `attempted`, `failed`
and `metrics`. See perfbench/README.md for the metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    for top in (os.path.join(ROOT, "src", "main"), BENCH):
        for dirpath, dirs, names in os.walk(top):
            dirs[:] = [d for d in dirs if d != "target"]
            for n in names:
                if n.endswith((".scala", ".sbt", ".properties")):
                    yield os.path.join(dirpath, n)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            fail("SPARK_HOME is not set and spark-submit is not on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not os.path.isdir(os.path.join(home, "jars")):
        fail(f"no Spark jars under {home}")
    return home


def build(env):
    newest = max(os.path.getmtime(p) for p in sources())
    if os.path.exists(CLASSPATH) and os.path.getmtime(CLASSPATH) >= newest:
        return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    # Resolve offline, from the repositories configured for sbt itself, and
    # keep sbt's temporary files inside the build directory.
    tmp = os.path.join(BUILD, "sbt-tmp")
    os.makedirs(tmp, exist_ok=True)
    opts = env.get("SBT_OPTS", "")
    for flag in ("-Dsbt.override.build.repos=true", "-Dsbt.offline=true", "-XX:-UsePerfData",
                 f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}"):
        if flag.split("=")[0] not in opts:
            opts += " " + flag
    benv = dict(env, SBT_OPTS=opts.strip(), JAVA_TOOL_OPTIONS="-XX:-UsePerfData")
    benv.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}", "exportClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    try:
        done = subprocess.run(cmd, cwd=BENCH, env=benv, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(CLASSPATH):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("run from the root of a PRoST checkout (src/main/scala/repro is missing)")
    env = dict(os.environ, SPARK_HOME=spark_home())
    build(env)
    with open(CLASSPATH) as f:
        classpath = f.read().strip()

    run_dir = os.path.join(BUILD, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    trace_out = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
    # Spark's scratch space and the JVM's temp files stay inside the run directory.
    jenv = dict(env, SPARK_LOCAL_DIRS=tmp)
    cmd = ["java", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(run_dir, 'warehouse')}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", os.path.join(run_dir, "data"), "--trace-out", trace_out]
    proc = subprocess.Popen(cmd, cwd=run_dir, env=jenv, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with code {proc.returncode}")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()

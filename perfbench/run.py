#!/usr/bin/env python3
"""Build `same` and the benchmark driver from source, then run one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload edit-loop|cold-analysis|fault-tree \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build (dune release profile, shared cache off, so
nothing is written outside the checkout), in two steps: the checkout's own
project (the `same` binary and the public `decisive.*` libraries), then the
driver in perfbench/driver, a dune project of its own built against those
installed libraries.  The driver and everything it
starts are pinned to one CPU: each op hands control between the load
generator and the system under test, and on a shared two-vCPU host
cross-CPU wake-ups made edit-loop range 118-178 ops/s over three runs,
against 194-206 ops/s pinned.  The last line of standard
output is the driver's JSON result; build output goes to standard error.
Exits non-zero without a result when the checkout has no sources to build.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
SOURCES = ["dune-project", "bin/same.ml", "lib", "perfbench/driver/dune-project"]


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        candidate = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(candidate, os.X_OK):
            return candidate
    return None


def run_group(argv, env, timeout):
    """Run argv in its own process group; kill the whole group on timeout
    or on SIGTERM, so no child (such as a daemon) outlives the run."""
    proc = subprocess.Popen(argv, env=env, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(4)

    signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: timed out after %d s\n" % timeout)
        stop()
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: not a source checkout (missing %s)\n" % ", ".join(missing))
        return 2
    dune = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found\n")
        return 2
    root = os.getcwd()
    env = dict(os.environ)
    env.update(
        SAME_JOBS="1",
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(root, BUILD_DIR, "xdg-cache"),
        PATH=os.path.dirname(dune) + os.pathsep + env.get("PATH", ""),
    )
    build_root = os.path.join(root, BUILD_DIR)
    os.makedirs(build_root, exist_ok=True)
    steps = [
        ["--root", ".", "--build-dir", os.path.join(build_root, "same")],
        ["--root", "perfbench/driver", "--build-dir", os.path.join(build_root, "driver")],
    ]
    env["OCAMLPATH"] = os.pathsep.join(
        [os.path.join(build_root, "same", "install", "default", "lib")]
        + [p for p in [env.get("OCAMLPATH")] if p])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        build = subprocess.run([dune, "build"] + step + ["--profile", "release", "@install"],
                               env=env, stdout=sys.stderr, timeout=deadline - time.monotonic())
        if build.returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return 3
    exe = os.path.join(build_root, "driver", "install", "default", "bin", "perfbench")
    same = os.path.join(build_root, "same", "install", "default", "bin", "same")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    return run_group([exe, "--same", same] + sys.argv[1:], env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())

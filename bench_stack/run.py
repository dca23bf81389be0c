#!/usr/bin/env python3
"""Build and run the repository benchmark (BENCHMARK.json at the repo root).

    python3 bench_stack/run.py --workload NAME --seed N --seconds S --trace 0|1
                               [--out DIR]

Run from the root of a checkout. The first run configures and builds
bench_stack/ (which compiles the library sources under src/) into
$CARGO_TARGET_DIR, default .bench_build/; later runs only rebuild what
changed. Build output goes to stderr, so the benchmark's result object
stays the last line of stdout. Each run also writes its full record
(provenance, metrics, run details) as BENCH_stack_<workload>_s<seed>_t<trace>.json
under --out (default .bench_results/); compare.py diffs two such sets.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"bench_stack: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """sha256 over every file the benchmark binary is built from."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "bench", "bench_util.hpp")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            files.extend(os.path.join(dirpath, f) for f in filenames
                         if not f.endswith(".pyc"))
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "bench_stack")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", default=".bench_results")
    args = parser.parse_args()

    for needed in ("src/svc/service.hpp", "bench/bench_util.hpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    out_dir = os.path.join(ROOT, args.out)
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--source-hash", source_hash()]
    proc = subprocess.Popen(cmd, cwd=out_dir)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()

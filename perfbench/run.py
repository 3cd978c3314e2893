#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source, runs one workload,
checks its outputs and prints the metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fig2-serial, shuffle-large, traced-mix (see README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is one JSON object:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
The exit code is non-zero when the build, the run or the correctness gate
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("fig2-serial", "shuffle-large", "traced-mix")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# The whole command must end within 180 s once built.
DRIVER_TIMEOUT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver. Output goes to stderr so the
    benchmark's stdout stays the report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: repository sources (src/) not found; cannot build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_driver(args):
    """Runs the driver; returns its raw document or None."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TSX_")}
    cmd = [DRIVER, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        # On timeout the driver is killed and waited for before this raises.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver killed after {DRIVER_TIMEOUT_S:.0f} s")
        return None
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return None
    return json.loads(proc.stdout)


def source_digest():
    """sha256 over the program and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def report(args, raw):
    prov = raw["provenance"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"provenance: nproc={prov['nproc']} task_threads={prov['task_threads']} "
          f"contrast_threads={prov['contrast_threads']} "
          f"build={prov['build_type']} flags='{prov['cxx_flags'].strip()}' "
          f"ndebug={prov['ndebug']} optimized={prov['optimized']} "
          f"compiler='{prov['compiler']}' git={git_commit()} "
          f"src_digest={source_digest()} seed={args.seed}")
    print(f"sim_digest: {metrics.sim_digest(raw)} "
          f"({len(raw['passes'])} passes; simulated outputs must match byte for byte)")
    for label in raw["excluded"]:
        print(f"excluded (known program defect, not measured): {label}")
    print("simulator: every run starts from a fresh simulated machine with empty "
          "modelled state; accuracy is analysis.paper_err_pct (fig2-serial, traced run)")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    if not build():
        return 2
    log(f"perfbench: built in {time.monotonic() - started:.1f} s")
    raw = run_driver(args)
    if raw is None:
        return 1

    report(args, raw)
    problems = metrics.gate(raw)
    attempted, failed = metrics.attempt_counts(raw)
    if args.trace:
        values, notes = metrics.per_layer(raw)
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
        print("per-layer (traced run; value  unit  | should move):")
        for name, (unit, _, moves) in metrics.PER_LAYER.items():
            print(f"  {name:32s} {values[name]:16.6f} {unit:6s} | {moves}")
        for name, note in notes.items():
            print(f"  note {name}: {note}")
    else:
        values, notes = metrics.end_to_end(raw)
        units = metrics.END_TO_END
        print("end-to-end (untraced run; host times are CPU time of the process):")
        for name, unit in units.items():
            print(f"  {name:15s} {values[name]:14.6f} {unit:6s} {notes[name]}")
    print("gate: " + ("ok" if not problems else f"FAILED ({len(problems)} problems)"))
    for problem in problems[:20]:
        print("  " + problem)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

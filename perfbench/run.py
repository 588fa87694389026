#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune, then replaces this process with it,
passing every argument through.  The last line of standard output is the
JSON result.  A traced run (--trace 1) also writes its spans to
perfbench/results/<workload>-seed<seed>.spans.jsonl.  Exits non-zero,
printing no result, when the build fails.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def arg(name):
    args = sys.argv[1:]
    return args[args.index(name) + 1] if name in args[:-1] else None


def revision():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            stdout=sys.stderr, env=env)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = ["--rev", revision()]
    if arg("--trace") == "1" and arg("--workload") and arg("--seed"):
        os.makedirs(os.path.join("perfbench", "results"), exist_ok=True)
        extra += ["--spans", os.path.join(
            "perfbench", "results", f"{arg('--workload')}-seed{arg('--seed')}.spans.jsonl")]
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:] + extra)


if __name__ == "__main__":
    sys.exit(main())

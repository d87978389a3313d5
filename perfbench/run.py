#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --regen-refs

Builds the `perfbench` harness (a package of its own under this
directory) in release mode into $CARGO_TARGET_DIR, or `.bench_build` at
the root of the checkout when that is unset, then runs it from the root
of the checkout with the arguments given. Build output goes to standard
error; the harness's standard output passes through unchanged, so its
last line is the JSON result.

Every `REDUNDANCY_*` environment knob is removed before building and
running, so none can change the program being measured; the header line
names the ones that were set.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def source_commit(env):
    """The checkout's git commit, or a hash of the sources it builds from."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            env=dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            check=False,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1][:12]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            files.extend(os.path.join(base, n) for n in sorted(names))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    knobs = sorted(k for k in os.environ if k.startswith("REDUNDANCY_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REDUNDANCY_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["PERFBENCH_KNOBS_SEEN"] = ",".join(knobs)
    env["PERFBENCH_COMMIT"] = source_commit(env)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    harness = os.path.join(target, "release", "perfbench")
    return subprocess.run([harness] + sys.argv[1:], cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

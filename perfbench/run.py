#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload eval-cold --seed 1 --seconds 15 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports the
repository's packages through a `replace fgp => ../` directive. This script
builds it with every Go cache and temporary directory under .bench_build/ in
the current directory, then runs it with the given arguments. The binary's
last line of standard output is the result object. Without the repository
next to perfbench/ the build fails and the script exits non-zero without a
result.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main() -> int:
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "HOME": os.path.join(build, "home"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    for key in ("GOTMPDIR", "XDG_CONFIG_HOME", "HOME"):
        os.makedirs(env[key], exist_ok=True)

    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2
    binary = os.path.join(build, "perfbench")
    src = os.path.join(root, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

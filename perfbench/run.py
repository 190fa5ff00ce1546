#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig3-cifar-m4 --seed 7 --seconds 20 --trace 0

Every flag is passed to the perfbench binary (see main.go). The Go build
cache, the binary and the toolchain's HOME all live under .bench_build/ in
the current directory. When the build or the run fails, the script exits
non-zero without printing a result line.
"""
import os
import subprocess
import sys


def git_commit(root):
    """Read the checked-out commit from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly -buildvcs=false",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    args = ["--commit", git_commit(root), "--golden", os.path.join(here, "golden.json"),
            "--out", os.path.join(build, "perfbench-out")] + sys.argv[1:]
    sys.exit(subprocess.run([exe] + args, env=env).returncode)


if __name__ == "__main__":
    main()

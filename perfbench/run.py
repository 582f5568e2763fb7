#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 12 --trace 0

It builds cmd/serve and the perfbench package from source into
.bench_build/ (the Go build cache lives there too, so nothing is written
outside the checkout), then runs the benchmark with the same arguments.
Build output goes to stderr; the benchmark's last stdout line is its
JSON result. The exit code is the benchmark's, or 1 if a build fails.
"""

import ctypes
import os
import signal
import subprocess
import sys


def die_with_parent():
    """Have the kernel stop the benchmark if this launcher is killed."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "bin"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    serve = os.path.join(build, "bin", "serve")
    bench = os.path.join(build, "bin", "perfbench")
    for cwd, out, pkg in ((root, serve, "./cmd/serve"), (here, bench, ".")):
        done = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: building %s failed" % pkg, file=sys.stderr)
            return 1
    proc = subprocess.Popen([bench, "-serve", serve] + sys.argv[1:], cwd=root,
                            preexec_fn=die_with_parent)
    # Pass a stop request on; the benchmark stops its daemons and exits.
    signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    try:
        return proc.wait()
    except KeyboardInterrupt:
        proc.terminate()
        return proc.wait()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the repository root.  It configures and builds the perfbench/
CMake package (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the `perfbench` binary.
The binary's last line of standard output is the JSON result.  Build output
goes to build.log in the build directory.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175  # the whole run, build included, on a warm build


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_id() -> str:
    """The git commit when this tree is a clone, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def cmake(args, log) -> bool:
    log.write(("$ cmake " + " ".join(args) + "\n").encode())
    log.flush()
    return subprocess.run(["cmake", *args], stdout=log, stderr=subprocess.STDOUT,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def build(bdir: Path) -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for attempt in range(2):
        bdir.mkdir(parents=True, exist_ok=True)
        with open(bdir / "build.log", "ab") as log:
            if (cmake(["-S", str(HERE), "-B", str(bdir),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
                    and cmake(["--build", str(bdir), "--target", "perfbench",
                               "-j", jobs], log)):
                return True
        if attempt == 0:
            # A cache left by another source tree cannot be reused.
            shutil.rmtree(bdir, ignore_errors=True)
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny model presets: a functional check in seconds")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    bdir = build_dir()
    if not build(bdir):
        log = (bdir / "build.log")
        tail = log.read_text(errors="replace")[-4000:] if log.exists() else ""
        print(f"perfbench: build failed\n{tail}", file=sys.stderr)
        return 1
    built_s = time.monotonic() - start

    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == 1:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.trace.json")]
    sys.stdout.flush()
    # A warm build counts against the deadline; after a cold one (the
    # first run in a checkout) the measurement still gets all of it.
    timeout = RUN_DEADLINE_S - built_s if built_s < 60 else RUN_DEADLINE_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:.0f} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <train-resnet20|serve-resnet20|serve-mlp-wire> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the working directory); the traced run writes its Chrome trace
files to the traces/ directory beside the build. The last line of standard
output is the JSON result; any correctness failure exits non-zero without it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    if not (SOURCES / "engine" / "emu_engine.hpp").is_file():
        print(f"perfbench: library sources not found at {SOURCES}",
              file=sys.stderr)
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_root = build_root.resolve()
    try:
        binary = build(build_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--out-dir" not in args:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--out-dir", str(traces)]
    sys.stdout.flush()
    # Replace this process: the driver's exit code and output are the run's.
    os.execv(str(binary), [str(binary), *args])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())

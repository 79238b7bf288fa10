"""Client-observed benchmark of the comparison service and the off-line
cube sweep.

Run from the root of a checkout (the directory holding ``src/``)::

    python3 loadbench/run.py --workload read-hot --seed 1 --seconds 6 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``loadbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".loadbench_work"


def _program_root() -> str:
    """The checkout root: the current directory, which must hold the
    program's sources (``src/repro``)."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise SystemExit(
            "loadbench: no src/repro here; run from the root of a "
            "checkout of the program"
        )
    return root


def _import_program(root: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"loadbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def _src_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit(root: str):
    """The checked-out commit, when the checkout is a git work tree."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def _filesystem_of(path: str) -> str:
    """The type of the file system holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")
                        ) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def provenance(root: str, work: str) -> dict:
    import numpy

    fs = _filesystem_of(work)
    return {
        "commit": _commit(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "work_dir_fs": fs,
        "tmpfs": fs == "tmpfs",
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = _program_root()
    _import_program(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    # Scratch space inside the checkout; WALs and spills go here.
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    ctx = workloads.Context(root, work, args.seed, args.seconds,
                            bool(args.trace), [])
    try:
        report = workloads.WORKLOADS[args.workload](ctx, args.workload)
        info = provenance(root, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for server in ctx.servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    for note in report.notes:
        print(note)
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    print("provenance: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": report.failed == 0 and not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""List every statement of src/tttlab that the test suite and the benchmark self-test never run.

    python3 tools/linetrace.py [pytest args]

Runs pytest in-process (on `tests` unless arguments are given) under a
`sys.settrace` line tracer limited to the files of src/tttlab, then
perfbench/selftest.py's `main()` in the same process, and prints each
src/tttlab line that holds code and never ran, by file and line. Test and
self-test outcomes are reported but ignored: the timing gates fail under
tracing, and a failing test still runs the code it reached.

A line counts as code when the compiled module maps bytecode to it, the way
the tracer sees lines; a function's own `def` line counts for the scope that
defines it. Stdlib only.

Blind spot: only this process is traced. Process-pool workers (`threads > 1`,
as in acceptance criteria 2, the gradcheck matrix, and 10, the ablation grid)
and the subprocesses the self-test starts run untraced, so a line that only
they reach is listed as never run.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PKG = os.path.join(ROOT, "src", "tttlab")

hits: dict[str, set[int]] = {}
_wanted: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    wanted = _wanted.get(name)
    if wanted is None:
        wanted = _wanted[name] = os.path.dirname(os.path.realpath(name)) == PKG
        if wanted:
            hits.setdefault(name, set())
    return _local if wanted else None


def code_lines(path: str) -> set[int]:
    """Lines the compiled module maps bytecode to, leaving each nested code
    object's first line to the scope that defines it."""
    with open(path) as fp:
        top = compile(fp.read(), path, "exec")
    lines, stack = set(), [top]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}   # 0/None: no source line
        if code is not top:
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> None:
    import pytest

    sys.settrace(_global)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
        print(f"linetrace: pytest exited {int(code)} (outcomes ignored)", flush=True)
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import selftest
        print(f"linetrace: selftest exited {selftest.main()} (outcome ignored)", flush=True)
    finally:
        sys.settrace(None)


def report() -> int:
    by_real = {}
    for name, lines in hits.items():
        by_real.setdefault(os.path.realpath(name), set()).update(lines)
    total = 0
    for fname in sorted(os.listdir(PKG)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PKG, fname)
        missed = sorted(code_lines(path) - by_real.get(path, set()))
        if not missed:
            continue
        with open(path) as fp:
            src = fp.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}: {len(missed)} lines never ran")
        for line in missed:
            print(f"  {rel}:{line}: {src[line - 1].strip()}")
        total += len(missed)
    return total


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    t0 = time.perf_counter()
    run_traced(argv or ["tests"])
    total = report()
    print(f"linetrace: {total} src/tttlab lines never ran; "
          f"{time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

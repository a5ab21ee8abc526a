"""List every statement of src/tttlab that the test suite and the benchmark self-test never run.

    python3 tools/linetrace.py [pytest args]
    python3 tools/linetrace.py --check

Runs pytest in-process (on `tests` unless arguments are given) under a
`sys.settrace` line tracer limited to the files of src/tttlab, then
perfbench/selftest.py's `main()` in the same process, and prints each
src/tttlab line that holds code and never ran, by file and line. Test and
self-test outcomes are reported but ignored: the timing gates fail under
tracing, and a failing test still runs the code it reached.

While tracing, `tttlab.harness.ProcessPoolExecutor` is a serial in-process
stand-in, so the jobs that the harness hands to a process pool (acceptance
criteria 2, the gradcheck matrix, and 10, the ablation grid) run under the
tracer too. The subprocesses the self-test starts still run untraced.

`--check` runs the whole suite and the self-test and compares the lines that
never ran with the ledger `tools/unreached.txt`, which lists each of them with
a reason. An entry is keyed by file and stripped source text, not by line
number, so edits elsewhere in a file do not move it. The check prints every
line that never ran but is not listed, and every listed line that now runs,
and exits 1 if there is either.

A line counts as code when the compiled module maps bytecode to it, the way
the tracer sees lines; a function's own `def` line counts for the scope that
defines it. Stdlib only.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PKG = os.path.join(ROOT, "src", "tttlab")
LEDGER = os.path.join(ROOT, "tools", "unreached.txt")

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


class SerialPool:
    """In-process stand-in for `ProcessPoolExecutor`: `map` runs each job here,
    in order, so the tracer sees it."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def run_traced(pytest_args: list[str]) -> None:
    import pytest

    sys.settrace(_global)
    try:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import tttlab.harness       # imported under the tracer, so its module lines count

        tttlab.harness.ProcessPoolExecutor = SerialPool
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
        print(f"linetrace: pytest exited {int(code)} (outcomes ignored)", flush=True)
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import selftest
        print(f"linetrace: selftest exited {selftest.main()} (outcome ignored)", flush=True)
    finally:
        sys.settrace(None)


def never_ran() -> list[tuple[str, int, str]]:
    """(path relative to the repo, line, stripped source) of each code line never run."""
    by_real = {}
    for name, lines in hits.items():
        by_real.setdefault(os.path.realpath(name), set()).update(lines)
    out = []
    for fname in sorted(os.listdir(PKG)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PKG, fname)
        with open(path) as fp:
            src = fp.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in sorted(code_lines(path) - by_real.get(path, set())):
            out.append((rel, line, src[line - 1].strip()))
    return out


def report(missed: list[tuple[str, int, str]]) -> None:
    for rel in sorted({rel for rel, _, _ in missed}):
        lines = [(line, text) for r, line, text in missed if r == rel]
        print(f"{rel}: {len(lines)} lines never ran")
        for line, text in lines:
            print(f"  {rel}:{line}: {text}")


def read_ledger() -> Counter:
    """The ledger's entries as a multiset of (path, stripped source).

    Blank lines and `#` comments are skipped; a `reason: ...` line states why
    the entries below it never run, and every entry, `<path>: <source>`, needs
    one above it.
    """
    entries, reason = Counter(), None
    with open(LEDGER) as fp:
        for n, raw in enumerate(fp, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("reason:"):
                reason = line[len("reason:"):].strip()
                continue
            rel, sep, text = line.partition(": ")
            if not sep or not reason:
                raise ValueError(f"{LEDGER}:{n}: expected '<path>: <source>' under a reason, "
                                 f"got {line!r}")
            entries[(rel, text.strip())] += 1
    return entries


def check(missed: list[tuple[str, int, str]]) -> int:
    """1 if the lines that never ran differ from the ledger, either way; else 0."""
    ran = Counter((rel, text) for rel, _, text in missed)
    listed = read_ledger()
    unlisted, now_run = ran - listed, listed - ran
    for rel, line, text in missed:
        if unlisted[(rel, text)] > 0:
            print(f"linetrace: never ran, not in the ledger: {rel}:{line}: {text}")
    for (rel, text), count in sorted(now_run.items()):
        times = f" (x{count})" if count > 1 else ""
        print(f"linetrace: in the ledger but ran: {rel}: {text}{times}")
    n_unlisted, n_run = sum(unlisted.values()), sum(now_run.values())
    print(f"linetrace: --check {'failed' if n_unlisted or n_run else 'passed'}: "
          f"{n_unlisted} unlisted, {n_run} listed but run, {sum(listed.values())} in the ledger")
    return 1 if n_unlisted or n_run else 0


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    checking = argv == ["--check"]
    if "--check" in argv and not checking:
        print("linetrace: --check runs the whole suite and takes no other argument")
        return 2
    t0 = time.perf_counter()
    run_traced(argv if argv and not checking else ["tests"])
    missed = never_ran()
    report(missed)
    print(f"linetrace: {len(missed)} src/tttlab lines never ran; "
          f"{time.perf_counter() - t0:.0f} s")
    return check(missed) if checking else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

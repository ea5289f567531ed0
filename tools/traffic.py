"""Lines of src/hodgegap that no command and no benchmark item executes.

Usage, from the root of a checkout:

    python3 tools/traffic.py

Runs, in one process under ``sys.settrace``, the CLI commands in ``COMMANDS``
and every item of one pass of the benchmark's ``range`` and ``reject``
workloads (through ``perfbench/worker.py``'s ``execute``), then prints each
statement line of src/hodgegap that none of them reached, as
``path:line: text``, then the count in each module, most first, and the
total.  Such a line is reached by tests alone, if at all: a
candidate for deletion.  Informational; it always exits 0.
"""

import collections
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hodgegap"
COMMANDS = [
    "verify --p 3 --format json", "verify --p 23 --format json",
    "verify --p 61 --format json", "verify --p 13",
    "table --max 1000", "table --max 200 --format json", "curve --p 3 --chart 2",
    "curve --p 5", "verify --p=13 --fo json", "verify --help",
]


def statement_lines(path: Path) -> set[int]:
    """The lines that start a statement in any code object of ``path``, but
    a function's own first line, which the enclosing code runs."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n and n != code.co_firstlineno)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main() -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads  # neither module imports hodgegap, so tracing sees it load
    from worker import execute

    hit: set[tuple[str, int]] = set()

    def line(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.startswith(str(SRC)) else None)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            from hodgegap import cli

            for command in COMMANDS:
                cli.main(command.split())
            for workload in ("range", "reject"):
                for item in workloads.pass_items(workload, 1, 0):
                    execute(item, trace=False)
    finally:
        sys.settrace(None)
    by_module = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for n in sorted(statement_lines(path)):
            if (str(path), n) not in hit:
                by_module[path.stem] += 1
                print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
    for module, count in by_module.most_common():
        print(f"{count} unreached in {module}")
    print(f"{by_module.total()} statement lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())

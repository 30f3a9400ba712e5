"""Lines of ``src/msdn`` that tier-1 runs, but never inside an in-process ``msdn.cli.main``.

A stdlib-only pytest plugin.  Load it into the tier-1 run:

    PYTHONPATH=src:tools python -m pytest -q -p traffic

It wraps ``msdn.cli.main``, traces every line of ``src/msdn`` that runs
during the session with ``sys.settrace``, and notes whether a call of
``main`` was under way.  At the end it prints, for each file, the
executable lines that ran but never inside ``main``, as ranges of
consecutive executable lines: the code tier-1 reaches only by calling
library functions directly, which no test proves through the command
line.  It does not trace subprocess runs (a ``python -m msdn.cli`` child
process), nor module-level lines run at import.
"""

from __future__ import annotations

import dis
import functools
import os
import sys
import threading
import types

_ran: dict[str, set[int]] = {}      # file -> lines run anywhere
_in_main: dict[str, set[int]] = {}  # file -> lines run inside cli.main
_depth = 0                          # calls of cli.main under way
_package = ""                       # the msdn directory, with a trailing separator
_traced: dict[str, bool] = {}       # co_filename -> whether it lies in the package


def _line(frame, event, arg):
    if event == "line":
        name = frame.f_code.co_filename
        _ran.setdefault(name, set()).add(frame.f_lineno)
        if _depth:
            _in_main.setdefault(name, set()).add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    inside = _traced.get(code.co_filename)
    if inside is None:
        inside = _traced[code.co_filename] = os.path.abspath(code.co_filename).startswith(_package)
    return _line if inside and code.co_name != "<module>" else None


def _executable(path: str) -> list[int]:
    """The lines of ``path`` that start a statement of some function, in order."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        if code.co_name != "<module>":
            lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return sorted(lines)


def _ranges(executable: list[int], outside: set[int]) -> str:
    """``outside`` as runs of consecutive executable lines: "46-48, 52"."""
    runs: list[list[int]] = []
    previous_in = False
    for line in executable:
        now_in = line in outside
        if now_in and previous_in:
            runs[-1][1] = line
        elif now_in:
            runs.append([line, line])
        previous_in = now_in
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def pytest_configure(config):
    global _package
    from msdn import cli

    _package = os.path.dirname(os.path.abspath(cli.__file__)) + os.sep
    real = cli.main

    @functools.wraps(real)
    def main(argv=None):
        global _depth
        _depth += 1
        try:
            return real(argv)
        finally:
            _depth -= 1

    cli.main = main
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    write("src/msdn lines this run executed, but never inside an in-process msdn.cli.main:")
    outside: dict[str, set[int]] = {}
    for name, lines in _ran.items():
        outside.setdefault(os.path.abspath(name), set()).update(lines)
    for name, lines in _in_main.items():
        outside[os.path.abspath(name)] -= lines
    for path, lines in sorted(outside.items()):
        if lines:
            write(f"  {os.path.relpath(path)}: {_ranges(_executable(path), lines)}")

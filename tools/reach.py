"""The functions under src/ that no argv of the CLI corpus enters.

    python3 tools/reach.py

Runs every argv of tools/cli_diff.py's corpus (cli_diff.corpus(), built
from this script's own tree) through orediamond.cli.main in process,
with this tree's src first on sys.path, under sys.setprofile; each argv
gets cli_diff's alarm of TIMEOUT_S seconds.  Then prints, one a line as
"path:line name", every function and method defined under src/ whose
code no call entered, leaving out __repr__, and last the count.
Standard library only.
"""

import ast
import contextlib
import io
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "tools"))

import cli_diff  # noqa: E402
from orediamond import cli  # noqa: E402

SKIPPED = ("__repr__",)


class Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise Timeout


def definitions():
    """{(file, first line of its code): "path:line name"} of every function
    and method under src/; a decorated function's code starts at its first
    decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if child.name not in SKIPPED:
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path.resolve()), first] = f"{path.relative_to(SRC)}:{child.lineno} {name}"
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def entered(argvs):
    """The (file, first line) of every code object that a call entered
    while the argvs ran."""
    seen = set()

    def profile(frame, event, arg):
        seen.add(frame.f_code)

    signal.signal(signal.SIGALRM, _alarm)
    for argv in argvs:
        signal.alarm(cli_diff.TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(profile)
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
                finally:
                    sys.setprofile(None)
        except Timeout:
            print("reach: timeout: " + " ".join(argv), file=sys.stderr)
        except Exception as exc:
            print(f"reach: {type(exc).__name__}: " + " ".join(argv), file=sys.stderr)
        finally:
            signal.alarm(0)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in seen}


def main():
    defs = definitions()
    reached = entered(cli_diff.corpus())
    missed = [label for key, label in defs.items() if key not in reached]
    for label in missed:
        print(label)
    print(f"{len(missed)} of {len(defs)} functions entered by no argv")
    return 0


if __name__ == "__main__":
    sys.exit(main())

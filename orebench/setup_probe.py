"""Set-up time in a fresh interpreter: import orediamond, build the CLI
parser and parse the workload's inputs.  Prints the seconds taken.

    python3 orebench/setup_probe.py <src directory> < argv-lists.json

stdin holds the JSON list of the queries' argv lists.  Before the clock
starts, only sys and time are imported and stdin is read as text, so the
time covers every import a CLI user pays for.
"""

import sys
import time


def main(src):
    argvs = sys.stdin.read()
    sys.path.insert(0, src)
    start = time.perf_counter()
    from orediamond import cli, parse

    import json  # already imported by cli

    parser = cli.build_parser()
    for argv in json.loads(argvs):
        args = parser.parse_args(argv)
        parse.parse_derivation(args.deriv, args.ring)
        for operand in ("f", "g"):
            if getattr(args, operand, None) is not None:
                parse.parse_ore(getattr(args, operand), args.ring)
        if getattr(args, "x", None) is not None:
            parse.parse_polynomial(args.x, args.ring)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])

"""Command-line interface.

Subcommands communicate through the documented JSON schemas only, so they
compose through pipes::

    cutcomplexes gen cycle:6 -o c6.json
    cutcomplexes complex build --kind totalcut --d 2 --graph c6.json | cutcomplexes homology

Every JSON output is one line with the default ``", "`` and ``": "``
separators (keys sorted, except in the ``verify --json`` report), written by
``json.dumps`` without ``indent``, so that the C encoder does the work;
``python -m json.tool`` pretty-prints it.  The argument parser is built
once per process, on the first ``main`` call, and ``parse_args`` gives every
call a fresh namespace.  That saves time only where one process calls
``main`` many times (the tests, an in-process benchmark): a shell pipeline
starts one process per command and builds one parser in each either way.

Exit status: 0 on success, 1 when a verification suite reports failures,
2 on usage errors (including malformed input files), 141 (the SIGPIPE status)
when the reader closes standard output early, as ``| head`` can.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import graphs as gr, limits
from .complexes import (
    alexander_dual,
    bounded_independence_complex,
    complex_from_json,
    complex_to_json,
    total_cut_complex,
)
from .homology import reduced_homology
from .posets import composition_poset, order_complex
from .verify import DEFAULT_SEED, SUITES, run_all


def _write_file(path, write, newline=None):
    """Write ``path`` through ``write(fh)``; an unwritable path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(obj, out_path):
    text = json.dumps(obj, sort_keys=True)
    if out_path:
        _write_file(out_path, lambda fh: fh.write(text + "\n"))
    else:
        print(text)


def _parse_json(text, source):
    """Parse JSON text; a syntax error names ``source`` and the location."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _load_json_file(path, kind):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {path!r}: {exc}") from None
    return _parse_json(text, f"{kind} file {path!r}")


def profile_to_json(profile):
    return {
        "reduced": [
            {"degree": q, "betti": b, "torsion": list(t)}
            for q, b, t in profile.groups
        ],
        "euler": profile.euler(),
        "void": profile.void,
    }


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cutcomplexes",
        description="Total cut complexes, bounded independence complexes, "
        "exact homology, and the verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph from a family descriptor")
    p_gen.add_argument("descriptor", help='e.g. "cycle:8", "cyclepow:8:3", "grid:3,3"')
    p_gen.add_argument("-o", "--output", default=None)

    p_complex = sub.add_parser("complex", help="build a graph complex")
    csub = p_complex.add_subparsers(dest="complex_command", required=True)
    p_build = csub.add_parser("build")
    p_build.add_argument("--kind", choices=["totalcut", "bi"], required=True)
    p_build.add_argument("--d", type=int, required=True)
    p_build.add_argument("--graph", default=None, help="graph JSON file")
    p_build.add_argument("descriptor", nargs="?", default=None)
    p_build.add_argument("-o", "--output", default=None)
    p_build.add_argument("--force", type=int, default=None, metavar="N",
                         help="raise the work budget to 2^N")

    p_hom = sub.add_parser("homology", help="reduced homology of a complex")
    p_hom.add_argument("--complex", dest="complex_file", default=None,
                       help="complex JSON file (default: stdin)")
    p_hom.add_argument("-o", "--output", default=None)
    p_hom.add_argument("--force", type=int, default=None, metavar="N",
                       help="raise the work budget to 2^N")

    p_dual = sub.add_parser("dual", help="Alexander dual of a complex")
    p_dual.add_argument("--complex", dest="complex_file", default=None,
                        help="complex JSON file (default: stdin)")
    p_dual.add_argument("-o", "--output", default=None)
    p_dual.add_argument("--force", type=int, default=None, metavar="N",
                        help="raise the work budget to 2^N")

    p_poset = sub.add_parser("poset", help="order complex of a composition poset")
    p_poset.add_argument("--d", type=int, required=True)
    p_poset.add_argument("--k", type=int, required=True)
    p_poset.add_argument("--augmented", action="store_true")
    p_poset.add_argument("-o", "--output", default=None)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
    )
    p_verify.add_argument("--filter", default=None, help="glob over entry ids")
    p_verify.add_argument("--json", dest="json_out", default=None)
    p_verify.add_argument("--csv", dest="csv_out", default=None)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("-q", "--quiet", action="store_true",
                          help="print only the summary and failures")
    return parser


def _graph_from_args(args):
    if (args.graph is None) == (args.descriptor is None):
        raise ValueError("provide exactly one of --graph FILE or a descriptor")
    if args.graph is not None:
        return gr.graph_from_json(_load_json_file(args.graph, "graph"))
    return gr.from_descriptor(args.descriptor)


def _cmd_gen(args):
    _emit(gr.graph_to_json(gr.from_descriptor(args.descriptor)), args.output)
    return 0


def _cmd_complex(args):
    g = _graph_from_args(args)
    if args.kind == "totalcut":
        k = total_cut_complex(g, args.d)
    else:
        k = bounded_independence_complex(g, args.d)
    _emit(complex_to_json(k), args.output)
    return 0


def _read_complex(args):
    if args.complex_file:
        obj = _load_json_file(args.complex_file, "complex")
    else:
        obj = _parse_json(sys.stdin.read(), "stdin")
    return complex_from_json(obj)


def _cmd_homology(args):
    k = _read_complex(args)
    profile = reduced_homology(k)
    _emit(profile_to_json(profile), args.output)
    return 0


def _cmd_dual(args):
    k = _read_complex(args)
    _emit(complex_to_json(alexander_dual(k)), args.output)
    return 0


def _cmd_poset(args):
    poset = composition_poset(args.d + args.k - 1, args.k, augmented=args.augmented)
    _emit(complex_to_json(order_complex(poset)), args.output)
    return 0


def _cmd_verify(args):
    report = run_all(suite=args.suite, filter_pattern=args.filter, seed=args.seed)
    if not args.quiet:
        for e in report.entries:
            status = "pass" if e.passed else "FAIL"
            print(f"[{status}] {e.id}: expected {e.expected}, got {e.computed}")
    else:
        for e in report.failed_entries():
            print(f"[FAIL] {e.id}: expected {e.expected}, got {e.computed}")
    print(report.summary())
    if args.json_out:
        _write_file(args.json_out, lambda fh: fh.write(report.to_json() + "\n"))
    if args.csv_out:
        _write_file(args.csv_out, report.write_csv, newline="")
    return 0 if report.passed else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "complex": _cmd_complex,
        "homology": _cmd_homology,
        "dual": _cmd_dual,
        "poset": _cmd_poset,
        "verify": _cmd_verify,
    }
    # --force N sets the cap of every search in this command, and of no later
    # one: a process may call main many times
    limits.override = getattr(args, "force", None)
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        sys.stdout = None  # or the interpreter's flush at exit fails again
        return 141
    except (gr.GraphFormatError, limits.SizeCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        limits.override = None


if __name__ == "__main__":
    sys.exit(main())

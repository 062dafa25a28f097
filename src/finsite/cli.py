"""Command line: read a command's arguments, run its handler, print its
report.

Exit codes: 0 success, 1 check failure, 2 parse or IO error, 3 budget
exceeded.  With `--format structured` every command prints one JSON
document with stable key order; reports are byte-identical across runs
on identical inputs.

`COMMANDS` defines each command's arguments and names its handler, which
lives in the module of the layer the command drives (`verify` and
`claims` in `checks`), so a command compiles its own handler and no
other.  A plain command line is read straight from the table: argparse
loads only for help, usage errors and lines the table does not read
plainly, and human output loads no `json`.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

from .records import DEFAULT_BUDGET, VISUALIZATIONS


def _natural(text: str) -> int:
    """Argument type of the integer options, none of which may be
    negative: a negative value is a usage error, exit 2, before any
    command runs."""
    import argparse  # only argparse calls this

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# The one place a command's arguments are defined: each command's
# handler, its help text, and its arguments after `--format` in the order
# `--help` lists them, each a name and the keywords of `add_argument`;
# `either` puts an argument in the command's required either/or group.
# Handlers are named "module.function", as `EXIT_CODES` names classes.
# `build_parser` builds argparse's parser from this table, and `_match`
# reads a plain command line straight from it.
_FORMAT = ("--format", {"choices": ("human", "structured"),
                        "default": "human",
                        "help": "report style (default human)"})
_GRAPH = ("--dot", {"metavar": "PATH",
                    "help": "write the specialization graph here"})
COMMANDS = {
    "check": ("finsite.semiring._cmd_check",
              "validate a semiring file against the axioms",
              [("file", {})]),
    "spectrum": ("finsite.spectra._cmd_spectrum",
                 "points, opens, and specialization of a spectrum",
                 [("file", {}),
                  ("--flavor", {"default": "prime",
                                "choices": VISUALIZATIONS}),
                  _GRAPH]),
    "congruences": ("finsite.spectra._cmd_congruences",
                    "ideal, congruence, and chain-map summary",
                    [("file", {})]),
    "locale": ("finsite.locales._cmd_locale",
               "frame of spectrum opens as a lattice dump",
               [("file", {}),
                ("--dot", {"metavar": "PATH",
                           "help": "write the lattice dump here"})]),
    "stone": ("finsite.locales._cmd_stone", "dual space of a lattice dump",
              [("file", {}), _GRAPH]),
    "localize": ("finsite.semiring._cmd_localize",
                 "invert an element; prints the semiring file",
                 [("file", {}), ("element", {})]),
    "sheaf-check": ("finsite.site._cmd_sheaf_check",
                    "descent along a cover family, all test objects",
                    [("file", {})]),
    "verify": ("finsite.checks._cmd_verify",
               "run every check over the *.sr files of a directory",
               [("directory", {"nargs": "?",
                               "help": "defaults to the bundled catalog"})]),
    "glue": ("finsite.glue._cmd_glue",
             "monodromy check, then the glued space of a presentation",
             [("file", {}),
              ("--vis", {"default": "prime", "choices": VISUALIZATIONS}),
              ("--path-bound", {"type": _natural, "default": 8}),
              ("--budget", {"type": _natural, "default": DEFAULT_BUDGET}),
              _GRAPH]),
    "simplex": ("finsite.finset._cmd_simplex",
                "face poset of a simplex or a complex file",
                [("--n", {"type": _natural, "either": True,
                          "help": "dimension of a full simplex"}),
                 ("file", {"nargs": "?", "either": True}),
                 _GRAPH]),
    "claims": ("finsite.checks._cmd_claims",
               "check the paper's claims over the catalog semirings", []),
}


def _handler(command: str):
    """The function its row names: namespace -> (exit code, lines, data)."""
    module, _, name = COMMANDS[command][0].rpartition(".")
    return getattr(importlib.import_module(module), name)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `finsite`, built from `COMMANDS`.  When `command`
    names a subcommand, only that one is registered, so a run builds the
    options of its own command alone; otherwise, for `--help` and for a
    missing or unknown command, all of them are.  Help texts and usage
    errors read the same either way."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="finsite",
        description="finite semiring spectra, locales, and gluing")
    names = (command,) if command in COMMANDS else tuple(COMMANDS)
    # the usage line names every command even when one is registered; the
    # full parser keeps no metavar, as an unknown command's error names
    # the argument by it ("argument command: invalid choice")
    sub = ap.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None))
    for name in names:
        _, text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text, description=text)
        group = None
        for flag, keywords in (_FORMAT, *arguments):
            keywords = dict(keywords)
            if keywords.pop("either", False):
                group = group or p.add_mutually_exclusive_group(
                    required=True)
                group.add_argument(flag, **keywords)
            else:
                p.add_argument(flag, **keywords)
    return ap


def _dest(flag: str) -> str:
    """The namespace key of an argument, as argparse names it."""
    return flag.lstrip("-").replace("-", "_")


def _match(argv):
    """The namespace argparse builds from `argv`, read straight from
    `COMMANDS` when argv is a plain line: a command, its positionals, then
    options each given once as `--name value`, every value valid and none
    starting with `-`.  None for any other line, which argparse reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = (_FORMAT, *COMMANDS[argv[0]][2])
    values = {"command": argv[0]}
    values.update((_dest(flag), keywords.get("default"))
                  for flag, keywords in arguments)
    positionals = [a for a in arguments if not a[0].startswith("-")]
    options = {a[0]: a[1] for a in arguments if a[0].startswith("-")}
    rest = argv[1:]
    count = next((i for i, word in enumerate(rest) if word.startswith("-")),
                 len(rest))
    words, pairs = rest[:count], rest[count:]
    if (len(words) > len(positionals) or len(pairs) % 2
            or any("nargs" not in keywords
                   for _, keywords in positionals[len(words):])):
        return None
    values.update(zip((name for name, _ in positionals), words))
    for flag, value in zip(pairs[::2], pairs[1::2]):
        keywords = options.pop(flag, None)  # so a repeat finds none
        if (keywords is None or value.startswith("-")
                or value not in keywords.get("choices", (value,))):
            return None
        if "type" in keywords:  # `_natural`, read as plain ASCII digits
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past the interpreter's digit limit
                return None
        values[_dest(flag)] = value
    # the members of an either/or group have no default
    either = [_dest(flag) for flag, keywords in arguments
              if keywords.get("either")]
    if either and sum(values[key] is not None for key in either) != 1:
        return None
    return SimpleNamespace(**values)


# exit code of each expected failure, keyed by "module.class": an error is
# classified by the names on its class's MRO, so classifying it loads no
# module that the command did not
EXIT_CODES = {"finsite.formats.FormatError": 2,
              "finsite.finset.FinSetError": 1,
              "finsite.glue.GlueError": 1,
              "finsite.locales.FrameError": 1,
              "finsite.records.BudgetExceeded": 3,
              "finsite.semiring.SemiringError": 1}


def _exit_code(e: Exception) -> int | None:
    """Exit code of an expected failure, None for any other exception."""
    for cls in type(e).__mro__:
        code = EXIT_CODES.get(f"{cls.__module__}.{cls.__qualname__}")
        if code is not None:
            return code
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ns = _match(argv)
    if ns is None:
        # help, usage errors and lines the table does not read plainly
        ns = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code, lines, data = _handler(ns.command)(ns)
    except Exception as e:
        code = _exit_code(e)
        if code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return code
    try:
        # labels are UTF-8 text in every locale, as the input files are
        if hasattr(sys.stdout, "reconfigure"):
            sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
        if ns.format == "structured":
            import json

            print(json.dumps(data, indent=2))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; the interpreter flushes stdout once more
        # on exit, so point it where that flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())

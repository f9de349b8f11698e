"""Command line front end.

Exit codes: 0 success, 1 a failed ``check``, an ``iterate`` that hit
``--max``, or an InternalOrderViolation (the oracle's pruned relation is
not an order, which should never happen), 2 input error (bad options, an
unreadable, malformed or non-UTF-8 file, a cycle), 3 unexpected fault (a
bug, reported in one line). Diagnostics go to the error stream; document
output goes to standard output so it can be piped into other commands.
When the reader of standard output stops early (``veinprune gen chain
--size 20000 | head -n 1``), the command ends quietly with exit 0.

The argparse parser built by ``_build_parser`` defines the command line
and reports every error and help text. A plain line (``prune --format
json FILE``) is read straight from that parser's action table, at a
fraction of the cost of an argparse parse; any other line (``--help``, an
abbreviation, ``--opt=value``, ``--``, a value that starts with '-', a
bad value) goes to argparse.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import families, formats, oracle, pruning, suite, veins
from .errors import InternalOrderViolation, InvalidSpec, VeinpruneError
from .irreducibles import profiles
from .poset import Poset


def _load(path: str) -> tuple[Poset, str | None]:
    """The poset and the name of the document at ``path`` ('-': stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        # read as bytes: CPython's text-mode file object kept a small block
        # alive on some opens, so a long-lived caller's memory grew
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    return formats._load(text)


def _env_seed() -> int:
    raw = os.environ.get("VEINPRUNE_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise InvalidSpec(
            f"VEINPRUNE_SEED must be an integer, got {raw!r}") from None


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _count_maximal_chains(p: Poset) -> int:
    # paths from minimal to maximal elements, counted without enumeration;
    # the poset's successors-first order counts upper covers first
    total = [0] * len(p)
    for i in p._order:
        ups = p._ucov[i]
        total[i] = sum(total[j] for j in ups) if ups else 1
    return sum(t for t, down in zip(total, p._dcov) if not down)


# ----------------------------------------------------------------------
# subcommands


def _cmd_info(args: argparse.Namespace) -> int:
    p, name = _load(args.file)
    if name:
        print(f"name: {name}")
    print(f"elements: {len(p)}")
    print(f"cover pairs: {sum(map(len, p._ucov))}")
    print(f"strict relations: {sum(m.bit_count() for m in p._above)}")
    print(f"minimal elements: {' '.join(p.minimal_elements())}")
    print(f"maximal elements: {' '.join(p.maximal_elements())}")
    print(f"height: {max(p.heights().values(), default=0)}")
    chains = _count_maximal_chains(p)
    print(f"maximal chains: {chains}")
    if chains <= 20:
        for chain in p.maximal_chains():
            print("  " + " ".join(chain))
    print(f"conditionally complete: {_yn(p.is_conditionally_complete())}")
    return 0


def _block_lines(block: tuple[str, ...]) -> list[str]:
    """The listing lines of the strict veins that start a block, in order:
    each line is the one before it plus one label."""
    lines = []
    line = "  " + block[0]
    for label in block[1:]:
        line += " " + label
        lines.append(line)
    return lines


def _cmd_veins(args: argparse.Namespace) -> int:
    p, _ = _load(args.file)
    if args.mode == "oracle":
        found = oracle.strict_veins(p)
        count, groups = len(found), [["  " + " ".join(v) for v in found]]
    else:  # one write per block: only one block's lines are held at once
        blocks = veins._vein_blocks(p)
        count = sum(len(block) - 1 for block in blocks)
        groups = map(_block_lines, blocks)
    write = sys.stdout.write
    write(f"strict veins ({count}):\n" if count else "strict veins: none\n")
    for lines in groups:
        if lines:
            write("\n".join(lines) + "\n")
    maximal = veins.maximal_veins(p)
    lines = [f"maximal veins ({len(maximal)}):"]
    lines += ["  " + " ".join(v) for v in maximal]
    write("\n".join(lines) + "\n")
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    p, name = _load(args.file)
    rep = pruning.prune(p, mode=args.mode)
    if args.format == "dot":
        payload = formats.emit_dot(rep.pruned, profiles(rep.pruned))
    else:  # the document is built only for the formats that read it
        doc = formats.PosetDocument.from_poset(rep.pruned, name=name)
        payload = (formats.emit_json if args.format == "json"
                   else formats.emit_text)(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_iterate(args: argparse.Namespace) -> int:
    if args.max < 1:
        raise InvalidSpec(f"--max must be at least 1, got {args.max}")
    p, _ = _load(args.file)
    run = pruning.iterate_prune(p, max_iters=args.max, mode=args.mode)
    if run.fixpoint_index is None:
        print(f"error: no fixpoint within {args.max} iterations",
              file=sys.stderr)
        return 1
    idx = run.fixpoint_index
    print(f"fixpoint after {idx} iteration{'s' if idx != 1 else ''}")
    return 0


def _cmd_irr(args: argparse.Namespace) -> int:
    p, _ = _load(args.file)
    prof = profiles(p)
    width = max(map(len, ("element",) + p.labels))
    lines = [f"{'element':<{width}}  irreducible  coirreducible  doubly"]
    for x in p.labels:
        entry = prof[x]
        lines.append(f"{x:<{width}}  {_yn(entry.irreducible):<11}  "
                     f"{_yn(entry.coirreducible):<13}  {_yn(entry.doubly)}")
    if not p.is_conditionally_complete():
        lines.append("conditionally complete: no (preservation not evaluated)")
    else:  # a theorem, proved in the veinprune.irreducibles docstring
        lines.append("preserved under pruning: yes")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.max_size < 1:
        raise InvalidSpec(
            f"--max-size must be at least 1, got {args.max_size}")
    if args.count < 0:
        raise InvalidSpec(f"--count must not be negative, got {args.count}")
    seed = args.seed if args.seed is not None else _env_seed()
    result = suite.run_suite(seed=seed, count=args.count,
                             max_size=args.max_size)
    for out in result.outcomes:
        if out.ok:
            print(f"ok   {out.name} ({out.checked} checked)")
        else:
            print(f"FAIL {out.name} ({out.checked} checked, "
                  f"{len(out.violations)} violations)")
    if result.ok:
        print(f"{len(result.outcomes)} checks passed (seed {seed})")
        return 0
    for out in result.outcomes:
        if out.ok:
            continue
        worst = out.smallest()
        print(f"\n{out.name}: {worst.detail}", file=sys.stderr)
        print("counterexample:", file=sys.stderr)
        sys.stderr.write(worst.poset)
    return 1


# each kind's builder and the options it takes; an option left out takes
# the builder's default, and a fixture takes no option
_GEN_KINDS = {
    "chain": (families.chain_poset, ("size",)),
    "antichain": (families.antichain_poset, ("size",)),
    "boolean": (families.boolean_poset, ("size",)),
    "fence": (families.fence_poset, ("size",)),
    "random": (families.random_poset, ("size", "seed", "edge_prob")),
    "downset_lattice": (families.downset_lattice, ("size", "seed")),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    build, takes = _GEN_KINDS.get(kind, (None, ()))
    given = {key: value for key in ("size", "seed", "edge_prob")
             if (value := getattr(args, key)) is not None}
    for key in given:
        if key not in takes:
            flag = "--" + key.replace("_", "-")
            raise InvalidSpec(f"{flag} does not apply to kind {kind!r}")
    if build is None:
        poset, name = families.fixtures()[kind], kind
    else:
        size = given.pop("size", 1)
        if size < 1:
            raise InvalidSpec(f"size must be at least 1, got {size}")
        poset, name = build(size, **given), None
    doc = formats.PosetDocument.from_poset(poset, name=name)
    sys.stdout.write(formats.emit_text(doc))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    p, _ = _load(args.file)
    sys.stdout.write(formats.emit_dot(p, profiles(p)))
    return 0


# ----------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veinprune",
        description="Vein detection, pruning, and irreducible-element "
                    "analysis for finite posets.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)

    def command(name: str, func, help_: str, file_arg: bool = True):
        sp = sub.add_parser(name, help=help_)
        if file_arg:
            sp.add_argument("file", metavar="FILE",
                            help="poset file, text or JSON; '-' reads "
                                 "standard input")
        sp.set_defaults(func=func)
        return sp

    def mode_flag(sp) -> None:
        sp.add_argument("--mode", choices=("fast", "oracle"), default="fast",
                        help="fast cover-graph route or definition-level "
                             "oracle (default: fast)")

    command("info", _cmd_info, "element and chain counts, completeness")

    sp = command("veins", _cmd_veins, "list strict and maximal veins")
    mode_flag(sp)

    sp = command("prune", _cmd_prune, "prune the poset once")
    mode_flag(sp)
    sp.add_argument("--out", metavar="FILE",
                    help="write the result here instead of standard output")
    sp.add_argument("--format", choices=("text", "json", "dot"),
                    default="text", help="output format (default: text)")

    sp = command("iterate", _cmd_iterate, "prune to a fixpoint")
    mode_flag(sp)
    sp.add_argument("--max", type=int, default=4, metavar="N",
                    help="iteration cap (default: 4)")

    command("irr", _cmd_irr, "irreducibility profiles and preservation")

    sp = command("check", _cmd_check, "run the property suite on a "
                                      "seeded corpus", file_arg=False)
    sp.add_argument("--seed", type=int, default=None, metavar="S",
                    help="corpus seed (default: VEINPRUNE_SEED or 42)")
    sp.add_argument("--count", type=int, default=100, metavar="N",
                    help="number of random posets (default: 100)")
    sp.add_argument("--max-size", type=int, default=10, metavar="K",
                    help="largest random poset (default: 10)")

    sp = command("gen", _cmd_gen, "emit a generated poset", file_arg=False)
    sp.add_argument("kind", metavar="KIND",
                    choices=(*_GEN_KINDS, *families.FIXTURE_NAMES),
                    help="chain, antichain, boolean, fence, random, "
                         "downset_lattice, or a fixture name "
                         "(C3, Yp, Vee, B3, A2)")
    sp.add_argument("--size", type=int, default=None, metavar="N",
                    help="element count or base size (default: 1)")
    sp.add_argument("--seed", type=int, default=None, metavar="S",
                    help="generator seed for kinds 'random' and "
                         "'downset_lattice' (default: 0)")
    sp.add_argument("--edge-prob", type=float, default=None, metavar="P",
                    help="edge probability for kind 'random' (default: 0.3)")

    command("dot", _cmd_dot, "emit a DOT drawing of the cover relation")

    return parser


_PARSER = _build_parser()


def _plain_forms(parser: argparse.ArgumentParser) -> dict:
    """For each subcommand of ``parser``, read from its own actions: the
    positional actions, the one-value option actions by exact option
    string, and the namespace that its parse starts from. An action's
    default goes over ``set_defaults``, as in argparse. A flag such as
    ``-h`` takes no value, so it is not keyed and its line goes to
    argparse. ``tests/test_cli.py`` holds the table's reading to
    argparse's on lines built from every action it keys."""
    (sub,) = parser._subparsers._group_actions
    return {name: (sp._get_positional_actions(),
                   {s: a for s, a in sp._option_string_actions.items()
                    if a.nargs is None},
                   {"command": name, **sp._defaults,
                    **{a.dest: a.default for a in sp._actions
                       if a.default is not argparse.SUPPRESS}})
            for name, sp in sub.choices.items()}


_FORMS = _plain_forms(_PARSER)


def _parse(argv: list[str] | None = None) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``. A plain line is read from ``_FORMS``:
    a subcommand name, then its positionals and exact option strings, each
    option with one value that does not start with '-', and each value
    converted and checked by argparse's own ``_get_values``. Every other
    line goes to argparse, which prints each help text and error."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _FORMS:
        positionals, options, defaults = _FORMS[argv[0]]
        args, found = argparse.Namespace(**defaults), 0
        tokens = iter(argv[1:])
        with contextlib.suppress(IndexError, argparse.ArgumentError):
            for arg in tokens:
                if (action := options.get(arg)) is not None:
                    arg = next(tokens, "-")  # no value: left to argparse
                if arg.startswith("-") and (action is not None or arg != "-"):
                    break
                if action is None:  # IndexError: one positional too many
                    action, found = positionals[found], found + 1
                setattr(args, action.dest, _PARSER._get_values(action, [arg]))
            else:
                if found == len(positionals):
                    return args
    return _PARSER.parse_args(argv)


def cli(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2
    try:
        return args.func(args)
    except InternalOrderViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader stopped reading: not an error
        return 0
    except (VeinpruneError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # input errors
        return 2
    except Exception as exc:  # a bug, not a property violation
        print(f"error: unexpected fault: {exc!r}", file=sys.stderr)
        return 3


def main() -> int:
    code = cli(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # point the descriptor at the null device, so that the flush at
        # interpreter exit finds no closed pipe to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())

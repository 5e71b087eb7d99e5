"""Command-line frontend.

Two-level grammar (`lattice ...`, `topo ...`) mirroring the library split.
`COMMANDS` maps each domain to its commands and each command to the function
that adds its own arguments.  A command line that names a domain and one of
its commands is parsed by that command's parser alone, built with the shared
flags and named `latcorr <domain> <command>`.  `_command_parser` builds it
once per process and keeps it, so repeated `main` calls in one process
reuse it and a one-shot run builds exactly one; the key comes from
`COMMANDS`, so at most one parser per command is kept.  The full tree from
`build_parser`, built afresh each time, parses every other command line,
which is where the top-level and domain help and the usage errors for a
missing or unknown domain or command come from.  The top-level and domain
parsers have no option but `-h`, so the full tree hands the same arguments
to the same command parser, and both paths give the same result, help text
and error.
Exit codes: 0 = embeds / unobstructed / consistent, 2 = does not embed /
obstructed / inconsistent, 3 = inconclusive (even-order caveat), 1 = error.
Errors print a single machine-parsable line: "error: <CODE>: <message>".
"""

import argparse
import functools
import json
import os
import sys

from . import corrterm, discgroup, lattice as lattice_mod, oracle, topo
from .errors import (InvariantViolation, LatcorrError, OracleDisagreement,
                     SearchTooLarge)

VERDICT_EXIT = {"unobstructed": 0, "obstructed": 2, "inconclusive": 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise LatcorrError(message)


def _pairing_json(pairing):
    return [[str(x) for x in row] for row in pairing]


def _subgroup_json(m):
    return {"elements": [list(e) for e in m.elements],
            "generators": [list(e) for e in m.generators]}


def _common(p):
    """The flags every command takes."""
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--oracle", action="store_true",
                   help="run brute-force cross-checks; fail on disagreement")
    p.add_argument("--threads", type=int, default=1, metavar="N")


def _lattice_file(p):
    p.add_argument("file", help="lattice JSON file {\"gram\": [[ints]]}")


def _filling_file(p):
    p.add_argument("file", help="filling intersection form JSON file")


def _dtable(p):
    p.add_argument("--dtable", required=True, help="d-invariant table JSON file")


def _chain(p):
    p.add_argument("--filling", required=True, help="filling intersection form JSON file")
    _dtable(p)


COMMANDS = {
    "lattice": {"info": _lattice_file, "metabolizers": _lattice_file,
                "dset": _lattice_file, "embed-check": _lattice_file,
                "dinv": _lattice_file},
    "topo": {"linking-form": _filling_file, "rb-obstruction": _dtable,
             "filling-obstruction": _dtable, "chain": _chain},
}


def build_parser():
    """The full parser tree: every domain and command in `COMMANDS`."""
    parser = _Parser(prog="latcorr",
                     description="Lattice embedding obstructions via "
                                 "correction terms of unimodular overlattices.")
    sub = parser.add_subparsers(dest="domain", required=True, parser_class=_Parser)
    for domain, commands in COMMANDS.items():
        dom_sub = sub.add_parser(domain).add_subparsers(
            dest="command", required=True, parser_class=_Parser)
        for command, add_arguments in commands.items():
            p = dom_sub.add_parser(command)
            _common(p)
            add_arguments(p)
    return parser


@functools.cache
def _command_parser(domain, command):
    """The parser of one command in `COMMANDS`, built once per process.
    Parsing leaves a parser unchanged, so the kept one answers every later
    command line as a fresh one would."""
    p = _Parser(prog=f"latcorr {domain} {command}")
    _common(p)
    COMMANDS[domain][command](p)
    p.set_defaults(domain=domain, command=command)
    return p


def parse_args(argv):
    """Parse argv with the one command parser it names, or with the full
    tree when it names no command."""
    if len(argv) >= 2 and argv[1] in COMMANDS.get(argv[0], ()):
        return _command_parser(argv[0], argv[1]).parse_args(argv[2:])
    return build_parser().parse_args(argv)


def _check_embed_oracle(lat, embeds, notes):
    try:
        found, _ = oracle.brute_embed(lat)
    except SearchTooLarge:
        notes.append("oracle: brute_embed skipped (beyond caps)")
        return
    if found != embeds:
        raise OracleDisagreement(
            f"brute_embed found {found}, optimized path found {embeds}")
    notes.append("oracle: brute_embed agrees")


def _check_char_min_oracle(obj, minimum, notes):
    # a lower minimum lies in range, and an understated one leaves it empty
    try:
        brute = oracle.brute_char_min(obj, minimum)
    except SearchTooLarge:
        notes.append("oracle: brute_char_min skipped (beyond caps)")
        return
    except InvariantViolation as e:
        raise OracleDisagreement(
            f"brute_char_min rejects the optimized minimum {minimum}: {e}")
    if brute != minimum:
        raise OracleDisagreement(
            f"brute_char_min found {brute}, optimized path found {minimum}")
    notes.append("oracle: brute_char_min agrees")


def _check_metabolizer_oracle(grp, mets, notes):
    try:
        subs = oracle.brute_subgroups(grp)
    except SearchTooLarge:
        notes.append("oracle: brute_subgroups skipped (beyond caps)")
        return
    expected = [s for s in subs
                if s.order ** 2 == grp.order
                and all(oracle.lam(grp, x, y) == 0
                        for x in s.generators for y in s.generators)]
    if [m.elements for m in mets] != [s.elements for s in expected]:
        raise OracleDisagreement("metabolizer sets disagree with the oracle")
    notes.append("oracle: metabolizers agree")


def _run_lattice(args):
    lat = lattice_mod.load_lattice(args.file)
    notes = []
    if args.command == "info":
        grp = discgroup.disc_group(lat)
        return 0, {
            "rank": lat.rank,
            "definite": "negative" if lat.negated else "positive",
            "orientation": "negated" if lat.negated else "as-given",
            "disc": grp.order,
            "orders": list(grp.orders),
            "pairing": _pairing_json(grp.pairing),
        }
    if args.command == "metabolizers":
        grp = discgroup.disc_group(lat)
        mets = discgroup.metabolizers_of_group(grp)
        if args.oracle:
            _check_metabolizer_oracle(grp, mets, notes)
        return 0, {"metabolizers": [_subgroup_json(m) for m in mets],
                   "notes": notes}
    if args.command in ("dset", "embed-check"):
        grp = discgroup.disc_group(lat)
        ds = corrterm.d_set(grp)
        if args.oracle:
            _check_metabolizer_oracle(grp, [e.metabolizer for e in ds.entries],
                                      notes)
            for e in ds.entries:
                _check_char_min_oracle(e.overlattice, e.result.minimum, notes)
        entries = [{"metabolizer": [list(x) for x in e.metabolizer.elements],
                    "min_char_square": e.result.minimum,
                    "witness": [str(x) for x in e.result.witness],
                    "d": str(e.result.d)} for e in ds.entries]
        if args.command == "dset":
            return 0, {"entries": entries, "contains_zero": ds.contains_zero,
                       "notes": notes}
        embeds = ds.contains_zero
        if args.oracle:
            _check_embed_oracle(lat, embeds, notes)
        payload = {"embeds": embeds,
                   "verdict": "embeds in the standard lattice" if embeds
                   else "does not embed in the standard lattice",
                   "orientation": "negated" if lat.negated else "as-given",
                   "entries": entries, "notes": notes}
        return (0 if embeds else 2), payload
    if args.command == "dinv":
        res = corrterm.min_char_square(lat)
        if args.oracle:
            _check_char_min_oracle(lat, res.minimum, notes)
        return 0, {"d": str(res.d), "min_char_square": res.minimum,
                   "witness": [str(x) for x in res.witness], "notes": notes}
    raise LatcorrError(f"unknown lattice command {args.command}")


def _report_json(report):
    out = {"verdict": report.verdict}
    if report.reason:
        out["reason"] = report.reason
    if report.caveat:
        out["caveat"] = report.caveat
    if report.orientation_note:
        out["orientation_note"] = report.orientation_note
    evidence = []
    for rec in report.evidence:
        item = {"metabolizer": [list(e) for e in rec.metabolizer.elements]}
        if rec.d_values is not None:
            item["d_values"] = [{"elem": list(e), "value": str(v)}
                                for e, v in rec.d_values]
        if rec.d_over is not None:
            item["d_overlattice"] = str(rec.d_over)
        if rec.constrained is not None:
            item["constrained_min"] = str(rec.constrained)
        if rec.table_min is not None:
            item["table_min"] = str(rec.table_min)
        if rec.chain_holds is not None:
            item["chain_holds"] = rec.chain_holds
        if rec.failure is not None:
            item["failure"] = rec.failure
        evidence.append(item)
    out["evidence"] = evidence
    return out


def _run_topo(args):
    if args.command == "linking-form":
        filling = topo.linking_form_of_filling(
            lattice_mod.read_gram(args.file))
        return 0, {
            "orders": list(filling.group.orders),
            "pairing": _pairing_json(filling.boundary_pairing),
            "orientation": "negated" if filling.negated else "as-given",
        }
    if args.command in ("rb-obstruction", "filling-obstruction"):
        table = topo.load_dtable(args.dtable)
        if args.command == "rb-obstruction":
            report = topo.rb_correction_obstruction(table)
        else:
            report = topo.definite_filling_obstruction(table)
        return VERDICT_EXIT[report.verdict], _report_json(report)
    if args.command == "chain":
        table = topo.load_dtable(args.dtable)
        report = topo.chain_check(lattice_mod.read_gram(args.filling), table)
        return VERDICT_EXIT[report.verdict], _report_json(report)
    raise LatcorrError(f"unknown topo command {args.command}")


def _render_text(payload, out):
    def emit(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}{k}.", v)
        elif isinstance(value, list) and any(
                isinstance(v, (dict, list)) for v in value):
            for i, v in enumerate(value):
                emit(f"{prefix}{i}.", v)
        else:
            out.write(f"{prefix[:-1]}: {value}\n")

    emit("", payload)


def run(argv):
    """Parse argv, execute, render; returns the process exit code."""
    args = parse_args(argv)
    if args.threads <= 0:
        raise LatcorrError("--threads must be positive")
    if args.domain == "lattice":
        code, payload = _run_lattice(args)
    else:
        code, payload = _run_topo(args)
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _render_text(payload, sys.stdout)
    return code


def _discard_stdout():
    """Point the standard output descriptor at the null device, so that the
    interpreter's last flush of a closed pipe does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor in-process
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except LatcorrError as e:
        sys.stderr.write(f"error: {e.code}: {e}\n")
        return 1
    except BrokenPipeError:  # the reader closed standard output early
        _discard_stdout()
        sys.stderr.write("error: BrokenPipeError: standard output closed "
                         "before the result was written\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

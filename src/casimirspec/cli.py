"""Command-line front end.

Subcommands expose every engine with machine-readable output:

* ``table-delta``   half-sum coefficient catalog (all rows or one label)
* ``rank2-catalog`` rank-two eigenvalue polynomials and collision pairs
* ``collide``       exhaustive collision search on one space
* ``witness``       reflection collision certificate (rank >= 3)
* ``hopf``          swap-theorem scan on the Hopf fibration
* ``su2f``          invariant dimensions / simplicity certificate
* ``product``       weighted-product collision hyperplanes and beta
* ``simplicity``    resultant condition engines on a named family

Every subcommand has a human-readable table mode and ``--json``;
``table-delta`` and ``rank2-catalog`` also offer ``--csv``.  All numbers
serialize as exact rational strings.  Exit status: 0 on success, 1 when
a computation succeeded but the certificate failed (or the requested
construction is out of scope for the datum), 2 on usage errors, 3 on an
internal fault (a failed internal consistency check or an arithmetic or
memory error) or when the output cannot be written (stdout closed early).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys

import numpy as np

from . import bundles, products, simplicity, spectrum, su2f, symmdata
from .exactalg import rational_from_str, rational_to_str

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(payload: dict, as_json: bool, lines) -> None:
    """Print the payload as JSON, or else the table lines (read only then)."""
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


# pair records per block, each block one str.join and one stdout write.  A
# block of 2^11 product records is about 330 kB of text, so its grid and
# join stay in a 2 MB L2 cache.  Fresh-process cli.run medians on a 2-vCPU
# x86-64 VM, at 2^12, 2^11 and 2^10 records, with prefix and tail tables:
# - product --factors S2,S2,S2 --bound 40 --beta 1,2,61 --json (86,213
#   pairs, into a StringIO, 15 runs each): 43.9, 43.1 and 42.7 ms;
# - collide EVIII --bound 3 --json (650,191 pairs, to /dev/null, 9 runs
#   each): 182, 174 and 178 ms, peak RSS 52.3 MB at all three.
# The times are inside the run-to-run spread.  With whole row strings,
# 2^15 and 2^13 records took 55.8 and 53.0 ms on the product op and peaked
# at 79.6 and 63.0 MB on EVIII, against 60.7 MB from 2^12 down.
PAIR_CHUNK = 1 << 11
# marks where a field goes: json.dumps writes it "\u0000", and no payload holds it
_MARK = "\0"


def _emit_pairs(payload: dict, as_json: bool, pairs, key: str, record, line="", empty="") -> None:
    """Print ``payload`` with the records of ``pairs`` as its list ``key``, or table lines.

    ``pairs`` is a :class:`spectrum.CollisionPairs` or None.  A record's
    fields are "a", "b" (the pair's rows), "value" and "dual".  ``record``
    is the shape of one JSON record, a dict from each key to its field or
    a list of fields; ``line`` is a table line, a format string over the
    fields, and ``empty`` the line for no pairs.  The layout is read off
    two records, cut at their fields: ``json.dumps`` of the payload with
    two marked records, or ``line`` twice.  A JSON row is ``json.dumps``
    of a row at the indent of its marker's line, so the bytes are those of
    ``_emit`` with every record in place.

    No text is built per pair or per kept row.  Each distinct value is
    written once (``spectrum.value_strings``), and each row as a prefix
    and a tail from ``spectrum.row_strings``'s two small tables, with an
    ``int32`` index per kept row into each; a value is picked through
    its first row's ``int32`` value class.  A field that is followed by
    text inside its record carries that text, appended in place to its
    own last table, so a record is written as the text before it, one
    piece per value or flag and two per row.  Every ``PAIR_CHUNK``
    records reach stdout as one ``str.join`` of an object grid, allocated
    once and refilled per block by gathers through the block's slice of
    ``first`` and ``second``, taken as ``intp`` once per block; nothing
    is gathered for all pairs at once.
    """
    if not pairs:
        _emit({**payload, key: []}, as_json, [empty])
        return
    if as_json:
        marked = ({name: _MARK + field for name, field in record.items()}
                  if isinstance(record, dict) else [_MARK + field for field in record])
        text = json.dumps({**payload, key: [marked, marked]}, sort_keys=True, indent=2)
        pieces = re.split(r'"\\u0000(\w+)"', text + "\n")
        indent = re.search(r'^( *).*"\\u0000a"', text, re.M).group(1)
        row = json.dumps([_MARK] * 2, indent=2).replace("\n", "\n" + indent)
        row_text, flags = row.split(json.dumps(_MARK)), (json.dumps(False), json.dumps(True))
    else:
        pieces = re.split(r"\{(\w+)\}", (line + "\n") * 2)
        # a rank-one row is a one-tuple, "(5,)"
        closing = ",)" if pairs.rows.shape[1] == 1 else ")"
        row_text, flags = ("(", ", ", closing), ("", "  [dual pair]")
    # each record's fields, and the text before each field and after the last
    per_record = len(pieces) // 4
    fields, literals = pieces[1 : 2 * per_record : 2], pieces[0::2]
    distinct, value_of = np.unique(pairs.values, return_inverse=True)
    # a value class is below the kept row count, under 2**31
    value_of = value_of.astype(np.int32)
    values = spectrum.value_strings(distinct, pairs.denom)
    if as_json:
        # JSON strings: the rational strings need no escaping, only quotes,
        # added in place as all text here is, so no second table is alive
        np.add('"', values, out=values)
        np.add(values, '"', out=values)
    prefixes, prefix_of, tails, tail_of = spectrum.row_strings(pairs.rows, *row_text)
    # each field's string tables, with the per-row entry of each and the
    # end of the pair ("a" or "b") whose row picks it; None: the pair picks it
    tables = {
        "a": [(prefixes, prefix_of, "a"), (tails, tail_of, "a")],
        # a field's last table is its own: it takes the text after the field
        "b": [(prefixes, prefix_of, "b"), (tails.copy(), tail_of, "b")],
        # a pair's value is its first row's
        "value": [(values, value_of, "a")],
    }
    if pairs.dual is not None:
        tables["dual"] = [(np.array(flags, object), pairs.dual.view(np.uint8), None)]
    columns = []
    for slot, field in enumerate(fields, 1):
        if slot < per_record:
            # the text after a field, inside the record, joins its last table
            table = tables[field][-1][0]
            np.add(table, literals[slot], out=table)
        columns += tables[field]
    count = len(pairs)
    # one record per grid row: the text before it, then its fields' columns
    grid = np.empty((min(count, PAIR_CHUNK), 1 + len(columns)), object)
    grid[:, 0] = literals[per_record]
    # the first record follows the head
    grid[0, 0] = literals[0]
    for start in range(0, count, PAIR_CHUNK):
        stop = min(start + PAIR_CHUNK, count)
        block = grid[: stop - start]
        # each end's rows, as intp once for the two or three gathers through them
        ends = {
            "a": pairs.first[start:stop].astype(np.intp),
            "b": pairs.second[start:stop].astype(np.intp),
            None: slice(start, stop),
        }
        for column, (table, index, end) in enumerate(columns, 1):
            block[:, column] = table[index[ends[end]]]
        sys.stdout.write("".join(block.ravel().tolist()))
        grid[0, 0] = literals[per_record]
    sys.stdout.write(literals[-1])


def _print_csv(header: list, rows) -> None:
    """Print the header and the rows as CSV."""
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _fields(text: str) -> list:
    """The comma-separated fields of ``text``; an empty one is a usage error."""
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty field in {text!r}")
    return parts


def _parse_metric(text: str, count: int) -> list:
    parts = _fields(text)
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated rationals")
    values = [rational_from_str(p) for p in parts]
    if any(v <= 0 for v in values):
        raise ValueError("metric entries must be positive")
    return values


def _datum_from_args(args, bound=None) -> symmdata.RestrictedDatum:
    """The datum the label options name; with a ``bound``, its box is checked first.

    The box [0, bound]^rank is refused from the catalog row's rank,
    before any Cartan data is built.
    """
    if args.label_pos not in (None, args.label):
        raise ValueError(f"LABEL {args.label_pos} conflicts with --label {args.label}")
    if None not in (args.ell, args.rank) and args.ell != args.rank:
        raise ValueError(f"--ell {args.ell} conflicts with --rank {args.rank}")
    ell = args.rank if args.rank is not None else args.ell
    if bound is not None:
        spectrum.require_box(symmdata.restricted_rank(args.label, r=args.r, ell=ell), bound)
    return symmdata.restricted_datum(args.label, r=args.r, ell=ell)


def _require_one_format(args) -> None:
    if args.csv and args.json:
        raise ValueError("--csv conflicts with --json")


def _cmd_table_delta(args) -> int:
    _require_one_format(args)
    if args.label:
        data = [_datum_from_args(args)]
    else:
        data = symmdata.table_rows()
    rows = [d.to_json() for d in data]
    if args.csv:
        _print_csv(
            ["label", "params", "restricted_type", "two_delta_bar"],
            [
                [row["label"],
                 ";".join(f"{k}={v}" for k, v in sorted(row["params"].items())),
                 row["restricted_type"], " ".join(row["two_delta_bar"])]
                for row in rows
            ],
        )
        return EXIT_OK
    if args.label and len(rows) == 1:
        payload = {"label": rows[0]["label"], "two_delta_bar": rows[0]["two_delta_bar"]}
    else:
        payload = {"rows": rows}
    lines = [
        f"{row['label']:7s} {str(row['params']):24s} "
        f"{row['restricted_type']:4s} ({', '.join(row['two_delta_bar'])})"
        for row in rows
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_rank2_catalog(args) -> int:
    _require_one_format(args)
    cases = spectrum.rank2_catalog()
    verified = all(
        spectrum.verify_rank2_pair(case, pair)
        for case in cases
        for pair in case.pairs
    )
    rows = [case.to_json() for case in cases]
    if args.csv:
        _print_csv(
            ["label", "restricted_type", "two_delta_bar", "polynomial", "pairs"],
            [
                [row["label"], row["restricted_type"], " ".join(row["two_delta_bar"]),
                 row["polynomial"], " | ".join(row["pairs"])]
                for row in rows
            ],
        )
        return EXIT_OK if verified else EXIT_CERT_FAILED
    payload = {"cases": rows, "all_pairs_verified": verified}
    lines = []
    for row in rows:
        lines.append(f"{row['label']:7s} [{row['restricted_type']}]  {row['polynomial']}")
        for pair in row["pairs"]:
            lines.append(f"         {pair}")
    lines.append(f"all pairs verified: {verified}")
    _emit(payload, args.json, lines)
    return EXIT_OK if verified else EXIT_CERT_FAILED


def _cmd_collide(args) -> int:
    datum = _datum_from_args(args, args.bound)
    pairs = spectrum.enumerate_collisions(
        datum, args.bound, exclude_dual_pairs=not args.include_duals
    )
    payload = {
        "label": datum.descriptor.label,
        "bound": args.bound,
        "include_duals": bool(args.include_duals),
    }
    _emit_pairs(
        payload, args.json, pairs, "collisions",
        {"dual_related": "dual", "eigenvalue": "value", "weight_a": "a", "weight_b": "b"},
        "{a} ~ {b}  eigenvalue {value}{dual}", "no collisions in the box",
    )
    return EXIT_OK


def _cmd_witness(args) -> int:
    datum = _datum_from_args(args)
    try:
        witness = spectrum.reflection_witness(datum)
    except spectrum.WitnessError as exc:
        payload = {"label": datum.descriptor.label, "error": str(exc)}
        _emit(payload, args.json, [f"no witness: {exc}"])
        return EXIT_CERT_FAILED
    payload = {"label": datum.descriptor.label, **witness.to_json()}
    _emit(
        payload,
        args.json,
        [
            f"v = {witness.weight_v}",
            f"w = {witness.weight_w}",
            f"eigenvalue = {rational_to_str(witness.eigenvalue)}",
        ],
    )
    return EXIT_OK


def _cmd_hopf(args) -> int:
    report = bundles.hopf_swap_theorem_scan(args.n, args.bound)
    payload = report.to_json()
    lines = [
        f"n = {report.n}, bound = {report.bound}",
        f"collision pairs: {report.collision_pairs} (all swaps: "
        f"{report.swap_pairs == report.collision_pairs})",
        f"non-swap collisions: {len(report.non_swap_pairs)}",
        f"reduction agreement: {report.agreement_pairs_checked} pairs, "
        f"{report.agreement_mismatches} mismatches",
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK if report.swap_theorem_holds else EXIT_CERT_FAILED


def _cmd_su2f(args) -> int:
    metric = None
    if args.metric is not None:
        metric = tuple(_parse_metric(args.metric, 2))
    report = su2f.simplicity_certificate(args.kmax, sample_metric=metric)
    payload = report.to_json()
    lines = [
        f"kmax = {report.kmax}",
        f"within-k forms distinct: {report.within_k_distinct}",
        f"cross-k injective: {report.cross_k_injective}",
    ]
    if metric is not None:
        lines.append(
            f"metric ({rational_to_str(metric[0])}, {rational_to_str(metric[1])}): "
            f"{len(report.metric_collisions)} collisions"
        )
    lines.append(f"certified: {report.certified}")
    if args.json:
        # each record is [[k, d^2], [k', d'^2], value]
        pairs = report.metric_collisions
        _emit_pairs(payload, True, pairs, "metric_collisions", ["a", "b", "value"])
    else:
        _emit(payload, False, lines)
    return EXIT_OK if report.certified else EXIT_CERT_FAILED


def _cmd_product(args) -> int:
    labels = [p.strip() for p in _fields(args.factors)]
    spectrum.require_box(len(labels), args.bound)
    factors = [products.factor_spectrum(label, args.bound) for label in labels]
    if args.beta is not None:
        beta = _parse_metric(args.beta, len(factors))
        pairs = products.check_beta(factors, beta, args.bound)
        payload = {
            "factors": labels,
            "bound": args.bound,
            "beta": [rational_to_str(b) for b in beta],
        }
        _emit_pairs(
            payload, args.json, pairs, "collisions",
            {"array_a": "a", "array_b": "b", "value": "value"},
            "{a} ~ {b} at {value}", "no collisions: beta is certified on this box",
        )
        return EXIT_OK if not pairs else EXIT_CERT_FAILED
    certificate = products.generic_beta_certificate(factors, args.bound)
    payload = certificate.to_json()
    lines = [
        f"certified beta = ({', '.join(rational_to_str(b) for b in certificate.beta)})",
        f"hyperplanes avoided: {certificate.hyperplanes}",
        f"distinct eigenvalues checked: {certificate.distinct_values}",
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_simplicity(args) -> int:
    if args.family == "su2f" and args.n is not None:
        raise ValueError("--n applies only to --family hopf")
    if args.mode is not None and args.metric is None:
        raise ValueError("--mode applies only with --metric")
    if args.family == "su2f":
        family = su2f.su2f_representation_family(args.bound)
    else:
        family = bundles.hopf_representation_family(2 if args.n is None else args.n, args.bound)
    violations = {
        "condition_a": [list(p) for p in simplicity.condition_a(family)],
        "condition_b": simplicity.condition_b(family),
        "condition_c": simplicity.condition_c(family),
    }
    payload = {
        "family": args.family,
        "bound": args.bound,
        "entries": len(family),
        **violations,
    }
    ok = not any(violations.values())
    lines = [
        f"family {args.family}: {len(family)} entries",
        f"identically-vanishing pair resultants: {violations['condition_a']}",
        f"identically-vanishing res(p, p'): {violations['condition_b']}",
        f"identically-vanishing res(p, p''): {violations['condition_c']}",
    ]
    if args.metric is not None:
        values = _parse_metric(args.metric, len(family.params))
        point = dict(zip(family.params, values))
        mode = args.mode or "real"
        report = simplicity.evaluate_at_metric(family, point, mode=mode)
        payload["metric_report"] = report.to_json()
        ok = ok and report.ok
        lines.append(
            f"at metric {args.metric} [{mode}]: "
            + ("all conditions hold" if report.ok else "violations found")
        )
    _emit(payload, args.json, lines)
    return EXIT_OK if ok else EXIT_CERT_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: a ``_cmd_*`` function patched after that call is not run."""
    parser = argparse.ArgumentParser(
        prog="casimirspec",
        description="Exact Laplace-Casimir spectra and simplicity certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_label_opts(p):
        p.add_argument("label_pos", nargs="?", metavar="LABEL", default=None)
        p.add_argument("--label", default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--rank", type=int, default=None,
                       help="restricted rank (alias for --ell; for AI this is r)")

    p = sub.add_parser("table-delta", help="half-sum coefficient catalog")
    add_label_opts(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_table_delta)

    p = sub.add_parser("rank2-catalog", help="rank-two polynomials and pairs")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_rank2_catalog)

    p = sub.add_parser("collide", help="exhaustive collision search")
    add_label_opts(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--include-duals", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_collide)

    p = sub.add_parser("witness", help="reflection collision certificate")
    add_label_opts(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("hopf", help="Hopf swap-theorem scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hopf)

    p = sub.add_parser("su2f", help="SU(2)/F simplicity certificate")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--metric", default=None, help="two rationals, e.g. 1,2 or 1/2,3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_su2f)

    p = sub.add_parser("product", help="weighted products of rank-one spaces")
    p.add_argument("--factors", required=True, help="comma list, e.g. S2,S2 or CP2,OP2")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--beta", default=None, help="check this weight vector instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("simplicity", help="resultant condition engines")
    p.add_argument("--family", choices=("su2f", "hopf"), required=True)
    p.add_argument("--bound", type=int, required=True,
                   help="kmax for su2f, max p+q for hopf")
    p.add_argument("--n", type=int, default=None, help="hopf fibration parameter (default 2)")
    p.add_argument("--metric", default=None)
    p.add_argument("--mode", choices=("real", "complex"), default=None,
                   help="with --metric: real (default) or complex")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simplicity)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "label_pos"):
        if args.label is None:
            args.label = args.label_pos
        if args.label is None and args.func is not _cmd_table_delta:
            parser.error("a space label is required")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes to devnull so
        # that the flush at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

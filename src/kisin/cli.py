"""Batch front-end: parse instance descriptions, run computations, emit
JSON/DOT reports.

Exit codes: 0 success, 1 golden verification mismatch, 2 invalid config,
3 precondition violated, 4 internal theorem-violation assertion.  Output is
deterministic: strata are sorted by label and JSON keys are sorted.  Reports are
written by ``_json``, byte-identical to ``json.dumps(indent=2, sort_keys=True)``,
which is its test oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

from . import connectivity, multicopy, normal_form, oracle, strata
from .core import ExtAffine, GroupShape, Root, is_dominant, is_minuscule
from .errors import ConfigError, KisinError, PreconditionError, TheoremViolationError

SCHEMA = 2


# ---------------------------------------------------------------------------
# parsing helpers


def _is_int(x) -> bool:
    """A JSON integer; booleans are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_nested(text: str, blocks: int, n: int, what: str) -> tuple:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: invalid JSON ({exc})")
    if not isinstance(data, list):
        raise ConfigError(f"{what}: expected a JSON list")
    if data and not isinstance(data[0], list):
        data = [data]  # a single block written flat
    if len(data) != blocks or any(not isinstance(b, list) or len(b) != n for b in data):
        raise ConfigError(f"{what}: expected {blocks} blocks of length {n}")
    if any(not _is_int(x) for b in data for x in b):
        raise ConfigError(f"{what}: entries must be integers")
    return tuple(tuple(b) for b in data)


def _parse_perms(text: str, blocks: int, n: int) -> tuple:
    data = _parse_nested(text, blocks, n, "w")
    perms = []
    for b in data:
        if sorted(b) != list(range(1, n + 1)):
            raise ConfigError("w blocks must be one-line permutations of 1..n")
        perms.append(tuple(x - 1 for x in b))
    return tuple(perms)


def _blocks(args) -> int:
    """The block count: the length of the parsed --eps, else --f."""
    return len(args.eps) if args.eps is not None else args.f


def parse_instance(args) -> None:
    """Replace the JSON strings of --eps, --tau, --w and --mu (when the
    command has it) with their parsed tuples, checked in that order; n and
    the block count (from --eps, else --f) are checked before --tau, so a
    bad count is not reported as a misshapen block list."""
    if args.eps is not None:
        try:
            eps = json.loads(args.eps)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"eps: invalid JSON ({exc})")
        if not isinstance(eps, list) or not all(_is_int(x) for x in eps):
            raise ConfigError("eps must be a JSON list of integers")
        args.eps = tuple(eps)
    blocks = _blocks(args)
    if args.n < 1 or blocks < 1:
        raise ConfigError("n and blocks must be positive")
    if args.tau is not None or args.w is not None:
        if args.tau is None or args.w is None:
            raise ConfigError("explicit b needs both --tau and --w")
        args.tau = _parse_nested(args.tau, blocks, args.n, "tau")
        args.w = _parse_perms(args.w, blocks, args.n)
    if getattr(args, "mu", None) is not None:
        args.mu = _parse_nested(args.mu, blocks, args.n, "mu")
        if not is_dominant(args.mu):
            raise ConfigError("mu must be dominant")


def resolve_datum(args):
    """Build the Frobenius datum from parsed instance arguments; returns
    (datum, reduction z or None)."""
    if args.m is not None:
        if args.eps is not None:
            raise ConfigError("Caruso data use --f; --eps needs an explicit --tau/--w")
        if args.tau is not None:
            raise ConfigError("--m builds a Caruso datum; it takes no --tau/--w")
        return normal_form.caruso_datum(args.n, args.f, args.p, args.m), None
    if args.tau is None:
        raise ConfigError("either --m (Caruso) or --tau/--w must be given")
    if args.eps is not None:
        shape = GroupShape(n=args.n, blocks=len(args.eps), eps=args.eps, p=args.p)
    else:
        shape = GroupShape.res_field(args.n, args.f, args.p)
    datum = normal_form.make_datum(shape, ExtAffine(args.tau, args.w))
    if datum.alcove_ok:
        return datum, None
    if not args.alcove_reduce:
        raise PreconditionError("fixed point not in the alcove; pass --alcove-reduce")
    z, reduced = normal_form.alcove_reduce(datum)
    return reduced, z


# ---------------------------------------------------------------------------
# serialization


def ser_cochar(v) -> list:
    return [list(b) for b in v]


def ser_perms(w) -> list:
    return [[x + 1 for x in b] for b in w]


def ser_root(a: Root) -> dict:
    return {"block": a.block + 1, "i": a.i + 1, "j": a.j + 1}


def ser_ratio(num: int, den: int) -> str:
    """num / den for den > 0 in lowest terms by one gcd: "num/den" with the
    sign on num, or the integer alone when den divides num.  Every fixed
    point, in the reports and the scripts, is written through it."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def ser_datum(datum) -> dict:
    den = datum.e_den
    return {
        "p": datum.shape.p,
        "n": datum.shape.n,
        "eps": list(datum.shape.eps),
        "tau": ser_cochar(datum.tau),
        "w": ser_perms(datum.w),
        "e": [[ser_ratio(x, den) for x in b] for b in datum.e_num],
        "alcove_ok": datum.alcove_ok,
    }


def ser_stratum(s) -> dict:
    return {
        "lam": ser_cochar(s.lam),
        "nat": ser_cochar(s.nat),
        "dag": ser_cochar(s.dag),
        "dim": s.dim if s.dim is not None else "unknown",
        "singleton": s.singleton,
        "singleton_rule": s.singleton_rule,
        "r_set": [ser_root(a) for a in s.r_set] if s.r_set is not None else None,
        "d_set": [ser_root(a) for a in s.d_set],
        "block_sums": list(strata.sum_profile(s.lam)),
    }


def _int_array_breaks(pad: str) -> tuple:
    """What "], [", ", ", "[[" and "]]" of the repr of a list of int lists
    become in its report text at indent pad."""
    inner = pad + "  "
    deep = inner + "  "
    return (
        "\n" + inner + "],\n" + inner + "[\n" + deep,
        ",\n" + deep,
        "[\n" + inner + "[\n" + deep,
        "\n" + inner + "]\n" + pad + "]",
    )


def _json(x, pad: str = "") -> str:
    """The text of ``json.dumps(x, indent=2, sort_keys=True)``, its test oracle,
    built without the pure-Python encoder that any indent selects there.  It
    takes only what reports hold: dicts with str keys, lists, str, int of any
    size, bool and None; anything else, a float or a tuple included, is a
    TypeError."""
    if isinstance(x, dict):
        if not x:
            return "{}"
        if not all(isinstance(k, str) for k in x):
            raise TypeError("report keys must be str")
        inner = pad + "  "
        items = [
            encode_basestring_ascii(k) + ": " + (int.__repr__(v) if type(v) is int else _json(v, inner))
            for k, v in sorted(x.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(x, list):
        if not x:
            return "[]"
        # a list of non-empty lists of exact ints (a cochar, say) from its
        # repr, where ", " only separates ints and "], [" only blocks
        if (
            type(x[0]) is list
            and type(x) is list
            and set(map(type, x)) == {list}
            and all(x)
            and set(map(type, chain.from_iterable(x))) == {int}
        ):
            blocks, ints, head, tail = _int_array_breaks(pad)
            return repr(x).replace("], [", blocks).replace(", ", ints).replace("[[", head).replace("]]", tail)
        inner = pad + "  "
        # an exact type test, since bool is a subclass of int
        if set(map(type, x)) == {int}:
            items = map(int.__repr__, x)
        else:
            items = [_json(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is True or x is False:
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def emit(report: dict) -> None:
    sys.stdout.write(_json(report) + "\n")


def graph_dot(graph) -> str:
    lines = ["graph strata {"]
    for s in graph.vertices:
        label = f"lam={s.lam}\\ndim={s.dim if s.dim is not None else '?'}\\nsingleton={s.singleton}"
        lines.append(f'  "{s.lam}" [label="{label}"];')
    for lam, lam2, alpha in graph.edges:
        lines.append(
            f'  "{lam}" -- "{lam2}" [label="covee b{alpha.block + 1}:({alpha.i + 1},{alpha.j + 1})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_normal_form(args) -> int:
    parse_instance(args)
    datum, z = resolve_datum(args)
    report = {
        "schema": SCHEMA,
        "command": "normal-form",
        "datum": ser_datum(datum),
        "reduced": z is not None,
    }
    if z is not None:
        report["z"] = {"chi": ser_cochar(z.chi), "y": ser_perms(z.w)}
    emit(report)
    return 0


def _strata_report(datum, mu) -> dict:
    ss = strata.enumerate_strata(datum, mu)
    return {
        "schema": SCHEMA,
        "command": "strata",
        "datum": ser_datum(datum),
        "mu": ser_cochar(mu),
        "mu_minuscule": is_minuscule(mu),
        "count": len(ss),
        "strata": [ser_stratum(s) for s in ss],
        "empty": not ss,
    }


def cmd_strata(args) -> int:
    parse_instance(args)
    if args.mu is None:
        raise ConfigError("--mu is required")
    datum, _ = resolve_datum(args)
    emit(_strata_report(datum, args.mu))
    return 0


def cmd_graph(args) -> int:
    parse_instance(args)
    if args.mu is None:
        raise ConfigError("--mu is required")
    datum, _ = resolve_datum(args)
    graph = connectivity.build_graph(datum, args.mu)
    report = connectivity.pi0_report(graph)
    if args.out == "dot":
        sys.stdout.write(graph_dot(graph))
        return 0
    emit(
        {
            "schema": SCHEMA,
            "command": "graph",
            "datum": ser_datum(datum),
            "mu": ser_cochar(args.mu),
            "vertices": [ser_stratum(s) for s in graph.vertices],
            "edges": [
                {"from": ser_cochar(a), "to": ser_cochar(b), "coroot": ser_root(r)}
                for a, b, r in graph.edges
            ],
            "components": [[ser_cochar(l) for l in comp] for comp in graph.components],
            "pi0": {"upper_bound": report.upper_bound, "exactness": report.exactness},
        }
    )
    return 0


def cmd_multicopy(args) -> int:
    parse_instance(args)
    if args.mu is None:
        raise ConfigError("--mu is required")
    datum, _ = resolve_datum(args)
    chi, mu_omega = strata.omega_reduction(args.mu)
    datum2, mu2 = strata.central_twist(datum, args.mu, chi)
    ms = [b[0] for b in mu2]
    d = args.d if args.d is not None else max(max(ms), 1)
    mu_bullet = multicopy.decompose_mu(mu2, d)
    multi = multicopy.make_multi(datum2, d)
    zero = multicopy.unique_zero_stratum(multi, mu_bullet)
    ok, bad = multicopy.recursion_check(multi, mu_bullet, zero.lam)
    if not ok:
        raise TheoremViolationError(f"recursion check failed at block {bad}")
    emit(
        {
            "schema": SCHEMA,
            "command": "multicopy",
            "datum": ser_datum(datum2),
            "central_chi": ser_cochar(chi),
            "mu": ser_cochar(args.mu),
            "mu_omega": ser_cochar(mu_omega),
            "d": d,
            "mu_bullet": ser_cochar(mu_bullet),
            "zero_stratum": ser_stratum(zero),
            "recursion_ok": ok,
            "projection": ser_cochar(multicopy.project_first(multi, zero.lam)),
        }
    )
    return 0


def cmd_chain_gl3(args) -> int:
    parse_instance(args)
    if args.n != 3 or args.f != 1 or _blocks(args) != 1:
        raise ConfigError("chain-gl3 requires --n 3 --f 1")
    if args.mu is None:
        raise ConfigError("--mu is required")
    datum, _ = resolve_datum(args)
    lam = _parse_nested(args.lam, 1, 3, "lam")
    lam2 = _parse_nested(args.lam_prime, 1, 3, "lam-prime")
    chain, steps = connectivity.chain_gl3(datum, args.mu, lam, lam2)
    emit(
        {
            "schema": SCHEMA,
            "command": "chain-gl3",
            "datum": ser_datum(datum),
            "mu": ser_cochar(args.mu),
            "chain": [ser_cochar(l) for l in chain],
            "steps": [ser_cochar(s) for s in steps],
        }
    )
    return 0


def cmd_oracle_count(args) -> int:
    parse_instance(args)
    if args.f != 1 or _blocks(args) != 1:
        raise ConfigError("oracle-count requires --f 1")
    if args.box < 0:
        raise ConfigError(f"--box must be non-negative, got {args.box}")
    if args.mu is None:
        raise ConfigError("--mu is required")
    datum, _ = resolve_datum(args)
    field = oracle.GF(args.p, args.field_deg)
    pts = oracle.kisin_points(datum, args.mu, field, args.box)
    by_lambda: dict = {}
    for _, lam in pts:
        key = json.dumps(ser_cochar(lam))
        by_lambda[key] = by_lambda.get(key, 0) + 1
    emit(
        {
            "schema": SCHEMA,
            "command": "oracle-count",
            "field": {"p": args.p, "deg": args.field_deg},
            "box": args.box,
            "count": len(pts),
            "by_lambda": by_lambda,
            "points": [
                {
                    "lambda": ser_cochar(lam),
                    "matrix": [list(row) for row in g],
                }
                for g, lam in pts
            ],
        }
    )
    return 0


# ---------------------------------------------------------------------------
# golden counterexample verification

CASES = {
    "a": {
        "title": "GL4 twisted by u^(2,0,2,0)(1 2 4 3)",
        "n": 4,
        "f": 1,
        "tau": lambda p: ((2, 0, 2, 0),),
        "w": ((1, 3, 0, 2),),  # the 4-cycle 1 -> 2 -> 4 -> 3 -> 1
        "mu": lambda p: ((2 * p - 1, p, p, 1),),
        "expected": (((1, 1, 1, 1),), ((2, 1, 1, 0),)),
        "rules": {((1, 1, 1, 1),): "central", ((2, 1, 1, 0),): "d-set"},
    },
    "b": {
        "title": "Res GL3, f=2",
        "n": 3,
        "f": 2,
        "tau": lambda p: ((2, 0, 1), (0, 0, 1)),
        "w": ((1, 2, 0), (0, 1, 2)),  # (3-cycle, identity)
        "mu": lambda p: ((p + 1, 0, 0), (p, p, 0)),
        "expected": (((1, 0, 1), (0, 0, 1)), ((1, 1, 0), (1, 0, 0))),
        "rules": {
            ((1, 0, 1), (0, 0, 1)): "d-set",
            ((1, 1, 0), (1, 0, 0)): "dominant-minuscule",
        },
    },
}


def counterexample(case: dict, p: int) -> tuple:
    """(datum, mu) of a golden counterexample of CASES at the prime p."""
    shape = GroupShape.res_field(case["n"], case["f"], p)
    return normal_form.make_datum(shape, ExtAffine(case["tau"](p), case["w"])), case["mu"](p)


def cmd_verify_counterexample(args) -> int:
    case = CASES.get(args.case)
    if case is None:
        raise ConfigError("case must be a or b")
    p = args.p
    if p < 3:
        raise ConfigError("counterexample verification requires p >= 3")
    datum, mu = counterexample(case, p)
    if not datum.alcove_ok:
        raise TheoremViolationError("counterexample datum is not alcove-reduced")
    graph = connectivity.build_graph(datum, mu)
    report = connectivity.pi0_report(graph)
    got = tuple(sorted(s.lam for s in graph.vertices))
    expected = tuple(sorted(case["expected"]))
    ok = (
        got == expected
        and all(s.singleton == "proven" for s in graph.vertices)
        and all(case["rules"][s.lam] == s.singleton_rule for s in graph.vertices)
        and report.exactness == "exact"
        and report.upper_bound == 2
    )
    emit(
        {
            "schema": SCHEMA,
            "command": "verify-counterexample",
            "case": args.case,
            "p": p,
            "datum": ser_datum(datum),
            "mu": ser_cochar(mu),
            "expected": [ser_cochar(l) for l in expected],
            "strata": [ser_stratum(s) for s in graph.vertices],
            "pi0": {"upper_bound": report.upper_bound, "exactness": report.exactness},
            "ok": ok,
        }
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing


class _Opt(NamedTuple):
    """One argument of a command: an option string, or a positional's name."""

    flag: str
    dest: str
    type: type = str  # bool: a flag that takes no value (store_true)
    default: object = None
    required: bool = False
    choices: Optional[tuple] = None
    help: Optional[str] = None


_INSTANCE = (
    _Opt("--p", "p", int, required=True),
    _Opt("--n", "n", int, required=True),
    _Opt("--f", "f", int, 1),
    _Opt("--eps", "eps", help="JSON list of scale factors, overrides --f"),
    _Opt("--m", "m", int, help="Caruso parameter"),
    _Opt("--tau", "tau", help="JSON nested int arrays"),
    _Opt("--w", "w", help="JSON one-line permutations (1-indexed)"),
    _Opt("--alcove-reduce", "alcove_reduce", bool, False),
)
_MU = (_Opt("--mu", "mu", help="JSON nested int arrays"),)

# command -> (help, function, arguments in the order argparse lists them)
COMMANDS = {
    "normal-form": ("Caruso datum, fixed point, alcove reduction", cmd_normal_form, _INSTANCE),
    "strata": ("stratum labels with dims and singleton verdicts", cmd_strata, _INSTANCE + _MU),
    "graph": (
        "coroot-curve graph and pi0 report",
        cmd_graph,
        _INSTANCE + _MU + (_Opt("--out", "out", default="json", choices=("json", "dot")),),
    ),
    "multicopy": (
        "unique zero-dimensional stratum and recursion check",
        cmd_multicopy,
        _INSTANCE + _MU + (_Opt("--d", "d", int),),
    ),
    "chain-gl3": (
        "coroot chain between two GL3 strata",
        cmd_chain_gl3,
        _INSTANCE + _MU + (_Opt("--lam", "lam", required=True), _Opt("--lam-prime", "lam_prime", required=True)),
    ),
    "oracle-count": (
        "brute-force point enumeration over a small field",
        cmd_oracle_count,
        _INSTANCE + _MU + (_Opt("--field-deg", "field_deg", int, 1), _Opt("--box", "box", int, 2)),
    ),
    "verify-counterexample": (
        "golden disconnectedness checks",
        cmd_verify_counterexample,
        (_Opt("case", "case", required=True, choices=("a", "b")), _Opt("--p", "p", int, required=True)),
    ),
}

# per command: (positionals, options by flag, defaults, required dests)
_LOOKUP = {
    cmd: (
        tuple(o for o in opts if o.flag[0] != "-"),
        {o.flag: o for o in opts if o.flag[0] == "-"},
        {o.dest: o.default for o in opts},
        frozenset(o.dest for o in opts if o.required),
    )
    for cmd, (_, _, opts) in COMMANDS.items()
}


def _command_fn(cmd: str):
    """The function of cmd as this module binds it when arguments are
    parsed, so that a rebinding of it (a tracing wrapper, say) is seen."""
    return globals()[COMMANDS[cmd][1].__name__]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kisin", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, (text, _, opts) in COMMANDS.items():
        sp = sub.add_parser(cmd, help=text)
        for o in opts:
            if o.flag[0] != "-":
                sp.add_argument(o.flag, type=o.type, choices=o.choices, help=o.help)
            elif o.type is bool:
                sp.add_argument(o.flag, action="store_true", dest=o.dest, help=o.help)
            else:
                sp.add_argument(
                    o.flag, type=o.type, default=o.default, required=o.required, choices=o.choices,
                    dest=o.dest, help=o.help,
                )
        sp.set_defaults(fn=_command_fn(cmd))
    return ap


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call that needs it rather than at
    import; parse_args keeps no state between calls, so one serves every
    call."""
    return build_parser()


def _plain_args(argv):
    """The Namespace argparse gives for argv, read from COMMANDS when argv has
    the plain form, else None.  The plain form is the command, its
    positionals, then exact option strings, each option that stores followed
    by a value not starting with -, every value converting by its type and
    within its choices, and every required option given; a repeated option
    keeps its last value, as argparse's store does."""
    if not argv or argv[0] not in _LOOKUP:
        return None
    cmd = argv[0]
    positionals, options, defaults, required = _LOOKUP[cmd]
    end = len(positionals) + 1
    if len(argv) < end:
        return None
    pairs = list(zip(positionals, argv[1:end]))
    values = dict(defaults)
    i = end
    while i < len(argv):
        o = options.get(argv[i])
        if o is None:
            return None
        if o.type is bool:
            values[o.dest] = True
            i += 1
        elif i + 1 < len(argv):
            pairs.append((o, argv[i + 1]))
            i += 2
        else:
            return None
    for o, token in pairs:
        if token[:1] == "-":
            return None
        try:
            value = o.type(token)
        except (TypeError, ValueError):
            return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
    if not required <= {o.dest for o, _ in pairs}:
        return None
    return argparse.Namespace(cmd=cmd, fn=_command_fn(cmd), **values)


def _parse(argv) -> argparse.Namespace:
    """The arguments of argv (sys.argv[1:] when None): read from the option
    table in the plain form, else parsed by argparse, which alone prints help
    and rejects arguments, with its own messages and exit codes."""
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    return args if args is not None else _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # reports print exact integers and rationals of any size, so the
    # interpreter's limit on the decimal digits of an int (4,300 by default,
    # absent before Python 3.10.7) is lifted while the command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except KisinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

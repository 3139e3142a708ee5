"""Command-line surface over JSON documents.

Exit codes: 0 success, 2 a mathematical criterion failed (witness in the JSON
output), 3 parse or schema error, 4 numerical failure, which includes an
answer holding NaN or +-Infinity (serialize.check_finite).  Results go to
--out (default stdout); a one-line human summary goes to stderr.  Floats are
serialized with shortest-roundtrip repr, so documents reconstruct exactly.
Input documents are decoded by orjson when ``_plain`` shows that it builds
the tree ``json.loads`` builds; every other text, and every decode error,
goes through ``json.loads``.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import gc
import json
import math
import os
import sys

import orjson

from . import algebra, ideals, matalg, serialize, weights
from .coeffseq import inf_abs
from .errors import (InvalidArgument, MathConditionError, NumericalError,
                     SchemaError, complex_json)

EXIT_OK = 0
EXIT_MATH = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4

# deepest nesting that _plain passes to orjson; json.loads recurses once per
# level and reports a deep document as nested too deeply, orjson does not
_DEPTH = 32
_RUN = b"0" * 19
# digits read as "0", "." as itself and every other byte as " "
_DIGITS = bytes(ord("0") if c in b"0123456789" else c if c == ord(".") else ord(" ")
                for c in range(256))
_SQUARE = bytes.maketrans(b"{}", b"[]")
_NOT_NEST = bytes(c for c in range(256) if c not in b'[]{}"')


def _plain(text: str) -> bool:
    """True only if orjson.loads(text) raises or builds the tree json.loads
    builds.  orjson reads ints outside [-2^63, 2^64) as floats and reads
    nesting that json refuses as too deep; escapes and non-ASCII text are
    left to json.  So False for: non-ASCII text; a backslash; a run of 19 or
    more digits not after a "." (an integer part or exponent of 19 or more
    digits, or a fraction of 38 or more); more than _DEPTH opening brackets
    where a string holds a bracket or the nesting is deeper than _DEPTH.
    """
    if not text.isascii() or "\\" in text:
        return False
    raw = text.encode()
    digits = raw.translate(_DIGITS)
    # each run of n >= 19 digits holds n // 19 _RUNs, the first at its start
    if _RUN in digits and digits.count(_RUN) != digits.count(b"." + _RUN):
        return False
    # the brackets and quotes, less the "" of each string with no bracket; a
    # string with one leaves a quote, which no pass below drops
    nest = raw.translate(_SQUARE, _NOT_NEST).replace(b'""', b"")
    if nest.count(b"[") <= _DEPTH:
        return True
    for _ in range(_DEPTH):  # each pass drops the innermost level
        nest = nest.replace(b"[]", b"")
    return not nest


def _load_doc(args) -> object:
    if args.json is None:
        raise SchemaError("this subcommand needs an input document (--json)")
    name = "standard input" if args.json == "-" else args.json
    try:
        if args.json == "-":
            text = sys.stdin.read()
        else:
            with open(args.json) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {name}: {exc}") from exc
    if _plain(text):
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            pass  # json.loads below reads it, or words its error
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past 4300 digits
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"invalid JSON: {name} is nested too deeply") from None


def _field(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"input document needs a {key!r} field")
    return doc[key]


def _parse_z(text: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise SchemaError(f"cannot parse point {text!r}") from exc
    if not cmath.isfinite(z):
        raise SchemaError(f"point {text!r} is not finite")
    return z


def _finite_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return v


def _elements(doc, key) -> list:
    docs = _field(doc, key)
    if not isinstance(docs, list):
        raise SchemaError(f"{key!r} must be a list of element documents")
    return [serialize.element_from_json(d, f"{key}[{k}].") for k, d in enumerate(docs)]


def _named(doc, key):
    return serialize.element_from_json(_field(doc, key), key + ".")


def _matrix(doc, key):
    return serialize.matrix_from_json(_field(doc, key))


# each operation's inputs, read in the order their errors are reported; an
# operation not listed reads the document as one element (one matrix).  The
# handlers read them before computing, so the decoded document is freed first
_ELEM_INPUTS = {
    "divide": lambda doc: (_named(doc, "f"), _named(doc, "g")),
    "gcd": lambda doc: (_elements(doc, "elements"),),
    "ideal-member": lambda doc: (_named(doc, "f"), _elements(doc, "generators")),
    "corona": lambda doc: (_elements(doc, "elements"),),
    "bass-reduce": lambda doc: (_named(doc, "f1"), _named(doc, "f2")),
}
_MAT_INPUTS = {
    "mul": lambda doc: (_matrix(doc, "A"), _matrix(doc, "B")),
    "solve": lambda doc: (_matrix(doc, "A"), _matrix(doc, "b")),
}


# ---------------------------------------------------------------------------
# elem subcommands


def _cmd_elem(args):
    op = args.op
    read = _ELEM_INPUTS.get(op, lambda doc: (serialize.element_from_json(doc),))
    ins = read(_load_doc(args))
    f = ins[0]
    if op == "norm":
        return {"norm": algebra.norm(f)}, f"||f|| = {algebra.norm(f)}"
    if op == "eval":
        z = _parse_z(args.z)
        res = algebra.eval_at(f, z, tol=args.tol)
        return ({"value": complex_json(res.value), "error_bound": res.error_bound,
                 "terms": res.terms},
                f"f({z}) = {res.value} (+- {res.error_bound:.3e})")
    if op == "invert":
        delta, g = algebra.invertible(f)
        return ({"delta": delta, "inverse": serialize.element_to_json(g)},
                f"invertible, delta = {delta}")
    if op == "divide":
        C, h = algebra.divide(*ins)
        return ({"C": C, "quotient": serialize.element_to_json(h)},
                f"divisible, least C = {C}")
    if op == "gcd":
        d = algebra.gcd(*ins)
        return {"gcd": serialize.element_to_json(d)}, "gcd computed"
    if op == "ideal-member":
        C, hs = algebra.in_ideal(*ins)
        return ({"C": C, "coefficients": [serialize.element_to_json(h) for h in hs]},
                f"member, least C = {C}")
    if op == "corona":
        delta, gs = algebra.corona_solve(*ins)
        return ({"delta": delta,
                 "solution": [serialize.element_to_json(g) for g in gs]},
                f"corona condition holds, delta = {delta}")
    if op == "exp":
        return ({"exp": serialize.element_to_json(algebra.exp_el(f))},
                "exponential computed")
    if op == "log":
        lg = algebra.log_el(f)
        return ({"log": serialize.element_to_json(lg), "norm": algebra.norm(lg)},
                f"logarithm computed, ||log g|| = {algebra.norm(lg)}")
    if op == "idempotent":
        flag = algebra.is_idempotent(f)
        return {"idempotent": flag}, f"idempotent: {flag}"
    if op == "approx-invert":
        g = algebra.approx_invertible(f, args.eps)
        dist = algebra.norm(algebra.sub(g, f))
        return ({"eps": args.eps, "result": serialize.element_to_json(g),
                 "distance": dist},
                f"invertible approximant at distance {dist} <= {2 * args.eps}")
    # bass-reduce
    h, witness = algebra.bass_reduce(*ins)
    return ({"h": serialize.element_to_json(h),
             "witness": serialize.element_to_json(witness),
             "delta": inf_abs(witness.u)},
            "pair reduced: f1 + h*f2 invertible")


# ---------------------------------------------------------------------------
# mat subcommands


def _cmd_mat(args):
    op = args.op
    read = _MAT_INPUTS.get(op, lambda doc: (serialize.matrix_from_json(doc),))
    ins = read(_load_doc(args))
    A = ins[0]
    if op == "mul":
        return ({"product": serialize.matrix_to_json(matalg.mat_mul(*ins))},
                "product computed")
    if op == "det":
        return ({"det": serialize.element_to_json(matalg.mat_det(A))},
                "determinant computed")
    if op == "solve":
        delta, x = matalg.mat_solve(*ins, rtol=args.tol)
        # "inf" is the delta of x = 0 alone; an overflowed 1/sup|x| is refused
        return ({"delta": delta if x.array.any() else "inf",
                 "x": serialize.matrix_to_json(x)},
                f"solved, delta = {delta}")
    if op == "exp":
        return ({"exp": serialize.matrix_to_json(matalg.mat_exp(A))},
                "matrix exponential computed")
    if op == "log":
        return ({"log": serialize.matrix_to_json(matalg.mat_log(A))},
                "matrix logarithm computed")
    if op == "sl-factor":
        factors, err = matalg.sl_factor(A, tol=args.tol)
        return ({"factors": serialize.factors_to_json(factors),
                 "verification": {"max_error": err, "tol": args.tol}},
                f"{len(factors)} elementary factors, max_error = {err:.3e}")
    # norm-bounds
    S, upper = matalg.mat_norm_bounds(A)
    return ({"spectral_sup": S, "entry_bound": upper},
            f"sup ||U(k)|| = {S} <= {upper}")


# ---------------------------------------------------------------------------
# ideal subcommands


def _cmd_ideal(args):
    op = args.op
    if op == "index-order":
        f = serialize.element_from_json(_load_doc(args))
        rep = ideals.index_order(f.u, args.k)
        return rep.to_json(), f"m(f, {args.k}) = {rep.m} [exact]"
    if op == "annihilator":
        f = serialize.element_from_json(_load_doc(args))
        chi = ideals.annihilator_generator(f)
        prod_zero = algebra.equal(algebra.star(f, chi), algebra.zero(f.weight))
        return ({"chi": serialize.element_to_json(chi),
                 "product_is_zero": prod_zero},
                f"annihilator generator computed, f*chi = 0: {prod_zero}")
    if op == "krull-family":
        blocks = [list(b) for b in ideals.zero_blocks(args.n, args.horizon)]
        sample = [0.0 if any(lo <= m <= hi for lo, hi in blocks) else 1.0
                  for m in range(min(64, args.horizon + 1))]
        return ({"n": args.n, "horizon": args.horizon, "zero_blocks": blocks,
                 "sample": sample, "certified": "horizon"},
                f"witness f_{args.n} generated, {len(blocks)} zero blocks")
    if op == "trajectory":
        # a document sampled at --ks, or the witness f_n traced to --horizon:
        # each mode refuses the other's flags
        other = ("n", "horizon") if args.json is not None else ("ks",)
        if any(getattr(args, f) is not None for f in other):
            raise InvalidArgument("trajectory takes --json and --ks, or --n and "
                                  "--horizon, not both")
        if args.json is not None:
            f = serialize.element_from_json(_load_doc(args))
            if not args.ks:
                raise SchemaError("trajectory over a document needs --ks")
            try:
                ks = [int(s) for s in args.ks.split(",")]
            except ValueError:
                raise InvalidArgument("--ks must be comma-separated integers, "
                                      f"got {args.ks!r}") from None
            rep = ideals.nonfixed_ideal_trajectory(f.u, ks)
            return rep.to_json(), f"trajectory [exact], verdict = {rep.verdict}"
        n = _FLAGS["n"]["default"] if args.n is None else args.n
        horizon = _FLAGS["horizon"]["default"] if args.horizon is None else args.horizon
        traj = ideals.krull_trajectory(n, horizon=horizon)
        return ({"n": n, "exponent": n + 1,
                 "ratios": [[k, r] for k, r in traj],
                 "certified": "horizon"},
                f"growth trajectory over {len(traj)} scales")
    # chain
    f, rep = ideals.chain_witness(args.kind, args.n, weights.from_name(args.weight))
    out = rep.to_json()
    out["witness_element"] = serialize.element_to_json(f)
    return out, f"{args.kind} witness for n = {args.n}: ok = {rep.ok}"


def _cmd_weight(args):
    names = weights.known_weights()
    return {"weights": names}, "\n".join(names)


# ---------------------------------------------------------------------------
# plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit with code 2; remap
        raise SchemaError(message)


_FLAGS = {
    "json": {"help": "input document path ('-' for stdin)"},
    "z": {"default": "0", "help": "evaluation point, e.g. '1+2j'"},
    "tol": {"type": _finite_float, "default": 1e-10},
    "eps": {"type": _finite_float, "default": 1e-10},
    "weight": {"default": "factorial"},
    "horizon": {"type": int, "default": 1 << 14},
    "k": {"type": int, "default": 0},
    "n": {"type": int, "default": 1},
    "ks": {"help": "comma-separated sample indices"},
    "kind": {"choices": ["noetherian", "artinian"], "default": "noetherian"},
    "out": {"help": "output path (default stdout)"},
}

# group -> (handler, {operation: the flags its handler reads, besides --out})
OPERATIONS = {
    "elem": (_cmd_elem, {
        "norm": ("json",), "eval": ("json", "z", "tol"), "invert": ("json",),
        "divide": ("json",), "gcd": ("json",), "ideal-member": ("json",),
        "corona": ("json",), "exp": ("json",), "log": ("json",),
        "idempotent": ("json",), "approx-invert": ("json", "eps"),
        "bass-reduce": ("json",)}),
    "mat": (_cmd_mat, {
        "mul": ("json",), "det": ("json",), "solve": ("json", "tol"),
        "exp": ("json",), "log": ("json",), "sl-factor": ("json", "tol"),
        "norm-bounds": ("json",)}),
    "ideal": (_cmd_ideal, {
        "index-order": ("json", "k"), "krull-family": ("n", "horizon"),
        "trajectory": ("n", "horizon", "json", "ks"),
        "annihilator": ("json",), "chain": ("weight", "kind", "n")}),
    "weight": (_cmd_weight, {"list": ()}),
}


# defaults the handler applies itself, to tell a flag given from one left out
_UNSET = {("ideal", "trajectory"): {"n": None, "horizon": None}}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The whole parser tree, and its leaf parser for each (group, op)."""
    # no abbreviations: --k must not stand for --ks where only --ks exists
    ap = _Parser(prog="hadalg", allow_abbrev=False)
    groups = ap.add_subparsers(dest="group", required=True)
    leaves = {}
    for group, (handler, ops) in OPERATIONS.items():
        op_parsers = groups.add_parser(group, allow_abbrev=False).add_subparsers(
            dest="op", required=True)
        for op, flags in ops.items():
            p = leaves[group, op] = op_parsers.add_parser(op, allow_abbrev=False)
            for flag in (*flags, "out"):
                p.add_argument("--" + flag, **_FLAGS[flag])
            p.set_defaults(func=handler, group=group, op=op,
                           **_UNSET.get((group, op), {}))
    return ap, leaves


_PARSER, _LEAVES = _build_parser()


def _parse(argv):
    """argv parsed by the leaf parser of its first two words when they name
    an operation, to the Namespace the whole tree gives, without walking its
    three levels.  Everything else goes through the tree: help at the upper
    levels, unknown words and flags before the operation."""
    if argv is None:
        argv = sys.argv[1:]
    leaf = _LEAVES.get(tuple(argv[:2]))
    if leaf is None:
        return _PARSER.parse_args(argv)
    return leaf.parse_args(argv[2:])


def _emit(payload: dict, args) -> None:
    """Write the document, opening --out before the first byte is formatted;
    any failure to write it, stdout's too, exits 3."""
    try:
        if args.out:
            with open(args.out, "w") as fh:
                serialize.dump(payload, fh)
                fh.write("\n")
            return
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        serialize.dump(payload, sys.stdout)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError as exc:
        raise SchemaError(f"cannot write {args.out or 'standard output'}: {exc}") from exc


def run(argv=None) -> int:
    # a request makes no reference cycles worth collecting (its decoded
    # document is a tree), so the cyclic collector's passes over everything
    # allocated free nothing: pause it, and leave it as the caller had it
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    try:
        args = _parse(argv)
        try:
            payload, summary = args.func(args)
            serialize.check_finite(payload)  # before --out is opened
            code = EXIT_OK
        except MathConditionError as exc:
            payload = {"error": str(exc), "witness": exc.witness()}
            summary, code = f"FAIL: {exc}", EXIT_MATH
        _emit(payload, args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(summary, file=sys.stderr)
    return code


def main() -> None:
    code = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # what a closed stdout refused stays buffered: drop it, so that
        # shutdown does not report the failure a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Command-line surface over JSON documents.

Exit codes: 0 success, 2 a mathematical criterion failed (witness in the JSON
output), 3 parse or schema error, 4 numerical failure.  Results go to --out
(default stdout); a one-line human summary goes to stderr.  Floats are
serialized with shortest-roundtrip repr, so documents reconstruct exactly.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import algebra, ideals, matalg, serialize, weights
from .coeffseq import inf_abs
from .errors import (InvalidArgument, MathConditionError, NumericalError,
                     SchemaError, complex_json)

EXIT_OK = 0
EXIT_MATH = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4


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


# ---------------------------------------------------------------------------
# elem subcommands


def _cmd_elem(args):
    doc = _load_doc(args)
    op = args.op
    if op == "norm":
        f = serialize.element_from_json(doc)
        return {"norm": algebra.norm(f)}, f"||f|| = {algebra.norm(f)}"
    if op == "eval":
        f = serialize.element_from_json(doc)
        z = _parse_z(args.z)
        res = algebra.eval_at(f, z, tol=args.tol)
        return ({"value": complex_json(res.value), "error_bound": res.error_bound,
                 "terms": res.terms},
                f"f({z}) = {res.value} (+- {res.error_bound:.3e})")
    if op == "invert":
        f = serialize.element_from_json(doc)
        inv = algebra.invertible(f)
        if inv is None:
            raise algebra.not_invertible_witness(f)
        delta, g = inv
        return ({"delta": delta, "inverse": serialize.element_to_json(g)},
                f"invertible, delta = {delta}")
    if op == "divide":
        f = serialize.element_from_json(_field(doc, "f"), "f.")
        g = serialize.element_from_json(_field(doc, "g"), "g.")
        C, h = algebra.divide(f, g)
        return ({"C": C, "quotient": serialize.element_to_json(h)},
                f"divisible, least C = {C}")
    if op == "gcd":
        fs = _elements(doc, "elements")
        d = algebra.gcd(fs)
        return {"gcd": serialize.element_to_json(d)}, "gcd computed"
    if op == "ideal-member":
        f = serialize.element_from_json(_field(doc, "f"), "f.")
        gens = _elements(doc, "generators")
        C, hs = algebra.in_ideal(f, gens)
        return ({"C": C, "coefficients": [serialize.element_to_json(h) for h in hs]},
                f"member, least C = {C}")
    if op == "corona":
        fs = _elements(doc, "elements")
        delta, gs = algebra.corona_solve(fs)
        return ({"delta": delta,
                 "solution": [serialize.element_to_json(g) for g in gs]},
                f"corona condition holds, delta = {delta}")
    if op == "exp":
        f = serialize.element_from_json(doc)
        return ({"exp": serialize.element_to_json(algebra.exp_el(f))},
                "exponential computed")
    if op == "log":
        g = serialize.element_from_json(doc)
        f = algebra.log_el(g)
        return ({"log": serialize.element_to_json(f), "norm": algebra.norm(f)},
                f"logarithm computed, ||log g|| = {algebra.norm(f)}")
    if op == "idempotent":
        f = serialize.element_from_json(doc)
        flag = algebra.is_idempotent(f)
        return {"idempotent": flag}, f"idempotent: {flag}"
    if op == "approx-invert":
        f = serialize.element_from_json(doc)
        eps = _FLAGS["tol"]["default"] if args.eps is None else args.eps
        g = algebra.approx_invertible(f, eps)
        dist = algebra.norm(algebra.sub(g, f))
        return ({"eps": eps, "result": serialize.element_to_json(g),
                 "distance": dist},
                f"invertible approximant at distance {dist} <= {2 * eps}")
    # bass-reduce
    quad = [serialize.element_from_json(_field(doc, k), k + ".")
            for k in ("f1", "f2", "g1", "g2")]
    eps = 0.25 if args.eps is None else args.eps
    h, witness = algebra.bass_reduce(*quad, eps=eps)
    return ({"h": serialize.element_to_json(h),
             "witness": serialize.element_to_json(witness),
             "delta": inf_abs(witness.u)},
            "pair reduced: f1 + h*f2 invertible")


# ---------------------------------------------------------------------------
# mat subcommands


def _cmd_mat(args):
    doc = _load_doc(args)
    op = args.op
    if op == "mul":
        A = serialize.matrix_from_json(_field(doc, "A"))
        B = serialize.matrix_from_json(_field(doc, "B"))
        return ({"product": serialize.matrix_to_json(matalg.mat_mul(A, B))},
                "product computed")
    if op == "det":
        A = serialize.matrix_from_json(doc)
        return ({"det": serialize.element_to_json(matalg.mat_det(A))},
                "determinant computed")
    if op == "solve":
        A = serialize.matrix_from_json(_field(doc, "A"))
        b = serialize.matrix_from_json(_field(doc, "b"))
        delta, x = matalg.mat_solve(A, b, rtol=args.tol)
        return ({"delta": "inf" if math.isinf(delta) else delta,
                 "x": serialize.matrix_to_json(x)},
                f"solved, delta = {delta}")
    if op == "exp":
        B = serialize.matrix_from_json(doc)
        return ({"exp": serialize.matrix_to_json(matalg.mat_exp(B))},
                "matrix exponential computed")
    if op == "log":
        B = matalg.mat_log(serialize.matrix_from_json(doc))
        return ({"log": serialize.matrix_to_json(B)}, "matrix logarithm computed")
    if op == "sl-factor":
        A = serialize.matrix_from_json(doc)
        factors, err = matalg.sl_factor(A, tol=args.tol)
        return ({"factors": serialize.factors_to_json(factors),
                 "verification": {"max_error": err, "tol": args.tol}},
                f"{len(factors)} elementary factors, max_error = {err:.3e}")
    # norm-bounds
    A = serialize.matrix_from_json(doc)
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
    "eps": {"type": _finite_float},
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
        "bass-reduce": ("json", "eps")}),
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


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --k must not stand for --ks where only --ks exists
    ap = _Parser(prog="hadalg", allow_abbrev=False)
    groups = ap.add_subparsers(dest="group", required=True)
    for group, (handler, ops) in OPERATIONS.items():
        op_parsers = groups.add_parser(group, allow_abbrev=False).add_subparsers(
            dest="op", required=True)
        for op, flags in ops.items():
            p = op_parsers.add_parser(op, allow_abbrev=False)
            for flag in (*flags, "out"):
                p.add_argument("--" + flag, **_FLAGS[flag])
            p.set_defaults(func=handler, **_UNSET.get((group, op), {}))
    return ap


_PARSER = _build_parser()


def _emit(payload: dict, args) -> None:
    text = serialize.dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        payload, summary = args.func(args)
    except MathConditionError as exc:
        # only args.func raises these, so args is bound
        _emit({"error": str(exc), "witness": exc.witness()}, args)
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_MATH
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(payload, args)
    print(summary, file=sys.stderr)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

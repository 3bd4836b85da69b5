"""Command-line interface: coefficient queries and verification suites.

Subcommands: lr, pieri, schur, kostka, classical, verify, verify-involutions.
Partitions are comma-separated positive integers; the empty string is the
empty partition.  Exit codes: 0 success, 2 usage or unsupported input
(an argument argparse refuses, or lr.UsageError, such as a Pieri tableau
outside 0 <= e < l(mu)), 3 verification mismatch, arithmetic overflow or
internal error (a RuntimeError or any other ValueError, reported as
"internal error: ...").  Output is deterministic for fixed flags;
verification cases run one after another in a fixed order.
verify also prints each suite's wall time and its 5 slowest cases to
stderr, so stdout stays byte-deterministic.
"""

import argparse
import heapq
import json
import sys
import time

from .apoly import APoly, _SPAN
from .sparse import Terms, accumulate
from .shapes import (
    iv,
    size,
    contains,
    is_partition,
    is_horizontal_strip,
    bad_compositions,
    apply_rbar,
    jacobi_trudi_fold,
    lr_targets,
    partitions_of,
    partitions_up_to,
)
from .formal_ring import staircase, pieri_sides
from .stable_ring import pieri_stable
from .tableaux import enumerate_k_tableaux, tableau_weight, row_word, apply_word
from .lr import (
    UsageError,
    pieri_tableau,
    kostka,
    c_theorem,
    c_corollary,
    c_alternating,
    alternating_product,
    theorem_product,
)
from .double_sym import double_schur_n, c_oracle, classical_lr
from .involutions import (
    classify_bad,
    psi,
    psi1,
    psi2,
    monomial_involution,
    monomial_weight,
    pieri_bad_pair,
    derived_monomial_tableaux,
)


def _partition(text):
    """Parse a comma-separated partition; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    if any(p < 1 for p in parts) or not is_partition(parts):
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    return parts


def _int_vector(text):
    """Parse a comma-separated integer vector (kostka first-index labels)."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer vector: {text!r}")


def _int_in_range(lo, hi=None):
    """Argument type: an integer no smaller than lo and, if hi is given, no larger."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}: {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}: {value}")
        return value

    return parse


def _emit(value, fmt):
    if fmt == "json":
        payload = value.to_json() if hasattr(value, "to_json") else value
        print(json.dumps(payload, sort_keys=True))
    else:
        print(value)


def _compare(values, fmt):
    """Print each method's value under its name; exit 3 unless all agree."""
    for name, value in values.items():
        if fmt == "json":
            print(f"{name}: " + json.dumps(value.to_json(), sort_keys=True))
        else:
            print(f"{name}: {value}")
    first, *rest = values.values()
    if any(v - first for v in rest):
        print("mismatch between methods", file=sys.stderr)
        return 3
    return 0


def _run_cases(cases, times=None):
    """Run (label, fn) pairs in order.

    Each fn returns None on success or a failure message; a case that raises
    fails with the exception as its message.  Returns the list of
    (label, failure-or-None) in the canonical input order.  A list times
    gets one (seconds, label) per case.
    """
    results = []
    for label, fn in cases:
        start = time.perf_counter()
        try:
            msg = fn()
        except Exception as exc:  # an internal error fails its case only
            msg = f"raised {exc!r}"
        if times is not None:
            times.append((time.perf_counter() - start, label))
        results.append((label, msg))
    return results


def cmd_lr(args):
    lam, mu, nu = args.lam, args.mu, args.nu
    methods = {
        "theorem": lambda: c_theorem(lam, mu, nu),
        "corollary": lambda: c_corollary(lam, mu, nu),
        "alternating": lambda: c_alternating(lam, mu, nu),
        "oracle": lambda: c_oracle(lam, mu, nu),
    }
    if args.method != "all":
        _emit(methods[args.method](), args.format)
        return 0
    return _compare({name: fn() for name, fn in methods.items()}, args.format)


def cmd_pieri(args):
    if args.method == "stable":
        result = pieri_stable(args.p, args.e, args.mu)
    else:
        result = pieri_tableau(args.p, args.e, args.mu)
    _emit(result, args.format)
    return 0


def cmd_schur(args):
    _emit(double_schur_n(args.lam, args.n), args.format)
    return 0


def cmd_kostka(args):
    if args.method != "both":
        _emit(kostka(args.kappa, args.mu, args.nu, method=args.method), args.format)
        return 0
    return _compare({
        method: kostka(args.kappa, args.mu, args.nu, method=method)
        for method in ("recursion", "tableaux")
    }, args.format)


def cmd_classical(args):
    print(classical_lr(args.lam, args.mu, args.nu))
    return 0


def _suite_ring(w):
    """Free-ring Pieri identity: h_{p,e} * JT(mu) = sum of shifted JTs."""
    cases = []
    for mu in partitions_up_to(w, max_len=3):
        for p in range(1, min(3, w) + 1):
            for e in range(0, 4):

                def check(mu=mu, p=p, e=e):
                    lhs, rhs = pieri_sides(p, e, mu, staircase(len(mu)))
                    if lhs != rhs:
                        return f"mu={mu} p={p} e={e}"
                    return None

                cases.append((f"ring mu={mu} p={p} e={e}", check))
    return cases


def _suite_pieri(w):
    """Stable vs tableau Pieri agreement and horizontal-strip support."""
    cases = []
    for mu in partitions_up_to(w):
        for p in range(1, min(3, w) + 1):
            for e in range(0, len(mu) + 1):

                def check(mu=mu, p=p, e=e):
                    stable = pieri_stable(p, e, mu)
                    for nu in stable.terms:
                        if not is_horizontal_strip(nu, mu):
                            return f"mu={mu} p={p} e={e}: support at non-strip {nu}"
                    if e < len(mu):
                        tab = pieri_tableau(p, e, mu)
                        if stable - tab:
                            return f"mu={mu} p={p} e={e}: stable != tableau"
                    return None

                cases.append((f"pieri mu={mu} p={p} e={e}", check))
    return cases


def _suite_lr(w):
    """LR agreement, vanishing, homogeneity, and classical specialization.

    Each case expands its whole product two independent ways, once each:
    the tableau rule from one every-nu search, whose sums are the paper's
    Theorem (row-order) and Corollary (column-order) weights alike, and the
    alternating sum.  Every term of each product must lie in the support,
    and the two must be equal as SchurSums; the homogeneity and classical
    checks read each nu of lr_targets, every target that contains mu, from
    the theorem product.
    """
    cases = []
    for lam in partitions_up_to(w):
        if not lam:
            continue
        for mu in partitions_up_to(w):

            def check(lam=lam, mu=mu):
                products = {
                    "theorem": theorem_product(lam, mu),
                    "alternating": alternating_product(lam, mu),
                }
                for name, product in products.items():
                    for nu in product.terms:
                        inside = contains(nu, lam) and contains(nu, mu)
                        if not inside or size(nu) > size(lam) + size(mu):
                            return f"{lam}x{mu}->{nu}: {name} term outside the support"
                theorem = products["theorem"]
                differ = (theorem - products["alternating"]).terms
                if differ:
                    return f"{lam}x{mu}->{min(differ)}: theorem != alternating"
                for nu in lr_targets(lam, mu):
                    ct = theorem.coeff(nu)
                    if ct and not ct.is_homogeneous(size(lam) + size(mu) - size(nu)):
                        return f"{lam}x{mu}->{nu}: not homogeneous"
                    if ct.at_zero() != classical_lr(lam, mu, nu):
                        return f"{lam}x{mu}->{nu}: classical mismatch"
                return None

            cases.append((f"lr {lam}x{mu}", check))
    return cases


def _psi_shapes(lam):
    """The shapes kappa of the stacked tableaux: the lam^omega with no negative entry.

    They are the keys jacobi_trudi_fold builds by prepending each row's p,
    trimmed and sorted.
    """
    signed = jacobi_trudi_fold(
        lam, Terms({(): 1}), lambda t, p, _i: Terms({(p,) + k: c for k, c in t.terms.items()})
    )
    return sorted(iv(k) for k in signed.terms)


def _psi_report(shapes, mu, nu, cap):
    """Check psi on all bad stacked tableaux for one (lam, mu, nu) cell.

    shapes is _psi_shapes(lam), which depends on lam alone.  Each bad
    tableau is classified once, and psi's two stages act on that cell.
    Returns (failure-or-None, {(kappa, row): aggregate bad weight}).
    """
    fail, terms = _psi_walk(shapes, mu, nu, cap)
    groups = {key: APoly(t) for key, t in terms.items()}
    if fail is None:
        for (kappa, i), w in groups.items():
            partner = tuple(apply_rbar(i, i + 1, kappa))
            if w - groups.get((partner, i), APoly.zero()):
                return f"aggregate mismatch kappa={kappa} row={i}", groups
    return fail, groups


def _psi_walk(shapes, mu, nu, cap):
    """_psi_report's pass over the tableaux: (first failure or None, terms).

    terms maps each (kappa, row) to the term dict of the bad tableaux'
    summed weight, so a group is copied into an APoly once, not per tableau.
    """
    terms = {}
    target = iv(nu)
    for kappa in shapes:
        for T in enumerate_k_tableaux(kappa, mu, nu, cap=cap):
            cell = classify_bad(T, mu)
            if cell is None:
                continue
            Tt = psi2(psi1(T, cell), cell, mu)
            expected_shape = tuple(apply_rbar(cell.row, cell.row + 1, kappa))
            if Tt.shape != expected_shape or not Tt.is_valid():
                return f"psi broke shape on:\n{T.to_text()}", terms
            word, yam = apply_word(mu, row_word(Tt))
            if not yam or word != target:
                return f"psi broke the row word on:\n{T.to_text()}", terms
            if psi(Tt, mu) != T:
                return f"psi not an involution on:\n{T.to_text()}", terms
            group = terms.setdefault((kappa, cell.row), {})
            accumulate(group, tableau_weight(T, mu).terms.items())
    return None, terms


def _suite_involutions(w, collect=None):
    """psi involution/aggregate checks plus the monomial-level involutions."""
    cases = []
    lams = [l for l in partitions_up_to(min(w, 3)) if l and len(l) <= 2]
    mus = partitions_up_to(min(w, 3))
    for lam in lams:
        for mu in mus:

            def check(lam=lam, mu=mu):
                shapes = _psi_shapes(lam)
                for nu in lr_targets(lam, mu):
                    # l(mu) <= 3 and l(kappa) <= l(lam) <= 2 here, so every
                    # default row cap l(mu) + l(kappa) - i + 1 is at most 5:
                    # cap=5 cuts no tableau the default admits (it admits more
                    # in lower rows).  It would cut some once l(mu) + l(lam) > 5.
                    fail, groups = _psi_report(shapes, mu, nu, cap=5)
                    if collect is not None:
                        collect.append((lam, mu, nu, groups))
                    if fail:
                        return f"{lam}x{mu}->{nu}: {fail}"
                return None

            cases.append((f"psi {lam}x{mu}", check))

    def check_monomial():
        for mu in partitions_up_to(3):
            if not mu:
                continue
            for p in range(1, 3):
                for e in range(0, len(mu)):
                    for extra in range(p + 1):
                        for nu in partitions_of(size(mu) + extra, max_len=len(mu) + 1):
                            if not contains(nu, mu):
                                continue
                            for U in derived_monomial_tableaux(
                                p, e, mu, nu, vmax=len(mu) + 2
                            ):
                                try:
                                    Ut = monomial_involution(U, mu)
                                except ValueError:
                                    continue
                                if monomial_weight(U, mu) + monomial_weight(Ut, mu):
                                    return f"sign not reversed on {U.to_text()!r}"
                                if monomial_involution(Ut, mu) != U:
                                    return f"not an involution on {U.to_text()!r}"
        return None

    cases.append(("monomial involution", check_monomial))

    def check_bad_pair():
        for mu in partitions_up_to(3):
            if not mu:
                continue
            for p in range(1, 3):
                for e in range(0, len(mu)):
                    ln = len(mu) + 1
                    for nu in bad_compositions(mu, p):
                        for U in derived_monomial_tableaux(p, e, mu, nu, vmax=ln):
                            Ut = pieri_bad_pair(U, mu)
                            if monomial_weight(U, mu) - monomial_weight(Ut, mu):
                                return f"weight not preserved on {U.to_text()!r}"
        return None

    cases.append(("pieri bad pair", check_bad_pair))
    return cases


_SUITES = {
    "ring": _suite_ring,
    "pieri": _suite_pieri,
    "lr": _suite_lr,
    "involutions": _suite_involutions,
}


def cmd_verify(args):
    """Run the suites; stdout gets the verdicts, stderr each suite's time and slowest cases."""
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    total = 0
    for name in names:
        start = time.perf_counter()
        cases = _SUITES[name](args.max_weight)
        times = []
        results = _run_cases(cases, times)
        print(f"{name}: {time.perf_counter() - start:.3f} s; slowest cases:", file=sys.stderr)
        for seconds, label in heapq.nlargest(5, times):
            print(f"  {seconds * 1000:.1f} ms {label}", file=sys.stderr)
        bad = [(label, msg) for label, msg in results if msg]
        total += len(results)
        failed += len(bad)
        status = "PASS" if not bad else "FAIL"
        print(f"{name}: {status} ({len(results) - len(bad)}/{len(results)} cases)")
        for label, msg in bad:
            print(f"  FAIL {label}: {msg}")
    print(f"total: {total - failed}/{total} passed")
    return 3 if failed else 0


def cmd_verify_involutions(args):
    collected = []
    cases = _suite_involutions(args.max_weight, collect=collected)
    results = _run_cases(cases)
    for lam, mu, nu, groups in collected:
        for (kappa, i), w in sorted(groups.items()):
            print(f"lam={list(lam)} mu={list(mu)} nu={list(nu)} "
                  f"kappa={list(kappa)} row={i}: {w}")
    bad = [(label, msg) for label, msg in results if msg]
    for label, msg in bad:
        print(f"FAIL {label}: {msg}")
    print("PASS" if not bad else "FAIL")
    return 3 if bad else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrpoly",
        description="Littlewood-Richardson polynomials of double Schur functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("pretty", "json"), default="pretty")

    p = sub.add_parser(
        "lr",
        help="structure coefficient of s_nu in s_lam * s_mu",
        description=(
            "Structure coefficient of s_nu in s_lam * s_mu. --method theorem and "
            "corollary run one tableau search, so they agree by construction; "
            "alternating and oracle are the independent checks. --method oracle and all "
            "brute-force the product in min(l(nu), nu_1) variables and in one more, "
            "a cost that grows fast with the cell: (3,2) x (2,2) at nu = (4,3,2) "
            "takes about 0.35 s, (3,2,1) x (3,2,1) at (5,4,3) about 2.4 s and "
            "(3,3,1) x (3,2) at (4,4,3,2) about 13 s. For large cells use "
            "--method theorem, which takes milliseconds on each of these."
        ),
    )
    p.add_argument("--lambda", dest="lam", type=_partition, required=True)
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--nu", type=_partition, required=True)
    p.add_argument(
        "--method",
        choices=("theorem", "corollary", "alternating", "oracle", "all"),
        default="theorem",
    )
    add_format(p)
    p.set_defaults(fn=cmd_lr)

    p = sub.add_parser(
        "pieri",
        help="expansion of h_{p,e} * s_mu",
        description=(
            "Expansion of h_{p,e} * s_mu. The stable rule's cost grows exponentially "
            "in p, about 10x for each 2 added to p: p = 14 takes about 2 s, p = 16 "
            "about 20 s. For 0 <= e < l(mu), --method tableau gives the same "
            "expansion in time about linear in p."
        ),
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--method", choices=("stable", "tableau"), default="stable")
    add_format(p)
    p.set_defaults(fn=cmd_pieri)

    # the branching rule shifts the a-indices once per variable, and APoly
    # shifts only inside [-_SPAN, _SPAN]: n = _SPAN + 1 still fits every shape
    max_n = _SPAN + 1
    p = sub.add_parser("schur", help="double Schur polynomial in n variables")
    p.add_argument("--lambda", dest="lam", type=_partition, required=True)
    p.add_argument(
        "--n", type=_int_in_range(0, max_n), required=True,
        help=f"number of variables, 0 to {max_n} (the a-index span of the coefficients)",
    )
    add_format(p)
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("kostka", help="coefficient of s_nu in h_{kappa,1} * s_mu")
    p.add_argument("--kappa", type=_int_vector, required=True)
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--nu", type=_partition, required=True)
    p.add_argument("--method", choices=("recursion", "tableaux", "both"),
                   default="recursion")
    add_format(p)
    p.set_defaults(fn=cmd_kostka)

    p = sub.add_parser("classical", help="classical Littlewood-Richardson number")
    p.add_argument("--lambda", dest="lam", type=_partition, required=True)
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--nu", type=_partition, required=True)
    p.set_defaults(fn=cmd_classical)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("ring", "pieri", "lr", "involutions", "all"),
                   default="all")
    p.add_argument("--max-weight", type=_int_in_range(1), default=3, help=(
        "grid size; the cost grows about 5x per step: --suite all takes about 0.4, 0.8, "
        "4.6 and 25 s at weights 4 to 7, with peak RSS 18, 23, 50 and 175 MB"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("verify-involutions",
                       help="involution suite with per-shape aggregate sums")
    p.add_argument("--max-weight", type=_int_in_range(1), default=3)
    p.set_defaults(fn=cmd_verify_involutions)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

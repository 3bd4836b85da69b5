"""The three workloads: their fixed op lists, how a pass runs them, and the checks.

One op is one (lam, mu) pair for the sweeps, with every nu of the pair
computed inside the op, and one verification case for ``verify_all``.  The
set of ops is fixed; a pass only permutes their order.  Program functions
are always called through their module (``lr.c_theorem``), so the tracer's
replacement of a module binding reaches these calls too.
"""

import contextlib
import hashlib
import io
import json
import time

from lrpoly import cli, double_sym, lr, shapes

clock = time.perf_counter


def digest(payload):
    """Short hash of the canonical JSON form of an op's output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _nus(lam, mu):
    """Every nu with mu contained in nu and |mu| <= |nu| <= |lam| + |mu|."""
    return [
        nu
        for extra in range(shapes.size(lam) + 1)
        for nu in shapes.partitions_of(shapes.size(mu) + extra)
        if shapes.contains(nu, mu)
    ]


def _label(lam, mu):
    return f"{lam}x{mu}"


class _Sweep:
    """A sweep over (lam, mu) pairs; each op computes every nu of its pair."""

    def __init__(self, pairs):
        self.ops = [(_label(lam, mu), lam, mu, _nus(lam, mu)) for lam, mu in pairs]

    def order(self, rng):
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops

    def run(self, rng, pause):
        """Time each op, calling pause() after each outside its timed span.

        Returns (op times, outputs, errors, first start, last end).
        """
        ops = self.order(rng)
        times, outputs, errors = {}, {}, {}
        first = None
        for label, lam, mu, nus in ops:
            t0 = clock()
            if first is None:
                first = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                outputs[label] = [(nu, self.compute(lam, mu, nu)) for nu in nus]
            except Exception as exc:  # an op that raises is a failed op
                errors[label] = repr(exc)
            times[label] = clock() - t0
            pause()
        last = time.clock_gettime(time.CLOCK_MONOTONIC)
        return times, outputs, errors, first, last

    def check(self, outputs, errors, cross):
        """Per-op digests and the labels of ops whose output is wrong.

        With cross, every cell is also compared against an independent
        route.  The digests pin every value an op computes, so a pass whose
        digests match a cross-checked pass's needs no cross-check of its own.
        """
        digests, failed = {}, set(errors)
        for label, lam, mu, nus in self.ops:
            if label not in outputs:
                continue
            values = outputs[label]
            digests[label] = digest([[list(nu), self.payload(out)] for nu, out in values])
            if cross and not all(self.correct(lam, mu, nu, out) for nu, out in values):
                failed.add(label)
        return digests, failed


class TableauSweep(_Sweep):
    """c_theorem and c_corollary on every cell with |lam|, |mu| <= 5."""

    def __init__(self):
        lams = [lam for lam in shapes.partitions_up_to(5) if lam]
        super().__init__([(lam, mu) for lam in lams for mu in shapes.partitions_up_to(5)])

    @staticmethod
    def compute(lam, mu, nu):
        return lr.c_theorem(lam, mu, nu), lr.c_corollary(lam, mu, nu)

    @staticmethod
    def payload(out):
        return [c.to_json() for c in out]

    @staticmethod
    def correct(lam, mu, nu, out):
        theorem, corollary = out
        return theorem == corollary and theorem.at_zero() == double_sym.classical_lr(
            lam, mu, nu
        )


class OracleSweep(_Sweep):
    """c_oracle on every cell with |lam| + |mu| <= 6."""

    def __init__(self):
        parts = shapes.partitions_up_to(6)
        super().__init__([
            (lam, mu)
            for lam in parts
            if lam
            for mu in parts
            if shapes.size(lam) + shapes.size(mu) <= 6
        ])

    def order(self, rng):
        """A random order in which (lam, mu) always comes before (mu, lam) when lam > mu.

        The two ops share one cached product, so whichever runs first pays
        for it and the other is almost free.  Fixing which one pays keeps
        the set of cheap ops, and so the median op time, the same in every
        pass; the positions of both ops still come from the seed.
        """
        ops = super().order(rng)
        slot = {}  # unordered pair -> index of its first op in ops
        for i, op in enumerate(ops):
            pair = frozenset((op[1], op[2]))
            if pair not in slot:
                slot[pair] = i
            elif op[1] > op[2]:
                j = slot[pair]
                ops[i], ops[j] = ops[j], ops[i]
        return ops

    @staticmethod
    def compute(lam, mu, nu):
        return double_sym.c_oracle(lam, mu, nu)

    @staticmethod
    def payload(out):
        return out.to_json()

    @staticmethod
    def correct(lam, mu, nu, out):
        return out == lr.c_theorem(lam, mu, nu)


class VerifyAll:
    """``lrpoly verify --suite all --max-weight 4`` in-process.

    Each suite function in ``cli._SUITES`` is wrapped so that its cases come
    back shuffled and each case is timed; the verify command itself runs
    unchanged, with its stdout captured.
    """

    ARGV = ["verify", "--suite", "all", "--max-weight", "4"]

    def __init__(self):
        self.suites = dict(cli._SUITES)
        self.suite_of = {}  # case label -> suite name, filled by a pass

    def run(self, rng, pause):
        times, outputs, errors = {}, {}, {}
        stamps = []

        def timed(label, fn):
            def case():
                t0 = clock()
                if not stamps:
                    stamps.append(time.clock_gettime(time.CLOCK_MONOTONIC))
                try:
                    result = outputs[label] = fn()
                except Exception as exc:  # recorded, then re-raised as before
                    errors[label] = repr(exc)
                    raise
                finally:
                    times[label] = clock() - t0
                    pause()
                return result

            return case

        def shuffled(name, build):
            def suite(*args, **kwargs):
                cases = build(*args, **kwargs)
                labels = [label for label, _ in cases]
                if len(set(labels)) != len(labels):
                    raise ValueError(f"duplicate case labels in suite {name}")
                for label in labels:
                    self.suite_of[label] = name
                cases = [(label, timed(label, fn)) for label, fn in cases]
                rng.shuffle(cases)
                return cases

            return suite

        out = io.StringIO()
        for name, build in self.suites.items():
            cli._SUITES[name] = shuffled(name, build)
        try:
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(self.ARGV)
                except Exception as exc:
                    code = repr(exc)
        finally:
            cli._SUITES.update(self.suites)
        last = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.stdout, self.exit_code = out.getvalue(), code
        first = stamps[0] if stamps else last
        return times, outputs, errors, first, last

    def check(self, outputs, errors, cross):
        digests = {label: digest(result) for label, result in outputs.items()}
        failed = set(errors) | {label for label, result in outputs.items() if result}
        return digests, failed


WORKLOADS = {
    "tableau_sweep": TableauSweep,
    "oracle_sweep": OracleSweep,
    "verify_all": VerifyAll,
}

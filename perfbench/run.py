"""lrpoly benchmark: run passes of one workload and print the result.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter (so every module
memo starts empty), until about S seconds have gone, and prints one JSON
result as the last line of stdout.  With --trace 0 the result holds the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of traced passes, each paired with an untraced pass of the
same op order to measure the tracing overhead.  The seed only permutes the
op order: pass i of a run uses the order drawn from "<seed>/<i>".  Every
op's output is checked against expected.json, recorded by record.py.  The
end-to-end times are scaled by the host speed that reference.py measures
during each pass.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_SLICE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
NEAR = 5  # slices on each side of an op that scale its time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload, order, trace, cross):
    """Run one pass in a fresh interpreter and return its decoded result.

    With cross, the pass also checks every op against an independent route;
    the first pass of a run does, and later passes are held to its digests.

    setup_s runs from just before the interpreter is started to the start of
    the first timed op: start-up, importing lrpoly and building the op list.
    """
    env = dict(os.environ)
    env.pop("LRPOLY_THREADS", None)
    cmd = [sys.executable, "-I", str(HERE / "child.py"), workload, order, str(int(trace)), str(int(cross))]
    t0 = _now()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["first_op"] - t0
    return result


def failures(result, expected):
    """Labels of the ops of one pass that raised, failed a check or changed output."""
    digests = result["digests"]
    bad = set(result["failed"])
    bad |= {label for label, d in expected["digests"].items() if digests.get(label) != d}
    bad |= set(digests) - set(expected["digests"])
    if "stdout" in expected and (
        result.get("stdout") != expected["stdout"] or result.get("exit_code") != 0
    ):
        bad.add("<verify stdout or exit code>")
    return bad


def tail_quantile(n_ops):
    """Highest percentile, on a half-point grid, with at least 10 ops beyond it."""
    return max((k / 200 for k in range(200) if n_ops * (200 - k) >= 2000), default=0.5)


def quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def git_commit():
    """The checked-out commit, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_scale(result):
    """Factor that scales a pass's times to a host whose slice takes NOMINAL_SLICE_S."""
    return NOMINAL_SLICE_S / statistics.median(result["slice_s"])


def scaled_op_times(result):
    """A pass's op times, each scaled by the median of the slices around it.

    Slice i ran right after op i, so slices i - NEAR .. i + NEAR saw the host
    just before and after the op; the host's speed also changes within a
    pass, and an op's own neighbourhood follows that better than the pass.
    """
    slices = result["slice_s"]
    if len(slices) != len(result["op_s"]):
        raise RuntimeError(f"{len(slices)} reference slices for {len(result['op_s'])} ops")
    return [
        t * NOMINAL_SLICE_S / statistics.median(slices[max(0, i - NEAR) : i + NEAR + 1])
        for i, t in enumerate(result["op_s"].values())
    ]


def end_to_end(passes, n_ops):
    """The end-to-end metrics of a run's untraced passes, as medians over passes.

    Every time is scaled to a host on which one reference slice takes
    NOMINAL_SLICE_S: each op's time by the slices around it, set-up and the
    wall time between ops by the median slice of the pass.  The host's speed
    drifts by up to 1.7x over minutes, and the scaling takes most of that
    drift out.  The unscaled medians go into the returned note.

    Each pass has its own op order, so which op pays for a memo entry that
    several ops share changes from pass to pass.  An op's time therefore
    depends on the order, and a percentile of one pass's op times with it;
    the median over passes evens that out.
    """
    q = tail_quantile(n_ops)

    def median(metric):
        return statistics.median(metric(r) for r in passes)

    def scaled_wall(r):
        between_ops = r["wall_s"] - sum(r["op_s"].values())
        return sum(scaled_op_times(r)) + between_ops * host_scale(r)

    values = {
        "setup_s": median(lambda r: r["setup_s"] * host_scale(r)),
        "wall_s": median(scaled_wall),
        "op_p50_ms": median(lambda r: statistics.median(scaled_op_times(r))) * 1000,
        "op_tail_ms": median(lambda r: quantile(scaled_op_times(r), q)) * 1000,
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }
    unscaled = {
        "setup_s": median(lambda r: r["setup_s"]),
        "wall_s": median(lambda r: r["wall_s"]),
        "op_p50_ms": median(lambda r: statistics.median(r["op_s"].values())) * 1000,
        "op_tail_ms": median(lambda r: quantile(r["op_s"].values(), q)) * 1000,
        "slice_ms": median(lambda r: statistics.median(r["slice_s"])) * 1000,
    }
    note = (
        f"op_tail_ms is p{q * 100:g} of the {n_ops} op times of a pass, "
        f"median over {len(passes)} passes; unscaled medians: "
        + json.dumps({k: round(v, 6) for k, v in unscaled.items()})
    )
    return values, note


def per_layer(untraced, traced):
    """Medians over the traced passes; the trace.* walls are host-scaled."""
    names = traced[0]["layers"]
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] * host_scale(r) for r in untraced)
    values["trace.traced_wall_s"] = statistics.median(r["wall_s"] * host_scale(r) for r in traced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    note = (
        f"tracing overhead: {values['trace.overhead_s']:.3f} s on "
        f"{values['trace.untraced_wall_s']:.3f} s untraced wall "
        f"({len(traced)} traced passes)"
    )
    return values, note


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lrpoly" / "__init__.py").is_file():
        print(f"error: no lrpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    if args.workload not in expected:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = expected[args.workload]
    n_ops = len(expected["digests"])
    compileall.compile_dir(ROOT / "src", quiet=1)

    untraced, traced = [], []
    start = _now()
    while True:
        order = f"{args.seed}/{len(untraced)}"
        untraced.append(spawn(args.workload, order, trace=False, cross=not untraced))
        if args.trace:
            traced.append(spawn(args.workload, order, trace=True, cross=False))
        elapsed = _now() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    bad = [failures(r, expected) for r in untraced + traced]
    failed = sum(map(len, bad))
    if failed:
        errors = {k: v for r in untraced + traced for k, v in r["errors"].items()}
        for label in sorted(set().union(*bad))[:5]:
            print(f"failed op {label}: {errors.get(label, 'wrong output')}", file=sys.stderr)
    self_test = all(
        t["restored"] and t["bindings_patched"] and t["digests"] == u["digests"]
        for u, t in zip(untraced, traced)
    )
    if args.trace:
        values, note = per_layer(untraced, traced)
        wanted = spec["per_layer"]
    else:
        values, note = end_to_end(untraced, n_ops)
        wanted = spec["end_to_end"]
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced) + len(traced),
        "ops_per_pass": n_ops,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "lrpoly_threads_unset": not any(r["threads_env_set"] for r in untraced + traced),
        "trace_self_test": self_test if args.trace else None,
    }
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(note)
    print(json.dumps({
        "correct": failed == 0 and self_test,
        "attempted": n_ops * (len(untraced) + len(traced)),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

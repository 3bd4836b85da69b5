"""Record expected.json: the per-op output digests, and verify's stdout.

Usage, from the repository root: python3 perfbench/record.py

The digests pin the byte-identical outputs of the commit they were recorded
at; later passes are checked against them.  Re-record only when a benchmark
change adds or alters a workload, never to absorb a change in the program's
output.  Refuses to record when any op fails its own correctness check.
"""

import json
import sys

from run import HERE, ROOT, spawn


def main():
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    expected = {}
    for name in names:
        result = spawn(name, "record", trace=False, cross=True)
        if result["failed"]:
            sys.exit(f"{name}: ops failed their checks: {result['failed'][:5]}")
        expected[name] = {"digests": result["digests"]}
        if "stdout" in result:
            if result["exit_code"] != 0:
                sys.exit(f"{name}: exit code {result['exit_code']}")
            expected[name]["stdout"] = result["stdout"]
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

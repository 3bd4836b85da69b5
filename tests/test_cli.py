"""Command-line interface: parsing, output formats, exit codes, determinism."""

import json
from collections import Counter

import pytest

from lrpoly import cli, double_sym, lr, tableaux
from lrpoly.apoly import APoly
from lrpoly.cli import main
from lrpoly.schursum import SchurSum
from lrpoly.shapes import partitions_up_to


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lr_pretty(capsys):
    code, out, err = run(capsys, "lr", "--lambda", "1", "--mu", "1", "--nu", "1")
    assert code == 0
    assert out.strip() == "a_0 - a_1"


def test_lr_classical_value(capsys):
    code, out, _ = run(capsys, "lr", "--lambda", "1,1", "--mu", "1", "--nu", "2,1")
    assert code == 0
    assert out.strip() == "1"


def test_lr_zero_outside_support(capsys):
    code, out, _ = run(capsys, "lr", "--lambda", "2", "--mu", "1", "--nu", "5")
    assert code == 0
    assert out.strip() == "0"


def test_lr_all_methods_agree(capsys):
    code, out, _ = run(
        capsys, "lr", "--lambda", "1", "--mu", "1", "--nu", "1", "--method", "all"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert [ln.split(":")[0] for ln in lines] == [
        "theorem",
        "corollary",
        "alternating",
        "oracle",
    ]
    assert all(ln.endswith("a_0 - a_1") for ln in lines)


def test_lr_all_methods_agree_nine_boxes(capsys):
    # nine boxes: the oracle stays cheap here only because it expands at
    # max(l(nu), 1) = 3 and 4 variables
    code, out, _ = run(
        capsys,
        "lr", "--lambda", "3,2", "--mu", "2,2", "--nu", "4,3,2", "--method", "all",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert len({ln.split(": ", 1)[1] for ln in lines}) == 1


def test_lr_json(capsys):
    code, out, _ = run(
        capsys, "lr", "--lambda", "1", "--mu", "1", "--nu", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"coeff": "1", "vars": [[0, 1]]},
        {"coeff": "-1", "vars": [[1, 1]]},
    ]


def test_parse_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lr", "--lambda", "x", "--mu", "1", "--nu", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lr", "--lambda", "1,2", "--mu", "1", "--nu", "1"])  # not a partition
    assert exc.value.code == 2


def test_pieri_stable_and_empty_partition(capsys):
    code, out, _ = run(capsys, "pieri", "--p", "2", "--e", "0", "--mu", "")
    assert code == 0
    assert out.strip() == "(1)*s[2]"


def test_pieri_tableau_out_of_range_exit_2(capsys):
    code, out, err = run(
        capsys, "pieri", "--p", "1", "--e", "5", "--mu", "1", "--method", "tableau"
    )
    assert code == 2
    assert "unsupported hypothesis" in err


def test_pieri_methods_agree(capsys):
    _, out_s, _ = run(capsys, "pieri", "--p", "2", "--e", "1", "--mu", "2,1")
    _, out_t, _ = run(
        capsys, "pieri", "--p", "2", "--e", "1", "--mu", "2,1", "--method", "tableau"
    )
    assert out_s == out_t


def test_pieri_tableau_on_a_long_row(capsys):
    pieri = ("pieri", "--e", "0", "--mu", "1", "--method")
    _, out_s, _ = run(capsys, *pieri, "stable", "--p", "12")
    _, out_t, _ = run(capsys, *pieri, "tableau", "--p", "12")
    assert out_s == out_t
    code, out, _ = run(capsys, *pieri, "tableau", "--p", "14", "--format", "json")
    assert code == 0
    assert [term["nu"] for term in json.loads(out)] == [[14], [15], [14, 1]]


# s_(2,1) in three variables, pinned byte for byte
_SCHUR_21_N3_JSON = (
    '{"n": 3, "terms": [{"coeff": [{"coeff": "1", "vars": []}], "x": [2, 1'
    ', 0]}, {"coeff": [{"coeff": "1", "vars": []}], "x": [2, 0, 1]}'
    ', {"coeff": [{"coeff": "1", "vars": []}], "x": [1, 2, 0]}'
    ', {"coeff": [{"coeff": "2", "vars": []}], "x": [1, 1, 1]}'
    ', {"coeff": [{"coeff": "1", "vars": []}], "x": [1, 0, 2]}'
    ', {"coeff": [{"coeff": "1", "vars": []}], "x": [0, 2, 1]}'
    ', {"coeff": [{"coeff": "1", "vars": []}], "x": [0, 1, 2]}'
    ', {"coeff": [{"coeff": "-1", "vars": [[2, 1]]}, {"coeff": "-1"'
    ', "vars": [[3, 1]]}], "x": [2, 0, 0]}, {"coeff": [{"coeff": "-1"'
    ', "vars": [[0, 1]]}, {"coeff": "-1", "vars": [[1, 1]]}, {"coeff": "-2"'
    ', "vars": [[2, 1]]}, {"coeff": "-2", "vars": [[3, 1]]}], "x": [1, 1, 0]}'
    ', {"coeff": [{"coeff": "-1", "vars": [[0, 1]]}, {"coeff": "-1"'
    ', "vars": [[1, 1]]}, {"coeff": "-2", "vars": [[2, 1]]}, {"coeff": "-2"'
    ', "vars": [[3, 1]]}], "x": [1, 0, 1]}, {"coeff": [{"coeff": "-1"'
    ', "vars": [[2, 1]]}, {"coeff": "-1", "vars": [[3, 1]]}], "x": [0, 2, 0]}'
    ', {"coeff": [{"coeff": "-1", "vars": [[0, 1]]}, {"coeff": "-1"'
    ', "vars": [[1, 1]]}, {"coeff": "-2", "vars": [[2, 1]]}, {"coeff": "-2"'
    ', "vars": [[3, 1]]}], "x": [0, 1, 1]}, {"coeff": [{"coeff": "-1"'
    ', "vars": [[2, 1]]}, {"coeff": "-1", "vars": [[3, 1]]}], "x": [0, 0, 2]}'
    ', {"coeff": [{"coeff": "1", "vars": [[0, 1], [2, 1]]}, {"coeff": "1"'
    ', "vars": [[0, 1], [3, 1]]}, {"coeff": "1", "vars": [[1, 1], [2, 1]]}'
    ', {"coeff": "1", "vars": [[1, 1], [3, 1]]}, {"coeff": "2", "vars": [[2'
    ', 1], [3, 1]]}, {"coeff": "1", "vars": [[2, 2]]}, {"coeff": "1"'
    ', "vars": [[3, 2]]}], "x": [1, 0, 0]}, {"coeff": [{"coeff": "1"'
    ', "vars": [[0, 1], [2, 1]]}, {"coeff": "1", "vars": [[0, 1], [3, 1]]}'
    ', {"coeff": "1", "vars": [[1, 1], [2, 1]]}, {"coeff": "1", "vars": [[1'
    ', 1], [3, 1]]}, {"coeff": "2", "vars": [[2, 1], [3, 1]]}, {"coeff": "1"'
    ', "vars": [[2, 2]]}, {"coeff": "1", "vars": [[3, 2]]}], "x": [0, 1, 0]}'
    ', {"coeff": [{"coeff": "1", "vars": [[0, 1], [2, 1]]}, {"coeff": "1"'
    ', "vars": [[0, 1], [3, 1]]}, {"coeff": "1", "vars": [[1, 1], [2, 1]]}'
    ', {"coeff": "1", "vars": [[1, 1], [3, 1]]}, {"coeff": "2", "vars": [[2'
    ', 1], [3, 1]]}, {"coeff": "1", "vars": [[2, 2]]}, {"coeff": "1"'
    ', "vars": [[3, 2]]}], "x": [0, 0, 1]}, {"coeff": [{"coeff": "-1"'
    ', "vars": [[0, 1], [2, 1], [3, 1]]}, {"coeff": "-1", "vars": [[0, 1], [2'
    ', 2]]}, {"coeff": "-1", "vars": [[0, 1], [3, 2]]}, {"coeff": "-1"'
    ', "vars": [[1, 1], [2, 1], [3, 1]]}, {"coeff": "-1", "vars": [[1, 1], [2'
    ', 2]]}, {"coeff": "-1", "vars": [[1, 1], [3, 2]]}, {"coeff": "-1"'
    ', "vars": [[2, 1], [3, 2]]}, {"coeff": "-1", "vars": [[2, 2], [3, 1]]}]'
    ', "x": [0, 0, 0]}]}'
)


def test_schur(capsys):
    code, out, _ = run(capsys, "schur", "--lambda", "1", "--n", "2")
    assert code == 0
    assert out.strip() == "(1)*x_1 + (1)*x_2 + (-a_1 - a_2)"
    code, out, _ = run(
        capsys, "schur", "--lambda", "2,1", "--n", "3", "--format", "json"
    )
    assert code == 0
    assert out == _SCHUR_21_N3_JSON + "\n"


def test_schur_negative_n_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schur", "--lambda", "1", "--n", "-2"])
    assert exc.value.code == 2


def test_schur_n_past_the_index_span_exit_2(capsys):
    # every variable shifts the a-indices once, and APoly shifts them only
    # within its span: n = 256 reaches a_256, a larger n is refused as input
    code, out, _ = run(capsys, "schur", "--lambda", "1", "--n", "256")
    assert code == 0
    assert out.rstrip().endswith(" - a_255 - a_256)")
    for n in ("257", "1200"):
        with pytest.raises(SystemExit) as exc:
            main(["schur", "--lambda", "1", "--n", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"must be at most 256: {n}" in err
        assert "internal error" not in err


def test_kostka_both_methods(capsys):
    code, out, _ = run(
        capsys,
        "kostka",
        "--kappa",
        "2",
        "--mu",
        "1",
        "--nu",
        "2,1",
        "--method",
        "both",
    )
    assert code == 0
    rec, tab = out.strip().split("\n")
    assert rec.split(": ", 1)[1] == tab.split(": ", 1)[1]


def test_classical(capsys):
    code, out, _ = run(
        capsys, "classical", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1"
    )
    assert code == 0
    assert out.strip() == "2"


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-weight", "2")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_times_its_suites_on_stderr_only(capsys):
    import hashlib

    code, out, err = run(capsys, "verify", "--suite", "all", "--max-weight", "2")
    assert code == 0
    # the stdout this call printed before verify reported any time
    assert hashlib.md5(out.encode()).hexdigest() == "9f9fa307be94603f5395ba78f7e124d9"
    blocks = {}
    for line in err.splitlines():
        if line.startswith("  "):
            ms, unit, label = line.split(maxsplit=2)
            assert unit == "ms" and float(ms) >= 0
            blocks[name].append(label)
        else:
            name, rest = line.split(": ")
            assert rest.endswith(" s; slowest cases:") and float(rest.split()[0]) >= 0
            blocks[name] = []
    assert list(blocks) == list(cli._SUITES)
    for name, labels in blocks.items():
        cases = [label for label, _ in cli._SUITES[name](2)]
        assert len(labels) == min(5, len(cases)) and set(labels) <= set(cases), name


def test_verify_involutions_reports_aggregates(capsys):
    code, out, _ = run(capsys, "verify-involutions", "--max-weight", "2")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "kappa=" in out and "row=" in out


def test_verify_reports_a_raising_case_as_its_failure(capsys, monkeypatch):
    # an internal error is a failed case, not a usage error or a traceback
    def bad_value():
        raise ValueError("not straightenable")

    def bad_assert():
        raise AssertionError("no partner")

    cases = [("value", bad_value), ("assert", bad_assert), ("fine", lambda: None)]
    monkeypatch.setitem(cli._SUITES, "ring", lambda max_weight: list(cases))
    code, out, _ = run(capsys, "verify", "--suite", "ring", "--max-weight", "1")
    assert code == 3
    assert "ring: FAIL (1/3 cases)" in out
    assert "  FAIL value: raised ValueError('not straightenable')" in out
    assert "  FAIL assert: raised AssertionError('no partner')" in out
    assert out.strip().endswith("total: 1/3 passed")


def test_internal_error_exit_3(capsys, monkeypatch):
    # an internal failure outside verify names itself on stderr; it is
    # neither a usage error (exit 2) nor a traceback
    def broken(*args):
        raise RuntimeError("no partner for '1~ 1' over mu=(1,)")

    monkeypatch.setattr(cli, "c_theorem", broken)
    code, out, err = run(capsys, "lr", "--lambda", "1", "--mu", "1", "--nu", "1")
    assert code == 3
    assert out == ""
    assert err == "internal error: no partner for '1~ 1' over mu=(1,)\n"


def test_a_plain_value_error_is_internal_exit_3(capsys, monkeypatch):
    # only UsageError is a usage error; any other ValueError is internal
    def broken(*args):
        raise ValueError("rho is not a partition")

    monkeypatch.setattr(cli, "c_theorem", broken)
    code, out, err = run(capsys, "lr", "--lambda", "1", "--mu", "1", "--nu", "1")
    assert code == 3
    assert out == ""
    assert err == "internal error: rho is not a partition\n"


def test_oracle_span_failure_is_internal(capsys, monkeypatch, clear_oracle_memos):
    # a basis element with a key longer than n leaves the span: exit 3 with an
    # internal error, not the usage error of exit 2
    original = double_sym._schur_sym_branch

    def widened(lam, n):
        return {**original(lam, n), (1,) * (n + 1): APoly.one()}

    monkeypatch.setattr(double_sym, "_schur_sym_branch", widened)
    code, out, err = run(
        capsys, "lr", "--method", "oracle", "--lambda", "1", "--mu", "1", "--nu", "1"
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: not in span: leading exponent (2, 1) has more than n=1 parts\n"


@pytest.mark.parametrize("product", ["theorem", "alternating"])
@pytest.mark.parametrize("extra", [(), (9,)])
def test_verify_lr_fails_a_product_term_outside_the_support(capsys, monkeypatch, extra, product):
    # a term at a nu that misses lam, or that is too large, fails its case
    # and names the product that holds it
    real = getattr(cli, f"{product}_product")

    def widened(lam, mu):
        return real(lam, mu) + SchurSum.single(extra)

    monkeypatch.setattr(cli, f"{product}_product", widened)
    code, out, _ = run(capsys, "verify", "--suite", "lr", "--max-weight", "1")
    assert code == 3
    assert "lr: FAIL (0/2 cases)" in out
    assert f"  FAIL lr (1,)x(): (1,)x()->{extra}: {product} term outside the support" in out
    assert out.strip().endswith("total: 0/2 passed")


def test_verify_lr_runs_one_every_nu_search_per_pair(capsys, monkeypatch, clear_oracle_memos):
    # each case expands the tableau product from one search with no nu
    # bound, and searches no single cell
    searches, tables = [], Counter()
    real_enumerate, real_table = tableaux._enumerate, lr.lr_weight_table

    def counted_enumerate(plan, mu, nu, *args, **kwargs):
        searches.append(nu)
        return real_enumerate(plan, mu, nu, *args, **kwargs)

    def counted_table(lam, mu):
        tables[lam, mu] += 1
        return real_table(lam, mu)

    monkeypatch.setattr(tableaux, "_enumerate", counted_enumerate)
    monkeypatch.setattr(lr, "lr_weight_table", counted_table)
    code, out, _ = run(capsys, "verify", "--suite", "lr", "--max-weight", "3")
    assert code == 0, out
    pairs = [(lam, mu) for lam in partitions_up_to(3) if lam for mu in partitions_up_to(3)]
    assert tables == Counter(dict.fromkeys(pairs, 1))
    assert searches == [None] * len(pairs)


def test_verify_max_weight_below_one_exit_2(capsys):
    # an empty run checks nothing, so it must not report PASS
    for argv in (["verify", "--max-weight", "0"], ["verify", "--max-weight", "-1"],
                 ["verify-involutions", "--max-weight", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "PASS" not in capsys.readouterr().out


def test_output_byte_deterministic(capsys):
    args = ("lr", "--lambda", "2,1", "--mu", "2", "--nu", "3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def _corpus_calls():
    """The fixed CLI corpus, in its canonical order."""
    from lrpoly.shapes import partitions_up_to

    def part(p):
        return ",".join(map(str, p))

    calls = []
    for lam in partitions_up_to(5):
        for n in range(6):
            for fmt in ("pretty", "json"):
                calls.append(
                    ["schur", "--lambda", part(lam), "--n", str(n), "--format", fmt]
                )
    for mu in partitions_up_to(3):
        for p in range(1, 4):
            for e in range(len(mu) + 1):
                for fmt in ("pretty", "json"):
                    argv = [
                        "pieri", "--p", str(p), "--e", str(e), "--mu", part(mu),
                        "--format", fmt,
                    ]
                    calls.append(argv)
                    if e < len(mu):
                        calls.append(argv + ["--method", "tableau"])
    for fmt in ("pretty", "json"):
        for lam, mu, nu in (("3,2", "2,2", "4,3,2"), ("2,1", "2,1", "3,2,1")):
            calls.append(
                ["lr", "--lambda", lam, "--mu", mu, "--nu", nu, "--method", "all",
                 "--format", fmt]
            )
        for kappa, mu, nu in (("0,2", "1", "2,1"), ("1,-1,2", "2,1", "3,2,1")):
            calls.append(
                ["kostka", "--kappa", kappa, "--mu", mu, "--nu", nu,
                 "--method", "both", "--format", fmt]
            )
    calls.append(["classical", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1"])
    calls.append(["verify", "--suite", "all", "--max-weight", "3"])
    calls.append(["verify-involutions", "--max-weight", "3"])
    return calls


# Digest of every corpus call's argv, stdout and exit code.  Re-record it only
# for an intended change of CLI output, and log that change in CHANGES.md.
_CORPUS_DIGEST = "279c8bd56d6cf8ed1aa0da85b6bb6ca8ece29a1cda25dd34d78c773b0f2a70cd"


def test_cli_corpus_digest(capsys):
    import hashlib

    h = hashlib.sha256()
    calls = _corpus_calls()
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        h.update(repr(argv).encode() + b"\0" + out.encode() + b"\0"
                 + str(code).encode())
    assert len(calls) == 401
    assert h.hexdigest() == _CORPUS_DIGEST

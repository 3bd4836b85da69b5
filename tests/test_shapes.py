"""Integer vectors, partitions, compositions and the Jacobi-Trudi fold."""

from itertools import product, starmap

import pytest

from lrpoly import lr, shapes
from lrpoly.shapes import (
    iv,
    pad,
    size,
    contains,
    is_partition,
    is_horizontal_strip,
    interlacing,
    bad_compositions,
    conjugate,
    apply_rbar,
    perm_sign,
    jacobi_trudi_fold,
    compositions_of,
    lr_targets,
    partitions_of,
    partitions_up_to,
    require_partitions,
)
from lrpoly.sparse import Terms
from definitions import (
    all_permutations,
    contains_padded,
    every_target,
    is_horizontal_strip_padded,
    is_partition_sorted,
    lambda_omega,
    partition_counts,
    partitions_by_sorting,
)

# every integer vector with entries in [-1, 3] and at most 4 entries
VECTORS = [v for l in range(5) for v in product(range(-1, 4), repeat=l)]


def test_iv_trims_trailing_zeros():
    assert iv((3, 1, 0, 0)) == (3, 1)
    assert iv(()) == ()
    assert iv((0,)) == ()


def test_iv_keeps_a_vector_that_ends_nonzero():
    assert iv([3, 0, 1]) == (3, 0, 1)
    assert iv((True, 2)) == (1, 2) and type(iv((True, 2))[0]) is int
    assert iv([-1]) == (-1,)


def test_conjugate_transposes_the_cells():
    for lam in partitions_up_to(10):
        conj = conjugate(lam)
        cells = {(i, j) for i, part in enumerate(lam) for j in range(part)}
        assert {(j, i) for i, part in enumerate(conj) for j in range(part)} == cells, lam
        assert is_partition(conj) and conjugate(conj) == lam, lam


def test_require_partitions_returns_the_trimmed_tuples():
    assert require_partitions() == ()
    assert require_partitions([2, 1, 0], (0, 0), [3]) == ((2, 1), (), (3,))
    assert require_partitions((1, 1, 0, 0)) == ((1, 1),)
    got = require_partitions([2, 2], (2, 1))
    assert all(type(shape) is tuple for shape in got)


def test_require_partitions_takes_mixed_forms_cold_and_warm(clear_oracle_memos):
    # a tuple, a list and an untrimmed vector in one call give the trimmed
    # tuples, first from the checks and then from the memo
    given = ((3, 1), [2, 2, 0], (1, 1, 0, 0))
    for _ in range(2):
        got = require_partitions(*given)
        assert got == ((3, 1), (2, 2), (1, 1))
        assert all(type(shape) is tuple for shape in got)
    # the tuple slot hits the memo, and the list slot is still checked
    with pytest.raises(ValueError, match="must be partitions"):
        require_partitions((3, 1), [1, 2])
    # an iterator is copied, not kept: it is looked up under its tuple
    size_before = shapes._checked_partition.cache_info().currsize
    for _ in range(2):
        assert require_partitions(iter([2, 2, 0])) == ((2, 2),)
    assert shapes._checked_partition.cache_info().currsize == size_before


def test_require_partitions_refuses_entries_that_are_not_integers(clear_oracle_memos):
    # an entry equal to its int passes as that int; 2.5 and '1' are refused,
    # not truncated, cold and again once (2, 1) is in the memo
    for _ in range(2):
        for bad in [(2.5, 1), ("1",)]:
            with pytest.raises(ValueError, match="must be partitions"):
                require_partitions(bad)
            with pytest.raises(ValueError, match="must be partitions"):
                require_partitions((2, 1), bad)
        for good in [(2, 1), [2, 1, 0], (2.0, 1)]:
            assert require_partitions(good) == ((2, 1),), good
    with pytest.raises(ValueError, match="must be partitions"):
        lr.c_theorem((2.5, 1), (1,), (3, 1))


def test_predicates():
    assert is_partition((3, 3, 1))
    assert not is_partition((1, 2))


def test_pad_size_contains():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert size((3, 2)) == 5
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (2, 3))


def test_horizontal_strip():
    assert is_horizontal_strip((3, 1), (2, 1))
    assert is_horizontal_strip((3, 2), (3, 2))
    # two added boxes in the same column
    assert not is_horizontal_strip((2, 2), (1,))
    assert not is_horizontal_strip((1,), (2,))


def test_interlacing_removes_every_horizontal_strip_once():
    # the branching rule's step: mu_i runs from lam_{i+1} to lam_i
    for lam in partitions_up_to(6):
        removals = [iv(mu) for mu in interlacing(lam, lam[1:] + (0,))]
        expected = [mu for mu in partitions_up_to(size(lam)) if is_horizontal_strip(lam, mu)]
        assert sorted(removals) == sorted(expected), lam


def test_interlacing_adds_every_horizontal_strip_once():
    # the classical Pieri step: row 1 may grow by p, row i + 1 up to mu_i
    for mu in partitions_up_to(5):
        for p in range(5):
            top = (mu[0] if mu else 0) + p
            extensions = [
                iv(nu) for nu in interlacing((top,) + mu, mu + (0,))
                if size(nu) == size(mu) + p
            ]
            expected = [nu for nu in partitions_of(size(mu) + p) if is_horizontal_strip(nu, mu)]
            assert sorted(extensions) == sorted(expected), (mu, p)


def test_bad_compositions():
    # ordered by added size, then by the added vector
    assert bad_compositions((2, 1), 2) == [(2, 1, 2), (2, 3)]
    assert bad_compositions((1, 1), 1) == [(1, 2)]
    assert bad_compositions((), 3) == []


def test_raising_operators():
    # R-bar swaps the two entries, then decrements/increments
    assert apply_rbar(1, 2, (3, 5)) == (4, 4)
    assert apply_rbar(1, 2, (9, 9)) == (8, 10)
    # R-bar is an involution on pairs
    assert apply_rbar(1, 2, apply_rbar(1, 2, (2, 7))) == (2, 7)


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1


def test_lambda_omega():
    # identity permutation recovers lam itself
    lam = (3, 1)
    kappa, sign = lambda_omega(lam, (1, 2))
    assert kappa == (3, 1) and sign == 1
    # the transposition applies the swap-then-adjust rule to lam + staircase
    kappa, sign = lambda_omega(lam, (2, 1))
    assert kappa == (0, 4) and sign == -1


def test_lambda_omega_signed_sum_is_determinant_expansion():
    # each omega contributes a distinct composition; signs sum to 0 for l >= 2
    lam = (2, 1, 1)
    seen = {}
    for omega in all_permutations(3):
        kappa, sign = lambda_omega(lam, omega)
        assert kappa not in seen
        seen[kappa] = sign
    assert sum(seen.values()) == 0


def test_jacobi_trudi_fold_builds_the_signed_nonnegative_lambda_omega():
    # with a times that prepends p, the fold returns the signed set of kappa:
    # its signs and pruning, checked against the permutation sum directly
    def prepend(t, p, _i):
        return Terms({(p,) + k: c for k, c in t.terms.items()})

    shapes = partitions_up_to(7)
    assert len(shapes) == 45
    for lam in shapes:
        folded = jacobi_trudi_fold(lam, Terms({(): 1}), prepend)
        expected = {}
        for omega in all_permutations(len(lam)):
            kappa, sign = lambda_omega(lam, omega)
            if all(k >= 0 for k in kappa):
                expected[kappa] = sign
        assert {iv(k): c for k, c in folded.terms.items()} == expected, lam
        assert all(len(k) == len(lam) for k in folded.terms), lam
    start = Terms({(5,): 1})
    assert jacobi_trudi_fold((), start, prepend) is start


def test_compositions_and_partitions():
    cs = compositions_of(2, 2)
    assert sorted(cs) == [(0, 2), (1, 1), (2,)]
    assert sorted(partitions_of(4, max_len=2)) == [(2, 2), (3, 1), (4,)]
    assert partitions_of(0) == [()]
    assert () in partitions_up_to(3) and (3,) in partitions_up_to(3)


def test_partitions_of_matches_the_sorted_non_increasing_compositions():
    # content and reverse-lexicographic order, under every bound
    for n in range(13):
        every = partitions_by_sorting(n)
        for max_len in [None, *range(n + 2)]:
            for max_part in [None, *range(n + 2)]:
                expected = [
                    lam
                    for lam in every
                    if (max_len is None or len(lam) <= max_len)
                    and (max_part is None or not lam or lam[0] <= max_part)
                ]
                assert partitions_of(n, max_len, max_part) == expected, (n, max_len, max_part)


def test_partitions_of_counts_follow_the_pentagonal_recurrence():
    counts = partition_counts(40)
    assert counts[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and counts[40] == 37338
    assert [len(partitions_of(n)) for n in range(41)] == counts


def test_partitions_of_returns_a_fresh_list():
    got = partitions_of(6, max_len=3)
    expected = list(got)
    got.append((7,))
    got[0] = None
    assert partitions_of(6, max_len=3) == expected


def test_partitions_of_memoizes_only_finished_tables(clear_oracle_memos):
    partitions_of(30)
    partitions_of(30, 3)
    assert shapes._partitions.cache_info().currsize == 2
    # bounds past n name the same table
    partitions_of(30, max_len=31, max_part=99)
    assert shapes._partitions.cache_info().currsize == 2


def test_lr_targets_are_the_targets_that_contain_mu_in_order():
    # content and order: by size, then in partitions_of order, with every nu
    # that does not contain mu left out
    for lam in partitions_up_to(6):
        for mu in partitions_up_to(6):
            expected = [nu for nu in every_target(lam, mu) if contains(nu, mu)]
            assert lr_targets(lam, mu) == expected, (lam, mu)


def test_containment_and_strip_truth_tables():
    pairs = list(product(VECTORS, repeat=2))
    for fast, reference in [
        (contains, contains_padded),
        (is_horizontal_strip, is_horizontal_strip_padded),
    ]:
        differ = [
            pair
            for pair, got, expected in zip(pairs, starmap(fast, pairs), starmap(reference, pairs))
            if got != expected
        ]
        assert differ == [], fast.__name__


def test_partition_predicates_truth_tables():
    for alpha in VECTORS:
        expected = is_partition_sorted(alpha)
        assert is_partition(alpha) == expected == is_partition(list(alpha)), alpha
        for shapes_given in [(alpha,), ((2, 1), alpha), (alpha, ())]:
            if expected:
                require_partitions(*shapes_given)
            else:
                with pytest.raises(ValueError):
                    require_partitions(*shapes_given)


def test_memoized_require_partitions_matches_the_unmemoized_check(clear_oracle_memos):
    # each vector as a tuple and as a list against iv and is_partition
    # unmemoized; the second round reads the memo
    for _ in range(2):
        for alpha in VECTORS:
            for given in (alpha, list(alpha)):
                expected = (iv(given), (2, 1))
                if is_partition(expected[0]):
                    assert require_partitions(given, (2, 1)) == expected, given
                else:
                    with pytest.raises(ValueError, match="must be partitions"):
                        require_partitions(given, (2, 1))


@pytest.mark.parametrize(
    "given", [[(2, 1), (2.0, 1)], [(2.0, 1), (2, 1)], [(1,), (True,)], [(True,), (1,)]]
)
def test_require_partitions_returns_tuples_of_int(given, clear_oracle_memos):
    # a vector equal to one memoized before is looked up under its key
    for shape in given:
        (got,) = require_partitions(shape)
        assert type(got) is tuple and all(type(part) is int for part in got), shape
        assert got == iv(shape)


def test_require_partitions_caches_no_failure(clear_oracle_memos):
    for bad in [(1, 2), [0, 1], (2, -1), (1, 0, 1)]:
        for _ in range(2):
            with pytest.raises(ValueError, match="must be partitions"):
                require_partitions((1,), bad)
    assert shapes._checked_partition.cache_info().currsize == 1


def test_a_repeated_shape_keeps_one_memo_entry(clear_oracle_memos):
    require_partitions((3, 1), [2, 2, 0], ())
    size_after_first = shapes._checked_partition.cache_info().currsize
    for _ in range(3):
        require_partitions((3, 1), [2, 2, 0], ())
        require_partitions([3, 1])
    assert shapes._checked_partition.cache_info().currsize == size_after_first == 3

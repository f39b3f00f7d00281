import dataclasses
import random

import pytest

import schreier as s
import schreier.checks
from helpers import make_action, random_transitive_perms

EXPECTED_NAMES = [
    "words-reduce-idempotent",
    "words-group-laws",
    "words-parse-roundtrip",
    "action-axioms",
    "action-homomorphism",
    "action-respects-reduction",
    "transversal-identity-first",
    "transversal-prefix-closed",
    "transversal-consistent",
    "transversal-shortlex-minimal",
    "barmap-laws",
    "basis-count",
    "basis-words-distinct",
    "basis-membership",
    "basis-degenerate-bijection",
    "rewrite-roundtrip",
    "rewrite-homomorphism",
    "rewrite-basis-fidelity",
    "rewrite-empty-iff-identity",
    "membership-final-state",
    "induce-restriction-identity",
    "induce-claim",
    "induce-action-axioms",
    "induce-coset-equivariance",
    "induce-tensor-generic",
]


def test_suite_names_and_order():
    act = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
    results = s.run_checks(act, trials=20)
    assert [r.name for r in results] == EXPECTED_NAMES


def test_all_pass_on_worked_example():
    act = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
    results = s.run_checks(act, max_len=5, trials=50)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    by_name = {r.name: r for r in results}
    assert "|B| = 4" in by_name["basis-count"].detail
    assert "degenerate = 2" in by_name["basis-count"].detail
    assert by_name["transversal-shortlex-minimal"].detail.startswith("exhaustive")


def test_all_pass_on_trivial_action():
    act = make_action(("x", "y"), [[0, 1], [0, 1]])
    results = s.run_checks(act, trials=20)
    assert all(r.passed for r in results)
    by_name = {r.name: r for r in results}
    assert "|B| = 2" in by_name["basis-count"].detail


def test_all_pass_on_an_action_with_no_generators():
    # One coset and an empty basis; every random word is the identity.
    results = s.run_checks(s.FiniteAction(s.Alphabet(()), 3, ()), trials=20)
    assert [r.name for r in results] == EXPECTED_NAMES
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def _dihedral(m):
    return make_action(("x", "y"), [[(i + 1) % m for i in range(m)], [(-i) % m for i in range(m)]])


def test_minimality_is_sampled_past_the_enumeration_cap():
    # Reps of the degree-22 dihedral action reach 11 letters: 354,293 reduced words, over the cap.
    results = s.run_checks(_dihedral(22), trials=20)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    by_name = {r.name: r for r in results}
    assert by_name["transversal-shortlex-minimal"].detail == "sampled (instance too large for an exhaustive scan)"


def _one_generator_cycle(m):
    return make_action(("x",), [[(i + 1) % m for i in range(m)]])


def test_one_generator_scans_are_capped_by_letters():
    # One generator has only 2L + 1 reduced words up to length L, under the
    # word cap up to L = 149,999, but they hold L(L + 1) letters.
    by_name = {r.name: r for r in s.run_checks(_one_generator_cycle(3), max_len=149_999, trials=0)}
    assert by_name["rewrite-empty-iff-identity"].detail == "3 stabilizer elements up to length 3"
    # Reps of the degree-4,000 cycle reach 2,000 letters: 4,002,000 letters in the scan.
    by_name = {r.name: r for r in s.run_checks(_one_generator_cycle(4000), trials=0)}
    assert by_name["transversal-shortlex-minimal"].detail == "sampled (instance too large for an exhaustive scan)"
    assert all(r.passed for r in by_name.values())


def test_the_fallback_scan_stays_under_the_cap_on_a_wide_alphabet():
    # With 600 generators even length 2 holds 1,440,001 reduced words, so
    # the fallback scan shrinks from length 3 (about 1.7 billion) to 1.
    names = tuple(f"g{i}" for i in range(600))
    act = make_action(names, [[1, 0]] * 600)
    by_name = {r.name: r for r in s.run_checks(act, max_len=2, trials=3)}
    assert by_name["rewrite-empty-iff-identity"].detail == "1 stabilizer elements up to length 1"
    assert all(r.passed for r in by_name.values())


def test_the_letter_cap_changes_no_scan_with_two_or_more_generators():
    def words_up_to(n, length):
        return 1 + sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, length + 1))

    for n in [*range(2, 60), 149_999, 150_000]:
        for length in range(13):
            assert schreier.checks._enumerable(n, length) == (words_up_to(n, length) <= 300_000), (n, length)
    # With one generator, L(L + 1) letters up to length L: 1,197,930 at 1,094.
    assert schreier.checks._enumerable(1, 1094) and not schreier.checks._enumerable(1, 1095)


def test_all_pass_on_random_actions():
    rng = random.Random(113)
    for _ in range(5):
        n, m = rng.randint(1, 3), rng.randint(1, 9)
        act = make_action(tuple("xyz"[:n]), random_transitive_perms(rng, n, m))
        results = s.run_checks(act, max_len=4, trials=25, seed=rng.randrange(1000))
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_all_pass_where_a_suffix_of_a_rep_is_not_a_rep():
    # Reps are 1, x, x^-1 and x y; y fixes the basepoint, so y is no rep.
    act = make_action(("x", "y"), [[1, 3, 2, 0], [0, 2, 1, 3]])
    assert [str(r) for r in s.build_table(act, 0)[1].reps] == ["1", "x", "x^-1", "x y"]
    results = s.run_checks(act, trials=20)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_deterministic_under_fixed_seed():
    act = make_action(("x", "y"), [[1, 0, 2], [2, 1, 0]])
    a = s.run_checks(act, seed=5, trials=30)
    b = s.run_checks(act, seed=5, trials=30)
    assert [(r.name, r.passed, r.detail) for r in a] == \
        [(r.name, r.passed, r.detail) for r in b]


def test_nonzero_basepoint():
    act = make_action(("x",), [[1, 2, 0]])
    results = s.run_checks(act, basepoint=1, trials=20)
    assert all(r.passed for r in results)


# Every draw of run_checks on a 3-generator action, seed 0, one trial: per
# getrandbits(k) call, the digit k, then the value drawn in hex.
_DRAWS_SEED_0 = (
    "232123232120212322212123232321232121222323202220212023202223213737342322232223202120222023232221"
    "333430323332343537313734333336343230363734373030353633353636353530343323232120222122232031373431"
    "313637313634333030373237343737333032343235303432363734313736343434323330343633323431323131232030"
    "343735323330"
)


def _draws(monkeypatch, act, **kwargs):
    """run_checks' getrandbits log, as in ``_DRAWS_SEED_0``; every invariant must pass."""
    log = []

    class Logged(random.Random):
        def getrandbits(self, k):
            value = super().getrandbits(k)
            log.append(f"{k}{value:x}")
            return value

    monkeypatch.setattr(schreier.checks.random, "Random", Logged)
    results = s.run_checks(act, **kwargs)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    return "".join(log)


def test_the_draw_stream_is_pinned(monkeypatch):
    # Any change to how the suite draws (rand_word, _random_raw, the
    # H-action's shuffles) shifts this log, and with it every detail.
    act = make_action(("x", "y", "z"), [[1, 2, 0, 3], [0, 1, 3, 2], [3, 1, 2, 0]])
    assert _draws(monkeypatch, act, max_len=3, seed=0, trials=1) == _DRAWS_SEED_0


# The same log on a 1-generator action of degree 3, seed 0, three trials, at
# max_len 0 and 1: each randrange(1) (a word length at max_len 0, and the
# 2n - 1 = 1 choices of a letter after the first) still spends 1-bit draws.
_DRAWS_ONE_GENERATOR = {
    0: "2321232321101011111010111111101110101111111011101010111011111011111111111111111010101110111111101011"
       "1010101011111110111110211111102011111111102011111011111111111011101111101011101111101011111010111110"
       "11111010101110111111111010101110111011101111111011111111111010101111101022101020101110201111111010",
    1: "2321232321202111111021232323211110212223232022202120232022232123232223222322232021202220232322212122"
       "2021212122222320232221212322212023232223202022232122232322222022212323212022212223202023222020232320"
       "2322102010232123222323211021222122202221232322202323222222212120222321212220212020232020222322212120"
       "2022232023202320232023222323222221232222212223202320232222232321222121212222232223232321202122202122"
       "222123202020222120222021232021212320202320",
}


@pytest.mark.parametrize("max_len", [0, 1])
def test_the_draw_stream_is_pinned_at_its_edges(monkeypatch, max_len):
    act = make_action(("x",), [[1, 2, 0]])
    assert _draws(monkeypatch, act, max_len=max_len, seed=0, trials=3) == _DRAWS_ONE_GENERATOR[max_len]


def test_the_suite_draws_what_randrange_and_choice_draw():
    ours, theirs = random.Random(7), random.Random(7)
    for n in [*range(1, 70), 1000, 2**20, 2**20 + 1]:
        assert schreier.checks._below(ours.getrandbits, n) == theirs.randrange(n), n
    for n, max_len in [(1, 0), (1, 1), (2, 10), (3, 6), (5, 33)]:
        ab = s.Alphabet(tuple(f"g{i}" for i in range(n)))
        raw = schreier.checks._random_raw(ours.getrandbits, ab, max_len)
        assert raw == [(theirs.randrange(n), theirs.choice((1, -1))) for _ in range(theirs.randrange(max_len + 1))]
    assert ours.getstate() == theirs.getstate()


def _failures_with(monkeypatch, tamper):
    """run_checks on the 3-cycle, with build_table's output passed through tamper."""
    real = schreier.checks.build_table

    def build_table(act, basepoint):
        return tamper(*real(act, basepoint))

    monkeypatch.setattr(schreier.checks, "build_table", build_table)
    act = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
    return {r.name: r.detail for r in s.run_checks(act, trials=20) if not r.passed}


def test_run_checks_reports_a_table_with_swapped_points(monkeypatch):
    def swap_points(table, tr):
        p = table.points
        return dataclasses.replace(table, points=(p[0], p[2], p[1])), tr

    assert _failures_with(monkeypatch, swap_points) == {
        "transversal-consistent": "rep x does not reach its coset point",
    }


def test_run_checks_reports_a_representative_that_is_not_shortlex_least(monkeypatch):
    # 1, x, x^2 is still a prefix-closed transversal, so the basis and the
    # induced action build; only the minimality check can see the change.
    def replace_rep(table, tr):
        reps = tr.reps
        return table, s.SchreierTransversal((reps[0], reps[1], s.concat(reps[1], reps[1])))

    assert _failures_with(monkeypatch, replace_rep) == {
        "transversal-shortlex-minimal": "coset 2: x^-1 is smaller than rep x^2",
    }


def test_run_checks_reports_basis_words_on_the_wrong_pairs(monkeypatch):
    # Swapping two basis words keeps a free basis of the same count, so
    # only checks that tie each word to its (coset, generator) pair see it.
    real = schreier.checks.compute_basis

    def compute_basis(table, tr):
        # In place, so the basis keeps what compute_basis stored and rewrite, expand and induce still take it.
        basis = real(table, tr)
        e = basis.elements
        w2, w3 = e[2].word, e[3].word
        object.__setattr__(e[2], "word", w3)
        object.__setattr__(e[3], "word", w2)
        return basis

    monkeypatch.setattr(schreier.checks, "compute_basis", compute_basis)
    act = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
    failures = {r.name: r.detail for r in s.run_checks(act, trials=20) if not r.passed}
    assert failures["basis-degenerate-bijection"] == "pair (1, 1) does not match its word x y x^-1"
    assert "basis-count" not in failures and "basis-words-distinct" not in failures


def test_run_checks_reports_induced_images_swapped_across_cosets(monkeypatch):
    # Swapping two images of x keeps a permutation, so the induced action is
    # still an action; only its coset coordinate leaves the table.
    real = schreier.checks.induce

    def induce(*args):
        ind = real(*args)
        x = list(ind.base.gen_perms[0].images)
        x[0], x[ind.encode(0, 1)] = x[ind.encode(0, 1)], x[0]
        perms = (s.Permutation(tuple(x)), *ind.base.gen_perms[1:])
        return dataclasses.replace(ind, base=dataclasses.replace(ind.base, gen_perms=perms))

    monkeypatch.setattr(schreier.checks, "induce", induce)
    act = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
    failures = {r.name: r.detail for r in s.run_checks(act, trials=20) if not r.passed}
    assert failures["induce-coset-equivariance"] == "coset coordinate strayed from the table"
    assert "induce-action-axioms" not in failures


def test_run_checks_reports_word_permutations_that_break_the_inverse_law(monkeypatch):
    real = schreier.checks.perm_of_word

    def perm_of_word(act, w):
        perm = real(act, w)
        if w.letters and w.letters[0].sign < 0:
            swap = s.Permutation((1, 0, *range(2, act.degree)))
            return perm.then(swap)
        return perm

    monkeypatch.setattr(schreier.checks, "perm_of_word", perm_of_word)
    act = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
    failures = {r.name: r.detail for r in s.run_checks(act, trials=20) if not r.passed}
    assert failures["action-homomorphism"] == "word permutations do not respect inverses"


def _reps_off_the_tree(real):
    # Coset 2 spelt x y x, whose prefix x y is no rep, in place of x^-1; the tree itself is untouched.
    def build_table(act, basepoint):
        table, tr = real(act, basepoint)
        tr.__dict__["reps"] = (*tr.reps[:2], s.parse("x y x", act.alphabet))
        return table, tr

    return build_table


def _rep_times_x22(real):
    # x^22 fixes every point of the degree-22 dihedral action, so the coset stays and the rep grows.
    def rep(table, tr, w):
        return s.concat(real(table, tr, w), s.parse("x^22", w.alphabet))

    return rep


def _one_point_on(real):
    def evaluate(act, point, w):
        return (real(act, point, w) + 1) % act.degree

    return evaluate


def _expand_then_y(real):
    def expand(basis, bw):
        return s.concat(real(basis, bw), s.parse("y", basis.alphabet))

    return expand


def _rewrite_to_nothing(real):
    def rewrite(table, tr, basis, w):
        return real(table, tr, basis, s.identity(w.alphabet))

    return rewrite


# One row per failure line an invariant reaches only when the library name it calls through
# schreier.checks is tampered with: the invariant, that name, the tamper, the action and the detail.
# The dihedral action of degree 22 has its minimality scan sampled.
_CYCLE3 = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
_TAMPERED_CALLS = [
    ("transversal-prefix-closed", "build_table", _reps_off_the_tree, _CYCLE3,
     "prefix x y of x y x is not a representative"),
    ("transversal-shortlex-minimal", "rep", _rep_times_x22, _dihedral(22), "rep x^21 is not minimal against y x^-1"),
    ("basis-membership", "evaluate", _one_point_on, _CYCLE3, "basis word y does not fix the basepoint"),
    ("rewrite-roundtrip", "expand", _expand_then_y, _CYCLE3, "round trip failed for x^-1 y x^-2"),
    ("rewrite-empty-iff-identity", "expand", _expand_then_y, _CYCLE3, "round trip failed for 1"),
    ("rewrite-empty-iff-identity", "rewrite", _rewrite_to_nothing, _CYCLE3, "empty rewrite for nonidentity y"),
]


@pytest.mark.parametrize("invariant,name,tamper,act,detail", _TAMPERED_CALLS,
                         ids=[f"{row[0]}-{row[1]}" for row in _TAMPERED_CALLS])
def test_run_checks_reports_a_tampered_library_call(monkeypatch, invariant, name, tamper, act, detail):
    monkeypatch.setattr(schreier.checks, name, tamper(getattr(schreier.checks, name)))
    result = {r.name: r for r in s.run_checks(act, trials=20)}[invariant]
    assert (result.passed, result.detail) == (False, detail)


@pytest.mark.parametrize("kwargs,message", [
    ({"trials": -3}, "trials must be non-negative, got -3"),
    ({"max_len": -1}, "max_len must be non-negative, got -1"),
])
def test_run_checks_rejects_negative_counts(kwargs, message):
    act = make_action(("x",), [[1, 2, 0]])
    with pytest.raises(ValueError, match=message):
        s.run_checks(act, **kwargs)

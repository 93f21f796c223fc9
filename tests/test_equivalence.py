import hashlib
import os
import warnings

import numpy as np
import pytest

import nomassoc as nm
from nomassoc import (
    DataError,
    EquivalenceLevel,
    check,
    from_scenarios,
    hierarchy_scan,
)
from nomassoc.equivalence import HIERARCHY
from nomassoc.reference import (
    fixture_e2_without_e1,
    fixture_e4_without_e3,
    fixture_e5_without_e4,
    fixture_relabeled_pair,
)


def independent_triple():
    """X1, X2 independent of each other and of Y (product masses)."""
    rows = []
    for y, py in (("0", 2.0), ("1", 3.0)):
        for a, pa in (("u", 1.0), ("v", 2.0)):
            for b, pb in (("s", 3.0), ("t", 1.0)):
                rows.append(((y, a, b), py * pa * pb))
    return from_scenarios(rows, names=("Y", "X1", "X2"))


class TestLevels:
    def test_perfect_prediction_without_mutual_determinism(self):
        ds = fixture_e2_without_e1()
        assert check(ds, "X1", "X2", "Y", "E2").holds
        report = check(ds, "X1", "X2", "Y", "E1")
        assert not report.holds
        assert "tau" in report.witness.comparison

    def test_equal_vectors_unequal_matrices(self):
        ds = fixture_e4_without_e3()
        assert check(ds, "X1", "X2", "Y", "E4").holds
        report = check(ds, "X1", "X2", "Y", "E3")
        assert not report.holds
        assert report.witness.labels == ("1", "2")
        assert report.witness.index == (0, 1)
        assert report.witness.lhs == pytest.approx(0.5, abs=1e-12)
        assert report.witness.rhs == pytest.approx(0.0, abs=1e-12)

    def test_equal_tau_unequal_vectors(self):
        ds = fixture_e5_without_e4()
        assert check(ds, "X1", "X2", "Y", "E5").holds
        report = check(ds, "X1", "X2", "Y", "E4")
        assert not report.holds
        # the first two components are swapped between the variables
        assert report.witness.index == (0,)

    def test_reflexivity(self):
        ds = fixture_e5_without_e4()
        for level in ("E1", "E2", "E2prime", "E3", "E4", "E5"):
            assert check(ds, "X1", "X1", "Y", level).holds

    def test_mutual_determinism_implies_equal_matrices(self):
        ds = fixture_relabeled_pair()
        assert check(ds, "X1", "X2", "Y", "E2prime").holds
        assert check(ds, "X1", "X2", "Y", "E3").holds

    def test_overlapping_references_with_a_relabelled_member(self):
        # C relabels A, so (A, B) and (B, C) determine each other, and Y
        # is a function of A
        rows = [(("0", "a", "p", "x"), 1.0), (("1", "b", "p", "y"), 1.0),
                (("1", "b", "q", "y"), 1.0), (("0", "a", "q", "x"), 1.0)]
        ds = from_scenarios(rows, names=("Y", "A", "B", "C"))
        assert check(ds, ["A", "B"], ["B", "C"], "Y", "E1").holds
        assert check(ds, ["A", "B"], ["B", "C"], "Y", "E2prime").holds
        # C now splits a level of A: (B, C) still determines (A, B), but
        # not the other way round
        rows[3] = (("0", "a", "q", "z"), 1.0)
        rows.append((("0", "a", "p", "w"), 1.0))
        ds = from_scenarios(rows, names=("Y", "A", "B", "C"))
        report = check(ds, ["A", "B"], ["B", "C"], "Y", "E1")
        assert not report.holds
        assert report.witness.comparison == "tau((B,C)|(A,B))"

    def test_unknown_level(self):
        with pytest.raises(DataError):
            EquivalenceLevel("E9")


class TestHierarchyScan:
    def test_perfect_prediction_fixture(self):
        ds = fixture_e2_without_e1()
        verdicts = dict(hierarchy_scan(ds, "X1", "X2", "Y"))
        assert verdicts == {
            "E1": False, "E2": True, "E3": True, "E4": True, "E5": True
        }

    def test_relabelled_copy_all_hold(self):
        # X2 relabels X1 and Y is a function of X1: everything holds
        rows = [
            (("0", "a", "p"), 1.0),
            (("1", "b", "q"), 2.0),
            (("0", "c", "r"), 1.5),
        ]
        ds = from_scenarios(rows, names=("Y", "X1", "X2"))
        assert all(h for _, h in hierarchy_scan(ds, "X1", "X2", "Y"))

    def test_independent_variables(self):
        ds = independent_triple()
        verdicts = dict(hierarchy_scan(ds, "X1", "X2", "Y"))
        assert verdicts == {
            "E1": False, "E2": False, "E3": True, "E4": True, "E5": True
        }

    def test_order_matches_hierarchy(self):
        ds = independent_triple()
        names = [n for n, _ in hierarchy_scan(ds, "X1", "X2", "Y")]
        assert names == list(HIERARCHY)


class TestRelationLaws:
    def relabel_chain(self):
        # X2 and X3 are successive relabellings of X1; Y depends on X1 only
        rows = []
        for code, (a, b, c, m) in enumerate(
            (("a", "q", "j", 0.2), ("b", "r", "k", 0.5), ("c", "s", "l", 0.3))
        ):
            rows.append(((str(code % 2), a, b, c), m))
        return from_scenarios(rows, names=("Y", "X1", "X2", "X3"))

    def test_symmetry(self):
        for ds in (fixture_e4_without_e3(), fixture_e5_without_e4()):
            for level in ("E2", "E2prime", "E3", "E4", "E5"):
                ab = check(ds, "X1", "X2", "Y", level).holds
                ba = check(ds, "X2", "X1", "Y", level).holds
                assert ab == ba, level

    def test_transitivity_on_exact_fixture(self):
        ds = self.relabel_chain()
        for level in ("E2prime", "E3", "E4", "E5"):
            assert check(ds, "X1", "X2", "Y", level).holds
            assert check(ds, "X2", "X3", "Y", level).holds
            assert check(ds, "X1", "X3", "Y", level).holds

    def test_perfect_prediction_verdict_scheme_invariant(self):
        # a tau = 1 predicate has the same truth value under every regular
        # weighting scheme
        for ds, expected in (
            (fixture_e2_without_e1(), True),
            (fixture_e5_without_e4(), False),
        ):
            for scheme in ("gk", "equal", "invprob"):
                level = EquivalenceLevel("E2", alpha=scheme)
                assert check(ds, "X1", "X2", "Y", level).holds is expected


class TestBinaryResponseCollapse:
    def test_e3_e4_e5_agree_for_binary_response(self):
        rng = np.random.default_rng(3)
        agree = 0
        for _ in range(200):
            rows = []
            for a in "uv":
                for b in "st":
                    for y in "01":
                        m = int(rng.integers(0, 5))
                        if m:
                            rows.append(((y, a, b), float(m)))
            try:
                ds = from_scenarios(rows, names=("Y", "X1", "X2"))
            except DataError:
                continue
            if ds.variable("Y").cardinality < 2:
                continue
            try:
                r3 = check(ds, "X1", "X2", "Y", "E3").holds
                r4 = check(ds, "X1", "X2", "Y", "E4").holds
                r5 = check(ds, "X1", "X2", "Y", "E5").holds
            except DataError:
                continue
            assert r3 == r4 == r5
            agree += 1
        assert agree > 100  # enough informative trials


# -- the ladder's outputs, pinned ---------------------------------------------


def ladder_case(rng):
    """A small random dataset with two references and a level setting, as
    plain values, so that any build of the package can be fed the same case.

    Y comes first.  Variables derived from others (relabelled or coarsened)
    make determinism occur; a declared level no row takes, and rows of zero
    mass, leave levels unobserved.  ``x1``/``x2`` hold one to three names,
    may be equal and may include Y.  ``alpha`` is a scheme name, ``None``,
    or raw explicit weights, zeros included.
    """
    n_rows = int(rng.integers(3, 13))
    cards = [int(c) for c in rng.integers(1, 5, int(rng.integers(3, 5)))]
    columns = [rng.integers(0, c, n_rows) for c in cards]
    for _ in range(int(rng.integers(0, 3))):
        src = int(rng.integers(0, len(columns)))
        card = int(rng.integers(1, 4))
        if rng.random() < 0.5:  # a relabelling keeps every distinction
            card = cards[src]
            mapping = rng.permutation(card)
        else:
            mapping = rng.integers(0, card, cards[src])
        columns.append(mapping[columns[src]])
        cards.append(card)
    if rng.random() < 0.3:  # Y determined by another variable
        src = int(rng.integers(1, len(columns)))
        cards[0] = max(cards[0], 2)
        columns[0] = rng.integers(0, cards[0], cards[src])[columns[src]]
    masses = rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 3.0], n_rows)
    if not masses.any():
        masses[0] = 1.0
    names = ["Y"] + [chr(ord("A") + v) for v in range(len(columns) - 1)]
    levels = [
        tuple(f"{name.lower()}{c}"
              for c in range(card + int(rng.random() < 0.2)))
        for name, card in zip(names, cards)
    ]

    def reference(taken=()):
        pool = names if rng.random() < 0.1 else names[1:]
        if rng.random() < 0.8 and set(pool) - set(taken):
            pool = [n for n in pool if n not in taken]  # mostly disjoint
        size = int(rng.integers(1, min(3, len(pool)) + 1))
        picked = [str(n) for n in rng.choice(pool, size, replace=False)]
        return picked[0] if size == 1 and rng.random() < 0.5 else picked

    x1 = reference()
    x2 = x1 if rng.random() < 0.1 else reference(x1)
    tolerance = float(rng.choice([1e-9, 1e-6, 0.05]))
    kind = int(rng.integers(0, 6))
    if kind < 4:
        alpha = (None, "gk", "equal", "invprob")[kind]
    else:
        y_mass = np.bincount(columns[0], weights=masses, minlength=cards[0])
        size = max(1, int((y_mass > 0).sum())) + int(rng.random() < 0.15)
        raw = rng.choice([0.0, 1.0, 2.0, 3.0], size)
        alpha = tuple(float(w) for w in raw)
        if not any(alpha):
            alpha = (1.0,) + alpha[1:]
    return names, levels, columns, masses, x1, x2, tolerance, alpha


def ladder_lines(nm, case):
    """One line per ``check`` level and one for ``hierarchy_scan`` on
    ``case``, with the package ``nm``: verdict, witness (``lhs``/``rhs``
    as ``float.hex``), or the error's type and text, then each warning's
    category, text and where it points (``caller`` for the line that
    called into the package)."""
    names, levels, columns, masses, x1, x2, tolerance, alpha = case
    ds = nm.CategoricalDataset(
        [nm.VariableMeta(n, lv) for n, lv in zip(names, levels)],
        columns, masses,
    )
    if isinstance(alpha, tuple):
        alpha = nm.WeightVector.from_raw(alpha)

    def outcome(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = call()
            except Exception as exc:
                result = f"{type(exc).__name__}: {exc}"
        for w in caught:
            where = ("caller" if w.filename == __file__
                     else os.path.basename(w.filename))
            result = f"{result} | {w.category.__name__}: {w.message} @ {where}"
        return result

    def report(level):
        r = nm.check(ds, x1, x2, "Y", level)
        if r.witness is None:
            return f"{r.level} {r.holds}"
        w = r.witness
        return (f"{r.level} {r.holds} {w.comparison} {w.index!r} "
                f"{w.labels!r} {float.hex(w.lhs)} {float.hex(w.rhs)}")

    def scan():
        return repr(nm.hierarchy_scan(ds, x1, x2, "Y", alpha=alpha,
                                      tolerance=tolerance))

    lines = [
        outcome(lambda: report(nm.EquivalenceLevel(name, tolerance, alpha)))
        for name in nm.equivalence.LEVEL_NAMES
    ]
    return lines + [outcome(scan)]


#: SHA-256 of :func:`ladder_lines` over :data:`LADDER_CASES` cases.  An
#: intended change of the outputs is re-pinned only after comparing the
#: old and new package case by case (each ``check`` report and scan result
#: ``==``), with the old build imported as a second package.
LADDER_DIGEST = "8e3eb3aac3d9445994aa95794e20c02b043526d3380623df02a49539dd058c7d"
LADDER_CASES = 400
#: The first four hex digits of each case's own SHA-256, in case order, so
#: that a digest mismatch can name the cases whose outputs changed.
LADDER_CASE_HASHES = (
    "b1c617940074cc506f8b0f6029bab8096e4fbeb561a431f52a920b6c87006219"
    "ff7ca6ffa96222761b87db4ae64776d36bda5f36fef1e2adeb4a8d8e422b8714"
    "354055f98714026cc0949b4145432276ac4285fff40376d319cec13d093687cb"
    "5d2476d3960eb4abc9169153a181ef139c476025fb7a621923100cd39d0328e6"
    "6915c15ab83d76d376d34046e9e776d37d0cad4bbc298bb8c9a38539c1bb3397"
    "da9ed31a91ef71362c7876d3fdb4c66e7d7376d3b1af76d314316542c51b76d3"
    "297e11ada19a2350caaa028fac9f7b778d7467fea3c548d84f5a67feb99e6219"
    "76d3765ac897b400ead476d3ecccca660cc976d34ebceb368034afb55a04caa8"
    "f38983148e628eba25dc1f1bac01fa3402cc88ddda0885b9e291866aba2b1566"
    "76d385a976d3922358d776d3ac5876d376d3567dc0163f92215fe21b775bd5cc"
    "76d33c967645895050f375f45a047668d99102cc713663d2c82407585a0476d3"
    "8d5a76d375f75ed05a04aad13cc06219ec6276d376d3a85a711c50bbfef882f6"
    "1dafe27fc3b7abacd04b6277fe9e1925e5a2e75d05806709d632472f67fe02d5"
    "f6d3c13d71361ed2f48b638b528ec48b76d353204d00c5648325eb786301932e"
    "76da871476d3eab9da4676d3dc036d3f5518b792061c528e83251e9374dcc008"
    "dd1676d32d02db71c916b58763a21898e78ae088b4f7c91676d3816a76d34cdd"
    "323c4b19402476d3ac4201626d77c05556cd822e96e876d33f2a21aebee30b99"
    "7a60e285c4d5641381264d09ecccaedbe63276d3528e218976d3edb261be58c1"
    "3a9742dc76d34ba732e5279476d35fa776d33efec2c2fc08d8f58c7f76d32e1f"
    "857a76d36ffa4cfa7c9ad57c63928f030483963b76d38df4ff998610e3b183b5"
    "76d38df49d2c64ba2a383054261676d3c13d0f183b55ec626773c13d97f976d3"
    "52d376d3f8c94ff95e5776d39c4bea4f76d37ce816f078b037878642025cd643"
    "e55c7fbddc1f1b6574c77a393f2a824c62196c09a5e776d376d3fe3b85a9b5e7"
    "f5ea65a53e2ec916704876d376d3580571364e8485a9328f2431391877240931"
    "eccc3c96c91610267db12a92850e91ad5a04dd4876d376d32f6b1a2876d3f8e2"
)


#: Cases whose two references share a member without being equal.  When
#: ``LADDER_DIGEST`` was pinned, E1, E2prime and the scan refused them with
#: :data:`OVERLAP_ERROR`, as their mutual comparisons tabulated one
#: reference against the other; those three lines keep the refusal in the
#: digest, and their outputs now are pinned by ``OVERLAPPING_DIGEST``.
OVERLAPPING_REFERENCES = {
    0, 12, 14, 15, 16, 20, 22, 52, 59, 64, 78, 87, 88, 101, 111, 114, 118,
    126, 127, 134, 138, 145, 166, 168, 172, 174, 178, 180, 183, 184, 195,
    196, 205, 214, 218, 219, 220, 221, 224, 235, 236, 244, 251, 268, 271,
    277, 278, 282, 283, 287, 297, 303, 308, 316, 323, 324, 331, 332, 351,
    358, 360, 366, 367, 371, 375, 378, 380, 384, 386, 388, 389, 391, 392,
    397,
}
OVERLAP_ERROR = "DataError: explanatory and response variables overlap"
#: The lines of ``ladder_lines`` that ran a mutual comparison: E1, E2prime
#: and the scan.
MUTUAL_LINES = (0, 2, 6)
#: SHA-256 of the ``MUTUAL_LINES`` of the ``OVERLAPPING_REFERENCES``
#: cases, in case order, computed once the refusal was gone.
OVERLAPPING_DIGEST = (
    "551b11955fa67d5f6769544c39f96de3211b91d9e6b4d334e19ed6ab91901217"
)


#: What every weight scheme now says of a response with one level of
#: positive mass.  When ``LADDER_DIGEST`` was pinned, each scheme named it
#: its own way (:func:`one_level_when_pinned`, by the case's ``alpha``);
#: the digest keeps those texts, and ``ONE_LEVEL_LINES`` lines carry it.
ONE_LEVEL = ("weighted association undefined: the response has one level "
             "of positive mass")
ONE_LEVEL_LINES = 300


def one_level_when_pinned(alpha):
    """The text ``ONE_LEVEL`` replaced for a case weighted by ``alpha``."""
    if isinstance(alpha, tuple):
        return (f"weight vector has {len(alpha)} components, response has "
                "0 levels")
    undefined = "no response level has marginal strictly inside (0, 1)"
    return {
        None: f"variation-proportional weights undefined: {undefined}",
        "gk": f"variation-proportional weights undefined: {undefined}",
        "invprob": f"inverse-probability weights undefined: {undefined}",
        "equal": "need at least one response level",
    }[alpha]


def overlapping(case):
    """Whether the references of a ``ladder_case`` share a member without
    being equal."""
    x1, x2 = ({x} if isinstance(x, str) else set(x) for x in case[4:6])
    return bool(x1 & x2) and x1 != x2


def test_ladder_outputs_match_pinned_digest():
    rng = np.random.default_rng(2013)
    raw = [ladder_case(rng) for _ in range(LADDER_CASES)]
    assert {i for i, case in enumerate(raw) if overlapping(case)} == (
        OVERLAPPING_REFERENCES)
    cases = [ladder_lines(nm, case) for case in raw]
    assert sum(ONE_LEVEL in line for case in cases for line in case) == (
        ONE_LEVEL_LINES)
    cases = [[line.replace(ONE_LEVEL, one_level_when_pinned(case[-1]))
              for line in lines] for case, lines in zip(raw, cases)]
    mutual = [cases[i][j] for i in sorted(OVERLAPPING_REFERENCES)
              for j in MUTUAL_LINES]
    assert OVERLAP_ERROR not in mutual
    assert hashlib.sha256("\n".join(mutual).encode()).hexdigest() == (
        OVERLAPPING_DIGEST)
    for i in OVERLAPPING_REFERENCES:
        for j in MUTUAL_LINES:
            cases[i][j] = OVERLAP_ERROR
    text = "\n".join(line for case in cases for line in case)
    # the cases reach every kind of outcome the digest is meant to pin
    for part in (" True", " False", "association matrix entry",
                 "association vector component", "weighted association",
                 "tau(Y|", "DataError: ", "DroppedLevelsWarning",
                 "non-regular weight vector", "@ caller", "@ equivalence.py"):
        assert part in text, part
    if hashlib.sha256(text.encode()).hexdigest() != LADDER_DIGEST:
        changed = [
            f"case {i}:\n  " + "\n  ".join(case)
            for i, case in enumerate(cases)
            if hashlib.sha256("\n".join(case).encode()).hexdigest()[:4]
            != LADDER_CASE_HASHES[4 * i:4 * i + 4]
        ]
        pytest.fail(f"{len(changed)} of {LADDER_CASES} cases changed "
                    "(first 3 shown; a change within a short hash shows "
                    "none):\n" + "\n".join(changed[:3]))

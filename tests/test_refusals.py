"""Every refusal of a bad argument or a bad input that the other tests do
not reach, each through a public call, with its exception type and message.
"""

import os
import warnings

import numpy as np
import pytest

import nomassoc as nm
from nomassoc.reference import loan_tables


def flu():
    return nm.generate_flu(nm.FluScenarioConfig(n=300, seed=4))


def flu_bootstrap(**kwargs):
    """A reduction bootstrap over ``flu()``: 10 resamples of 50 rows unless
    ``kwargs`` say otherwise."""
    arguments = {"iterations": 10, "sample_size": 50, "seed": 1} | kwargs
    return nm.bootstrap(flu(), nm.make_reduction_statistic(
        "Y", ["X1"], ["X1", "X2"]), **arguments)


def two_variables(**kwargs):
    metas = [nm.VariableMeta("u", ("a", "b")), nm.VariableMeta("v", ("x", "y"))]
    arguments = {"variables": metas, "codes": [[0, 1], [1, 0]]} | kwargs
    return lambda: nm.CategoricalDataset(**arguments)


def from_pipe(data, **kwargs):
    def load():
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        return nm.load_delimited(read_end, **kwargs)  # closes read_end

    return load


def each_input(call, *inputs):
    """A call of ``call`` on every one of ``inputs``: it raises the first
    input's error once each input has raised the same type and message,
    and returns otherwise, so that the row fails."""
    def run():
        errors = []
        for value in inputs:
            try:
                call(value)
            except Exception as error:
                errors.append(error)
        if len(errors) == len(inputs) and len(
                {(type(e), str(e)) for e in errors}) == 1:
            raise errors[0]

    return run


def e3_without_e4():
    """A binary response with a dominant level: a lift divides a matrix
    difference by ``1 - p``, so at a tolerance between the largest matrix
    difference (0.0327) and the largest lift difference (0.0400) E3 holds
    and E4 fails."""
    ds = nm.from_scenarios(
        [(("a", "p", "u"), 6), (("a", "q", "v"), 2), (("b", "p", "v"), 1),
         (("b", "q", "u"), 1), (("a", "p", "v"), 1)],
        names=["Y", "X1", "X2"],
    )
    return nm.hierarchy_scan(ds, ["X1"], ["X2"], "Y", tolerance=0.036)


CASES = {
    "hierarchy-inconsistent": (
        e3_without_e4, nm.HierarchyInconsistencyError,
        r"E4 fails although a stronger level holds; verdicts=\[\('E1', False\), "
        r"\('E2', False\), \('E3', True\), \('E4', False\)",
    ),
    "basis-duplicate": (
        lambda: nm.verify_basis(flu(), ["X1", "X1"]), nm.DataError,
        "basis variables must be distinct",
    ),
    "basis-holds-response": (
        lambda: nm.verify_basis(flu(), ["X1", "Y"], "Y"), nm.DataError,
        "response cannot be a basis member",
    ),
    "selection-non-regular-weights": (
        lambda: nm.select_supervised(flu(), "Y", config=nm.SelectionConfig(
            weights=nm.WeightVector.from_raw([1.0, 1.0, 0.0]))),
        nm.DataError, "supervised selection requires a regular weight vector",
    ),
    # a NaN compares false with everything, so only a finiteness check
    # refuses it
    "config-epsilon": (
        each_input(lambda eps: nm.SelectionConfig(epsilon=eps),
                   -1e-9, np.nan, np.inf),
        nm.DataError, "epsilon must be finite and non-negative",
    ),
    "config-max-cells": (
        each_input(lambda cells: nm.SelectionConfig(max_cells=cells),
                   0, np.nan),
        nm.DataError, "max_cells must be positive when given",
    ),
    "config-max-vars": (
        each_input(lambda count: nm.SelectionConfig(max_vars=count),
                   0, np.nan),
        nm.DataError, "max_vars must be positive when given",
    ),
    "config-max-cells-whole": (
        each_input(lambda cells: nm.SelectionConfig(max_cells=cells),
                   2.5, np.inf),
        nm.DataError, "max_cells must be a whole number",
    ),
    "config-max-vars-whole": (
        each_input(lambda count: nm.SelectionConfig(max_vars=count),
                   2.5, np.inf),
        nm.DataError, "max_vars must be a whole number",
    ),
    "bootstrap-iterations": (
        each_input(lambda count: flu_bootstrap(iterations=count), 0, np.nan),
        nm.DataError, "iterations must be positive",
    ),
    "bootstrap-sample-size": (
        each_input(lambda size: flu_bootstrap(sample_size=size), 0, np.nan),
        nm.DataError, "sample size must be positive",
    ),
    "bootstrap-iterations-whole": (
        each_input(lambda count: flu_bootstrap(iterations=count),
                   2.5, np.inf),
        nm.DataError, "iterations must be a whole number",
    ),
    "bootstrap-sample-size-whole": (
        each_input(lambda size: flu_bootstrap(sample_size=size), 2.5, np.inf),
        nm.DataError, "sample size must be a whole number",
    ),
    "bootstrap-seed": (
        each_input(lambda seed: flu_bootstrap(seed=seed), -1, 1.5),
        nm.DataError, "seed must be a non-negative integer",
    ),
    "bootstrap-confidence": (
        lambda: flu_bootstrap(confidence=1.0),
        nm.DataError, r"confidence must be in \(0, 1\)",
    ),
    "dataset-duplicate-names": (
        two_variables(variables=[nm.VariableMeta("u", ("a", "b"))] * 2),
        nm.DataError, "duplicate variable names",
    ),
    "dataset-codes-per-variable": (
        two_variables(codes=[[0, 1]]), nm.DataError,
        "one code array per variable is required",
    ),
    "dataset-code-lengths": (
        two_variables(codes=[[0, 1], [1]]), nm.DataError,
        "code arrays must have equal length",
    ),
    "dataset-code-range": (
        two_variables(codes=[[0, 2], [1, 0]]), nm.DataError,
        r"codes of variable 'u' outside \[0, 2\)",
    ),
    "dataset-mass-length": (
        two_variables(mass=[1.0]), nm.DataError,
        "mass array length does not match rows",
    ),
    "dataset-mass-finite": (
        two_variables(mass=[1.0, np.nan]), nm.DataError,
        "row masses must be finite",
    ),
    "dataset-mass-negative": (
        two_variables(mass=[1.0, -1.0]), nm.DataError,
        "row masses must be non-negative",
    ),
    "dataset-total-mass": (
        two_variables(mass=[0.0, 0.0]), nm.DataError,
        "total mass must be positive",
    ),
    "table-dimensions": (
        lambda: nm.ContingencyTable(np.ones(3)), nm.DataError,
        "contingency mass must be a 2-d array",
    ),
    "table-finite": (
        lambda: nm.ContingencyTable([[1.0, np.inf]]), nm.DataError,
        "contingency mass must be finite",
    ),
    "table-negative": (
        lambda: nm.ContingencyTable([[1.0, -1.0]]), nm.DataError,
        "contingency mass must be non-negative",
    ),
    "table-total-overflow": (  # each entry is finite, their sum is not
        lambda: nm.ContingencyTable([[1e308, 0.0], [0.0, 1e308]]),
        nm.DataError, "contingency total mass is not finite",
    ),
    "table-degenerate": (
        lambda: nm.ContingencyTable(np.zeros((2, 2))), nm.DataError,
        r"contingency table is degenerate \(total mass 0\)",
    ),
    "scenario-mass": (
        lambda: nm.from_scenarios([(("a",), 0.0)]), nm.DataError,
        "scenario mass 0.0 must be positive",
    ),
    "scenario-merged-overflow": (  # each mass is finite, their sum is not
        lambda: nm.from_scenarios([(("a",), 1e308), (("a",), 1e308)]),
        nm.DataError, "total mass overflows float64",
    ),
    "scenarios-none": (
        lambda: nm.from_scenarios([]), nm.DataError, "no scenarios given",
    ),
    "missing-policy": (
        lambda: nm.load_delimited("absent.csv", missing_policy="impute"),
        nm.DataError, "unknown missing policy 'impute'",
    ),
    "raw-weights-shape": (
        lambda: nm.WeightVector.from_raw([]), nm.DataError,
        "weights must form a non-empty vector",
    ),
    "raw-weights-negative": (
        lambda: nm.WeightVector.from_raw([1.0, -0.5]), nm.DataError,
        "raw weights must be finite and non-negative",
    ),
    "raw-weights-sum": (
        lambda: nm.WeightVector.from_raw([0.0, 0.0]), nm.DataError,
        "raw weights must have positive sum",
    ),
    "concentration-no-variable": (
        lambda: nm.expected_concentration(flu(), []), nm.DataError,
        "expected_concentration requires at least one variable",
    ),
    "concentration-repeated-variable": (
        lambda: nm.expected_concentration(flu(), ["X1", 1]), nm.DataError,
        "variables must be distinct",
    ),
    "flu-sample-count": (
        each_input(lambda n: nm.FluScenarioConfig(n=n, seed=1), 0, np.nan),
        nm.DataError, "sample count must be at least 1",
    ),
    "flu-sample-count-whole": (
        each_input(lambda n: nm.FluScenarioConfig(n=n, seed=1), 2.5, np.inf),
        nm.DataError, "sample count must be a whole number",
    ),
    "flu-seed": (
        each_input(lambda seed: nm.FluScenarioConfig(n=10, seed=seed),
                   -1, 1.5),
        nm.DataError, "seed must be a non-negative integer",
    ),
    "flu-flip-prob": (
        lambda: nm.FluScenarioConfig(n=10, seed=1, flip_prob=1.5),
        nm.DataError, r"flip_prob must be in \[0, 1\]",
    ),
    "flu-s5-prob": (
        lambda: nm.FluScenarioConfig(n=10, seed=1, s5_prob=-0.1),
        nm.DataError, r"s5_prob must be in \[0, 1\]",
    ),
    "candidates-duplicate": (
        lambda: nm.select_supervised(flu(), "Y", candidates=["X1", "X1"]),
        nm.DataError, "candidate variables must be distinct",
    ),
    "variable-no-levels": (
        lambda: nm.VariableMeta("u", ()), nm.DataError,
        "variable 'u' has no levels",
    ),
    "variable-duplicate-levels": (
        lambda: nm.VariableMeta("u", ("a", "a")), nm.DataError,
        "variable 'u' has duplicate level labels",
    ),
    "variable-index": (
        lambda: flu().index_of(99), nm.DataError,
        "variable index 99 out of range",
    ),
    "scenario-names": (
        lambda: nm.from_scenarios([(("a", "b"), 1.0)], names=["u"]),
        nm.DataError, "number of names does not match scenario arity",
    ),
    "mass-column-total-overflow": (
        from_pipe(b"u,v,w\na,x,1e308\nb,y,1e308\n", mass_column="w"),
        nm.DataError, "total mass overflows float64",
    ),
    "drop-row-drops-every-row": (  # fixed width, record path, per-line path
        each_input(lambda data: from_pipe(data, missing_policy="drop-row")(),
                   b"a,b\n__NA__,x\ny,__NA__\n",
                   b'a,b\n"__NA__",x\ny,__NA__\n',
                   b"a,b\n__NA__,x\n\ny,__NA__\n"),
        nm.ParseError, "missing_policy 'drop-row' drops every data row: "
        "each holds the missing token '__NA__'",
    ),
    "mass-column": (
        from_pipe(b"u,v\na,x\n", mass_column="w"), nm.DataError,
        r"mass column 'w' not in header: \['u', 'v'\]",
    ),
    "split-seed": (
        each_input(lambda seed: nm.split(flu(), 0.5, seed), -1, 1.5),
        nm.DataError, "seed must be a non-negative integer",
    ),
    "fit-seed": (
        each_input(lambda seed: nm.fit(flu(), "X1", "Y", seed=seed), -1, 1.5),
        nm.DataError, "seed must be a non-negative integer",
    ),
    "split-fraction": (
        lambda: nm.split(flu(), 1.5, 1), nm.DataError,
        r"fraction must be in \(0, 1\)",
    ),
    "level-tolerance": (
        lambda: nm.EquivalenceLevel("E1", 0.0), nm.DataError,
        "tolerance must be positive",
    ),
    "report-holds-with-witness": (
        lambda: nm.EquivalenceReport(
            "E3", True, nm.Witness("entry", None, None, 1.0, 0.5)),
        nm.DataError, "a holding report cannot carry a witness",
    ),
    "report-fails-without-witness": (
        lambda: nm.EquivalenceReport("E3", False, None), nm.DataError,
        "a failing report must carry a witness",
    ),
    "summary-interval": (
        lambda: nm.BootstrapSummary(50.0, 50.0, 60.0, 40.0, 10, 0, 20, 1,
                                    0.95, None),
        nm.DataError, "confidence interval bounds are out of order",
    ),
    "reduction-of-independence": (
        lambda: nm.reduction_statistic(nm.from_scenarios(
            [(("a", "p"), 1), (("a", "q"), 1), (("b", "p"), 1),
             (("b", "q"), 1)], names=["Y", "X"]), "Y", ["X"], ["X"]),
        nm.DataError,
        "association of the full set is zero; reduction undefined",
    ),
    "loan-response": (
        lambda: loan_tables("Age"), nm.DataError, "unknown loan response 'Age'",
    ),
    "weights-empty": (
        lambda: nm.WeightVector(np.array([])), nm.DataError,
        "weights must form a non-empty vector",
    ),
    "weights-negative": (
        lambda: nm.WeightVector(np.array([1.5, -0.5])), nm.DataError,
        "weights must be non-negative",
    ),
    # a NaN compares false with everything, so only a finiteness check
    # refuses it
    "weights-nan": (
        lambda: nm.WeightVector(np.array([np.nan, 1.0])), nm.DataError,
        "weights must be finite",
    ),
    "weights-inf": (
        lambda: nm.WeightVector(np.array([np.inf, 1.0])), nm.DataError,
        "weights must be finite",
    ),
    "invprob-weights-overflow": (  # 1 / 1e-310 overflows to inf
        lambda: nm.tau_for(nm.from_scenarios(
            [(("a", "p"), 1e-310), (("b", "q"), 1.0), (("b", "p"), 1.0)],
            names=["Y", "X"]), "Y", "X", "invprob"),
        nm.DataError, "weights must be finite",
    ),
    "equal-weights-no-level": (
        lambda: nm.equal_weights(0), nm.DataError,
        "need at least one response level",
    ),
    "gk-weights-no-variation": (
        lambda: nm.resolve_weights("gk", nm.MarginalStats(
            p=np.array([0.5, 0.5]), gini_variation=0.0)),
        nm.DataError, "variation-proportional weights undefined: point mass",
    ),
    "marginal-empty": (
        lambda: nm.marginal_stats([]), nm.DataError,
        "marginal must be a non-empty vector",
    ),
    "marginal-sum": (
        lambda: nm.marginal_stats([0.5, 0.6]), nm.DataError,
        "marginal must be a probability vector",
    ),
    "matrix-square": (
        lambda: nm.AssociationMatrix(np.full((2, 3), 1 / 3), [0.5, 0.5]),
        nm.DataError, "association matrix must be square",
    ),
    "matrix-range": (
        lambda: nm.AssociationMatrix([[1.5, -0.5], [0.0, 1.0]], [0.5, 0.5]),
        nm.DataError,
        r"association matrix entries outside \[0, 1\] beyond tolerance",
    ),
    "matrix-row-sums": (
        lambda: nm.AssociationMatrix([[0.5, 0.2], [0.0, 1.0]], [0.5, 0.5]),
        nm.DataError, "association matrix rows do not sum to 1",
    ),
    "weighted-range": (
        lambda: nm.weighted_tau(nm.AssociationVector(
            np.array([2.0, 2.0]), np.array([0.5, 0.5]), (0, 1), (),
            ("a", "b")), nm.equal_weights(2)),
        nm.DataError,
        r"weighted association outside \[0, 1\] beyond tolerance: 2\.0",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES)
def test_refusal(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a refusal warns of nothing first
        with pytest.raises(error, match=message):
            call()


@pytest.mark.filterwarnings("ignore::nomassoc.DroppedLevelsWarning")
@pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)])
def test_a_numpy_integer_seed_draws_as_its_int(seed):
    data = flu()

    def draws(seed):
        train, test = nm.split(data, 0.5, seed)
        predictor = nm.fit(train, "X1", "Y", seed=seed)
        return (nm.generate_flu(nm.FluScenarioConfig(n=10, seed=seed)).codes,
                train.codes, nm.predict_and_score(predictor, test).counts,
                flu_bootstrap(seed=seed).mean)

    for got, want in zip(draws(seed), draws(3)):
        np.testing.assert_array_equal(got, want)

import qgini


def test_every_public_name_resolves_once():
    # a stale entry would make `from qgini import *` raise AttributeError
    names = qgini.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qgini, name), name


def test_the_public_surface_is_pinned():
    # adding or removing a public name is a deliberate change: update this list with it
    assert sorted(qgini.__all__) == [
        "BoundSet",
        "BudgetTooLarge",
        "BudgetTooSmall",
        "DegenerateFiducial",
        "DensityMatrix",
        "DimensionMismatch",
        "DimensionTooLarge",
        "DimensionTooSmall",
        "EtaEstimate",
        "EvenDimension",
        "GiniReport",
        "InvalidStateFile",
        "LorenzCurve",
        "NotFinite",
        "NotHermitian",
        "NotNormalized",
        "NotPositive",
        "ProbabilityDistribution",
        "QuantumSystem",
        "StateVector",
        "TraceNotOne",
        "ValidationError",
        "comonotonic",
        "estimate_sup_gini",
        "example_gini_closed_form",
        "example_state",
        "gini_cap",
        "gini_index",
        "gini_report",
        "load_state_file",
        "lorenz_curve",
        "new_system",
        "pure_density",
        "random_density_matrix",
        "random_state_vector",
        "save_state_file",
        "split_seed",
        "validate_density",
    ]

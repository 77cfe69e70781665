"""The public API: the names ``from antipower import *`` exports."""

import antipower

PUBLIC = [
    "ANTI_POWER_SET",
    "AntiPowerReport",
    "BlockFactorization",
    "BudgetExhaustedError",
    "DEFAULT_CAP",
    "DensityEstimate",
    "ExtensionOutcome",
    "FibonacciWord",
    "GeneratorConfig",
    "IndexSet",
    "InfiniteWord",
    "InvalidBorderError",
    "LengthDeficit",
    "LiteralWord",
    "MaterializationCapError",
    "POWER_SET",
    "PeriodicWord",
    "RecurrentAvoiderWord",
    "SearchOutcome",
    "SearchParams",
    "SparseAvoiderWord",
    "ThueMorseWord",
    "WitnessEvidence",
    "WitnessVerificationError",
    "Word",
    "all_borders",
    "anti_power_at_position",
    "ap_min",
    "ap_set",
    "block_factorization",
    "compute_n",
    "density_estimate",
    "extract_power_witness",
    "find_anti_power_factor",
    "find_anti_power_in_word",
    "is_k_anti_power",
    "is_k_power",
    "longest_border_array",
    "lower_bound_witness",
    "max_avoiding_extension",
    "naive_find_anti_power_factor",
    "naive_has_k_anti_power_factor",
    "naive_has_k_power_factor",
    "naive_is_k_anti_power",
    "naive_is_k_power",
    "p_set",
    "parse_generator",
    "root_power_from_border",
    "theoretical_upper_bound",
    "verify_witness",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(antipower.__all__) == PUBLIC
    assert len(PUBLIC) == 50
    for name in PUBLIC:
        assert getattr(antipower, name) is not None, name

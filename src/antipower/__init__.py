"""Powers and anti-powers in words.

A k-power is a concatenation of k identical blocks; a k-anti-power is a
concatenation of k pairwise distinct blocks of the same length.  This
package bundles detectors for both, lazy generators for the classical
infinite words where they live (Thue-Morse, Fibonacci, periodic words, and
two anti-power-avoiding constructions), the constructive extraction of
arbitrarily repeated factors from words with sparse anti-power prefixes,
and exhaustive computation of the finite thresholds N(l, k).
"""

from .detect import (
    BlockFactorization,
    InvalidBorderError,
    LengthDeficit,
    all_borders,
    block_factorization,
    is_k_anti_power,
    is_k_power,
    longest_border_array,
    naive_find_anti_power_factor,
    naive_has_k_anti_power_factor,
    naive_has_k_power_factor,
    naive_is_k_anti_power,
    naive_is_k_power,
    root_power_from_border,
)
from .ramsey import (
    SearchOutcome,
    SearchParams,
    compute_n,
    lower_bound_witness,
    theoretical_upper_bound,
)
from .scan import (
    ExtensionOutcome,
    anti_power_at_position,
    find_anti_power_factor,
    find_anti_power_in_word,
    max_avoiding_extension,
)
from .sets import (
    ANTI_POWER_SET,
    POWER_SET,
    DensityEstimate,
    IndexSet,
    ap_min,
    ap_set,
    density_estimate,
    p_set,
)
from .witness import (
    AntiPowerReport,
    BudgetExhaustedError,
    WitnessEvidence,
    WitnessVerificationError,
    extract_power_witness,
    verify_witness,
)
from .words import (
    DEFAULT_CAP,
    FibonacciWord,
    GeneratorConfig,
    InfiniteWord,
    LiteralWord,
    MaterializationCapError,
    PeriodicWord,
    RecurrentAvoiderWord,
    SparseAvoiderWord,
    ThueMorseWord,
    Word,
    parse_generator,
)

__version__ = "0.1.0"

__all__ = [
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

"""shiftlab: exact multigraded resolutions of monomial ideals.

Construct Taylor and Scarf complexes, restrict them below a multidegree,
minimalize them, compute Betti tables and maximal-shift profiles by strand
homology over the rationals or a prime field, and run every supported
shift inequality as an executable check.
"""

from .fields import PrimeField, QQ, Rationals, field_from_spec
from .monomials import (
    ContractError,
    IdealSyntaxError,
    MonomialIdeal,
    Ring,
    contains_all_pure_powers,
    divides,
    format_ideal_text,
    format_monomial,
    height,
    ideal_from_json,
    ideal_to_json,
    is_covering_pair,
    join,
    load_ideal,
    loads_ideal,
    minimalize_generators,
    parse_ideal_text,
    parse_monomial,
    pure_power_exponents,
    restrict_ideal,
    support,
    total_degree,
)
from .complexes import (
    BasisElement,
    CapExceededError,
    FreeComplex,
    GENERATOR_CAP,
    ShiftProfile,
    VerifyReport,
    complex_from_json,
    complex_to_json,
    dumps_complex,
    is_minimal,
    minimalize,
    restrict_complex,
    scarf_complex,
    shifts_of_complex,
    star_shift_bound,
    taylor_complex,
    verify_complex,
)
from .betti import (
    BettiTable,
    betti_records,
    format_betti_grid,
    lcm_lattice,
    multigraded_betti,
    projdim,
    rank_exact,
    scarf_is_resolution,
    shifts,
)
from .checks import (
    CoveringPairError,
    InequalityReport,
    SymbolicBound,
    check_consecutive,
    check_covering,
    check_general,
    check_multiple,
    check_range,
    check_subadditivity_profile,
    check_top,
    derive_symbolic_bounds,
    find_covering_pairs,
    general_windows,
)
from .randomgen import random_corpus, random_ideal, random_ideal_stream
from .golden import example1, example2, golden_ok, koszul2, load_fixture, verify_golden

__version__ = "0.1.0"

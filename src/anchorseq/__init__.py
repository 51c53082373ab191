"""Coefficient sequences from prime-power anchors, their congruence
systems, and prime constellation search over the resulting progressions."""

from .conditions import (
    AdmissibilityReport,
    ConditionEWitness,
    InadmissibleFamily,
    WitnessNotFound,
    check_admissibility,
    check_condition_C,
    check_condition_E,
    condition_C_sweep,
    condition_E_sweep,
    full_admissibility,
    killed_residues,
    lemma1_solution,
)
from .construction import (
    AnchorScheme,
    DefaultScheme,
    Factorization,
    SchemeError,
    anchor_default,
    coefficient,
    coefficient_range,
    coefficient_table,
    np_exponent,
)
from .crt import (
    Incompatible,
    SolutionFamily,
    build_system,
    family_from_json_dict,
    merge_congruences,
    solution_tuple,
    solve_scheme,
    solve_system,
)
from .primality import euler_sequence_check, is_prime, jacobi_symbol, sieve_primes
from .search import (
    GalaxyReport,
    TupleWitness,
    galaxy_report,
    search_tuples,
    verify_witness,
    witness_from_json_dict,
)
from .variants import (
    EulerPrimeScheme,
    NoChoiceInWindow,
    NoPrimeScheme,
    QnrAnchorChoice,
    euler_prime_anchor,
    get_scheme,
    legendre_symbol,
    no_prime_anchor,
    qnr_anchor,
    verify_euler_galaxy,
    verify_no_prime_galaxy,
)

__version__ = "0.1.0"

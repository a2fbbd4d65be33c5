"""circenum: exact enumeration of circulant graphs.

Counts directed, undirected, oriented, self-complementary and tournament
circulants of prime, twice-prime and prime-squared orders from cycle-index
formulas, verifies a catalog of identities between the counts, and
cross-checks everything against a brute-force isomorphism oracle at small
orders.
"""

from .errors import (ConsistencyError, InexactDivisionError, ParityError,
                     UnsupportedOrderError)
from .numtheory import (OddPartDecomposition, PrimePair, cunningham_pairs,
                        divisors, euler_phi, is_prime, nearly_doubled_primes,
                        odd_part_decomposition)
from .algebra import CycleIndex, UniPoly, cycle_index, substitute, to_sym
from .counting import (CLASSES, CountResult, alternating_sum, count_by_formula,
                       even_odd_split, formal_undirected, log_concavity_probe,
                       mixed_sd, prime_enumerator, prime_squared_enumerator,
                       twice_prime_enumerator, value_at)
from .identities import (IDENTITY_KEYS, IdentityReport, applicable, check,
                         verify_range)
from .oracle import (ConnectionSet, canonical_form, cayley_classes,
                     classify_self_complementary, enumerate_circulants,
                     non_ci_count)

__version__ = "0.1.0"

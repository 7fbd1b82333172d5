"""detsums: exact character sums over determinants and 2x2 matrix squares mod p.

Everything is computed in exact integer arithmetic wherever the object
permits it: character values are root-of-unity indices, sums are tallies
per index, censuses are full enumerations.  Floating point enters only
at magnitude/readout time, under a documented 1e-9 relative tolerance.
"""

__version__ = "0.1.0"

from .characters import (
    CharSumAccumulator,
    CharValue,
    Character,
    WeightSeq,
    de_moment,
    interval_sum,
    make_character,
)
from .errors import (
    BadOrder,
    BadWindow,
    DetsumsError,
    DomainTooLarge,
    InternalInvariantViolation,
    NotPrime,
    Overflow,
    TooLarge,
    ValidationError,
    WeightOutOfRange,
    ZeroInverse,
)
from .fp_arith import PrimeField, is_prime, make_field
from .mat2 import Census, Mat2, SquareWitness, census, has_square_root, mul, pair_image_census
from .residues import (
    NonResidueReport,
    SmallNonSquareMatrix,
    construct_nonsquare,
    count_nonresidues,
    least_nonresidue,
    nonresidue_report,
)
from .sifter import SiftProfile, a0_bound_check, prime_tail, sift, tau, tau_square_average
from .sums import (
    BinTable,
    DeltaProfile,
    delta_profile,
    holder_chain,
    ratio_bins,
    s_sum_binned,
    s_sum_direct,
    t_abs_sum,
    t_abs_sum_direct,
    t_n_sum,
    u_sum,
    u_sum_direct,
)

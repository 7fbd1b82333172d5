"""detsums: exact character sums over determinants and 2x2 matrix squares mod p.

Everything is computed in exact integer arithmetic wherever the object
permits it: character values are root-of-unity indices, sums are tallies
per index, the matrix census is exact class-size counting over conjugacy
classes.  Floating point enters only at magnitude/readout time, under a
documented 1e-9 relative tolerance.

Each exported name, and each submodule named below, is imported on first
use (PEP 562), so `import detsums` loads no numpy.  Nor do `errors`,
`fp_arith`, `mat2`, `residues` and `sifter.sift`, which is all a census,
nonresidue or sift scan runs; `characters` and `sums` do.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "characters": "CharSumAccumulator CharValue Character WeightSeq de_moment interval_sum make_character",
    "errors": "BadOrder BadWindow DetsumsError DomainTooLarge InternalInvariantViolation NotPrime Overflow "
    "TooLarge ValidationError WeightOutOfRange ZeroInverse",
    "fp_arith": "PrimeField is_prime make_field",
    "mat2": "Census Mat2 SquareWitness census has_square_root mul pair_image_census",
    "residues": "NonResidueReport SmallNonSquareMatrix construct_nonsquare count_nonresidues least_nonresidue "
    "nonresidue_report",
    "sifter": "SiftProfile a0_bound_check prime_tail sift tau tau_square_average",
    "sums": "BinTable DeltaProfile delta_profile holder_chain ratio_bins s_sum_binned s_sum_direct t_abs_sum "
    "t_abs_sum_direct t_n_sum u_sum u_sum_direct",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value

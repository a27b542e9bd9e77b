"""Exact double affine Hecke algebra representations of higher rank
and their Macdonald polynomials."""

# Importing the package loads every submodule; names are imported from
# the submodules.  Leaves come first: importing stability alone, which
# loads the rest nested inside it, peaks about 0.4 MB higher.
from . import field, laurent, linalg, affine, rep, nonsym, symmetric, \
    stability  # noqa: F401

__version__ = "0.1.0"

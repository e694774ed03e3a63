"""Exact black-box linear algebra over word-size prime fields.

Computes the dense inverse, a certified nullspace basis and rank, and the
determinant of an n x n matrix given only matrix-vector products (and
transposed products), using structured block projections, block-Krylov
factorization of the inverse, and block-Hankel inversion via order bases.
All randomized algorithms are Las Vegas: they may retry, but an answer
they return is certified.
"""
from .dense import dense_det, dense_inverse
from .determinant import det_integer_crt, det_mod_p, word_size_primes
from .errors import (BlackboxLinalgError, DimensionError, FieldTooSmall,
                     HankelSingular, IndexOutOfRange, InsufficientPrimes,
                     MalformedHeader, MatrixMarketError,
                     NonSquareWhereSquareRequired, NotInvertible,
                     RetriesExhausted, Singular, SingularMatrix)
from .field import PrimeField, is_probable_prime, matmul_mod
from .hankel import (BlockHankel, HankelInverseRep, build_hankel,
                     hankel_inverse_apply, hankel_inverse_rep)
from .inverse import (InversionConfig, InversionResult, RunStats,
                      blackbox_inverse, blackbox_inverse_apply, precondition,
                      verify_inverse)
from .mmio import (MatrixMarketData, read_matrix_market, to_dense_residues,
                   to_sparse_operator, write_matrix_market_array)
from .nullrank import RankCertificate, nullspace_rank
from .operators import (BlackBoxOperator, ButterflyOperator, ComposedOperator,
                        DenseOperator, DiagonalOperator, EmbeddedOperator,
                        LeadingMinorOperator, SparseOperator)
from .polymat import polymat_mul
from .projection import (BlockProjection, krylov_apply_left, krylov_apply_right,
                         u_contract, u_expand)

__version__ = "0.1.0"

"""Exact finite-field machinery for nonplanar tetranomial curves on smooth
Hermitian surfaces: verification, classification, construction and counting.
"""

from .gf import Field, Embedding, make_field, gfq2, gf_ext, make_embedding, \
    solve_norm
from .matff import Mat, SurfaceSpec, fermat_surface, hermitian_decompose, \
    is_hermitian, twisted_gram
from .tetra import (CASE_C1, CASE_C2, CASE_C3, CurveSpec, Signature,
                    canonical_signature, case_signature, defining_equations,
                    exponent_matrix, expand_form, is_identically_zero,
                    jacobian_rank, on_surface, smoothness_scan)
from .classify import (ClassificationReport, SolutionSpace, case_shape_check,
                       enumerate_admissible, exists_invertible, solution_space)
from .orbit import (BigForm, StabilizerReport, CountReport, INFINITE, act,
                    aut_order, build_curve, canonical_rep, count_Td,
                    count_report, embed_qprime, stab_order, stabilizer_search,
                    sympow, twisted_congruence_solve)

__version__ = "0.1.0"

"""Exact arithmetic on binary quadratic forms through Conway's topograph:
continued fractions, reduction in every discriminant regime, class numbers
by well counting, river periods and Pell solutions, and the numerical
series identities the topograph carries."""

from .contfrac import (CFExpansion, fd_member, general_cf, lr_decompose,
                       normalize_parity, real_cf)
from .exact import DomainError, Rat, Surd, is_square, isqrt, surd_floor
from .forms import (ID, MAT_L, MAT_R, MAT_S, MAT_U, QuadForm, Roots, UniMat,
                    act, content_split, roots, turn_sequence_matrix)
from .topograph import (EdgeCursor, RiverDescriptor, VertexView,
                        WellDescriptor, bfs_vertices, export, find_river,
                        find_well, step)
from .reduce import (OmegaEntry, ReductionResult, gauss_cycle, gauss_step,
                     is_g_reduced, is_reduced_neg, is_reduced_square,
                     is_simple, is_simply_reduced, is_z_reduced,
                     is_zstar_reduced, omega_enumerate, reduce_negative,
                     reduce_simple_cycle, reduce_square, z_forms,
                     zagier_classes, zagier_cycle, zagier_step, zstar_forms)
from .classnum import (h_neg, h_neg_table, h_pos, h_square, hstar_neg,
                       hurwitz, hurwitz_table, r3, r3_primitive, r3_via_class,
                       r3p_via_class, upsilon, upsilon_odd)
from .riverword import (Necklace, PellSolution, aut_structure,
                        automorph_generator, epsilon, epsilon_star, h1,
                        necklace_of, negative_pell, pell_fundamental,
                        principal_form, river_period, symmetry,
                        topograph_of_necklace, topograph_of_word, word_of)
from .series import (SeriesReport, W1, W2, eisenstein_check, hurwitz_series,
                     root_product, root_product_all, series_neg,
                     series_neg_profile, series_pos, series_seed,
                     series_square, square_log_identity)

__all__ = [n for n in dir() if not n.startswith("_")]

"""periodica: exact computations with m-periodic complexes over
finite-dimensional quiver algebras.

Highlights: quiver algebras with admissible relations and their modules;
the DG category of m-periodic complexes (shifts, cones, cohomology,
homotopy Hom spaces); K-projective replacements and derived Hom over
finite-global-dimension algebras; Hochschild cohomology of Laurent
extensions with the formality criterion; stable categories of
self-injective algebras with periodic tilting checks.
"""

from .common import (CheckFailed, ParseError, PeriodicaError,
                     PreconditionError, TruncationError)
from .fields import Field, QQ
from .linalg import Mat, backend
from .quiver import AlgebraPresentation, FinDimAlgebra, Quiver, build_algebra
from .families import (dual_numbers, enveloping, linear_a, nakayama,
                       semisimple_product, serial_module)
from .rep import (Morphism, Rep, decompose, dual, find_iso, global_dimension,
                  hom_space, iso_q, minimal_resolution, projective_cover,
                  syzygy)
from .percomplex import (BoundedComplex, GradedMorphism, PeriodicComplex,
                         K_of, cohomology, cone, decompose_acyclic_projective,
                         fold, hom_complex, homotopy_hom, is_contractible,
                         shift, unroll)
from .derivedper import (DerivedContext, distinct_stalks_d2_dual_numbers,
                         ext_dims, ext_sum_check, hereditary_decompose,
                         list_indecomposables_hereditary, stalk_tilting_check)
from .hochschild import (HochschildContext, LaurentSetup, bimodule_resolution,
                         formality_criterion, hh_table, smooth_dimension)
from .stablecat import (NotPeriodic, StableContext, algebra_period,
                        check_periodic_tilting_stable, is_self_injective,
                        stable_end_algebra)

__version__ = "0.1.0"

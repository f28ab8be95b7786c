"""Exact verification of twisted partial actions of finite-dimensional
Hopf algebras: crossed products, enveloping (global) actions, Morita
contexts, gauge equivalence of cocycles, and separability of the
coinvariant extension.

All arithmetic is exact, over the rationals or a prime field.  Every
``verify_*`` function returns a CheckReport listing each identity it
checked together with the indices where it failed, so a red verdict
always comes with a concrete counterexample.
"""

from .checks import CheckReport, ReportBuilder
from .crossed import (CrossedProductAlgebra, CanonicalMapResult,
                      balanced_tensor_square, build_global_crossed,
                      build_partial_crossed, canonical_map,
                      verify_assoc_unital, verify_coaction, verify_comodule,
                      verify_crossed)
from .errors import (ClosureViolation, CoinvariantsMismatch,
                     CompositeNotGauge, HopfcrossError, NonGroupTable,
                     NormalizationFailed, NotCentral, NotCentralIdempotent,
                     NotCocommutative, NotIntegral, PreconditionError,
                     SpecFileError)
from .fields import Field, FieldMismatchError
from .gauge import (GaugePair, gauge_action, gauge_cocycle, gauge_crossed_iso,
                    gauge_transform, verify_equisatisfiability,
                    verify_gauge_composition, weak_conv_inverse)
from .globalize import (EnvelopingAction, globalize_group_partial,
                        verify_enveloping, verify_induced_matches)
from .hopf import (AlgebraData, CoalgebraData, HopfAlgebraData,
                   convolution, convolution_algebra, convolution_inverse,
                   convolution_unit, dual_hopf, group_algebra,
                   is_cocommutative, left_integrals, verify_algebra,
                   verify_coalgebra, verify_hopf)
from .morita import (MoritaContextData, MoritaPairingResult, morita_context,
                     phi_embed, verify_module_structures,
                     verify_morita_pairings)
from .partial import (CocycleInverse, GlobalTwistedAction,
                      InducedPartialAction, TwistedPartialAction,
                      corner_twist, induce_partial, verify_absorption,
                      verify_crossed_conditions, verify_global,
                      verify_symmetric, verify_twisted_partial,
                      verify_unit_translate_map)
from .separability import (BalancedTensorElement, CleftData, centralizer,
                           check_separable_extension, default_cleft,
                           separability_idempotent, verify_centralizer_identity,
                           verify_partially_cleft)
from .specfile import (SpecFile, load_spec, parse_spec, save_spec,
                       serialize_spec)

__version__ = "0.1.0"

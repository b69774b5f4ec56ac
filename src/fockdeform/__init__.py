"""Truncated bosonic towers with kernel-deformed fields and chiral twists."""

from .chiral import (BiFockVector, apply_cross_twist, apply_cross_twist_fock,
                     apply_reflection_bifock, apply_translation_bifock,
                     bifock_inner, bifock_norm, bifock_vacuum, bifock_zero,
                     check_annihilator_equivalence, check_field_equivalence,
                     chiral_field, create_half, annihilate_half, cross_matrix,
                     exponential_pair, merge_chiral, random_bifock, split_chiral,
                     twisted_annihilator, twisted_field)
from .deformation import (KernelSpec, SharpTwistVariant, annihilate_deformed,
                          annihilate_deformed_sharp, apply_kernel_phases,
                          apply_pair_twist, create_deformed, field_deformed,
                          kernel, kernel_matrix, sharp_annihilate,
                          sharp_momentum_twist, wedge_invariant)
from .dense import (BiFockBasis, Entries, FockBasis, Pattern, probe_deviation, probe_entries,
                    probe_image)
from .fock import (BoostResult, FockVector, TestFunctionData, annihilate,
                   apply_boost, apply_reflection, apply_translation, create,
                   exponential_vector, field, norm, random_fock_vector,
                   random_one_particle, real_test_function, symmetrize,
                   vacuum, zero_vector)
from .grids import (ChiralGridPair, MomentumGrid, boost_momentum, chiral_pair,
                    omega, rapidity_grid)
from .inner import (BlaschkeSpec, InnerSymmetryReport, PoleProximityError, Root,
                    RootRatioReport, check_inversion_symmetry,
                    check_symmetric_inner, eval_inner, eval_root, make_root,
                    merge_flip_sets, root_ratio, random_symmetric_blaschke,
                    scattering_from_inner, trivial_root)
from .suites import (CheckRecord, ConfigError, SuiteConfig, SuiteReport,
                     SUITE_NAMES, run_suite)
from .cliconfig import config_from_json, config_to_json, emit_report, report_to_json

__version__ = "0.1.0"

"""Exact computation in truncated Iwasawa algebras of complete p-valued
groups over F_p.

Everything is finite and exact: group elements carry base-p digit vectors
at precision M, series live in the quotient by the weight-W filtration
ideal, and every comparison below the cutoff is a theorem about the full
algebra.  Values beyond the cutoff are reported as AtLeast markers, never
guessed."""

from .padic import (
    AtLeast, MultiIndex, PadicInt, PrecisionError, Val, binom_mod_p,
    comb_mod, eq_compatible, format_padic, ge_provable, ge_refuted,
    gt_provable, is_prime, mi_add, mi_leq, mi_range, mi_sub, mi_weight,
    multi_binom_mod_p, padic_make, parse_padic, val_add, val_min,
    val_sub_exact,
)
from .rng import Pcg32
from .groups import (
    AbelianModel, Automorphism, GroupElement, GroupModel, ModelError,
    PValuation, SubgroupSpec, UnitriangularModel, deg_omega,
    is_trivial_mod_centre, load_abelian, load_model, load_unitriangular,
    subgroup_from_exponents, z_of_automorphism,
)
from .series import (
    TruncatedSeries, TruncationSpec, aut_extend, format_series, group_embed,
    parse_series, relative_normal_form, series_frobenius,
)
from .operators import (
    DegreeReport, LocallyConstantFunction, coset_idempotent, divided_power,
    function_from_mahler, mahler_coeff_aut, mahler_coeff_aut_central,
    mahler_coeffs_function, operator_degree, reconstruct_aut, rho_apply,
    rho_apply_mahler,
)
from .control import (
    CentralPrimeSpec, IdealSpan, completely_prime_probe, control_witnesses,
    controller_approx, dagger_approx, flatness_check, ideal_span,
    induced_filtration, is_controlled_by, subalgebra_ideal_span,
    subalgebra_monomials, zalesskii_check,
)
from .moore import (
    FpPolynomial, ValuedFraction, ZetaExperiment, abelian_matrix_log,
    format_fp_poly, matrix_adjugate, matrix_det, moore_det_check,
    moore_matrix, projective_forms, zeta_convergence, zeta_eval,
    zeta_experiment,
)
from .cli import ConfigError, main, parse_config, run_config

__version__ = "0.1.0"

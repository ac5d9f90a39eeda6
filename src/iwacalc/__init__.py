"""Exact computation in truncated Iwasawa algebras of complete p-valued
groups over F_p.

Everything is finite and exact: group elements carry their coordinates
as integer residues mod p^M, series live in the quotient by the weight-W
filtration ideal, and every comparison below the cutoff is a theorem about
the full algebra.  Values beyond the cutoff are reported as AtLeast markers, never
guessed."""

from .padic import (
    AtLeast, MultiIndex, PrecisionError, Val, binom_mod_p, comb_mod,
    eq_compatible, format_padic, ge_provable, gt_provable, is_prime, mi_range,
    mi_weight, multi_binom_mod_p, parse_padic, val_min,
)
from .rng import Pcg32
from .groups import (
    AbelianModel, Automorphism, GroupElement, GroupModel, ModelError,
    PValuation, SubgroupSpec, UnitriangularModel, deg_omega, load_abelian,
    load_model, load_unitriangular, subgroup_from_exponents,
)
from .series import (
    TruncatedSeries, TruncationSpec, aut_extend, format_series, group_embed,
    parse_series, series_frobenius,
)
from .operators import (
    DegreeReport, coset_idempotent, divided_power, mahler_coeff_aut,
    operator_degree, reconstruct_aut,
)
from .control import (
    CentralPrimeSpec, IdealSpan, completely_prime_probe, control_witnesses,
    controller_approx, dagger_approx, flatness_check, ideal_span,
    induced_filtration, is_controlled_by, subalgebra_ideal_span,
    subalgebra_monomials, zalesskii_check,
)
from .moore import (
    FpPolynomial, ZetaExperiment, abelian_matrix_log, format_fp_poly,
    matrix_adjugate, matrix_det, moore_det_check, moore_matrix,
    projective_forms, zeta_convergence, zeta_eval,
)
from .cli import ConfigError, main, parse_config, run_config

__version__ = "0.1.0"

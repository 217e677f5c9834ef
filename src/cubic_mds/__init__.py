"""Two-variable Dirichlet series over positive-definite binary cubic forms.

The central object is the double series

    Z(s1, s2) = sum over classes of positive-definite integral binary
                cubic forms, grouped by leading coefficient a and
                discriminant-type invariant n,

whose coefficients reduce to the square-root counting function
C(m, n) = #{x mod m : x^2 = n}.  The package implements the counting
layer, the local Euler factors in every ramification case, the
closed-form evaluation of the single-variable slices through quadratic
L-functions, a mod-24 character decomposition of the two-variable
object, and the functional-equation apparatus (Gauss sums, completed
L-values), with every closed form checked against an independent
brute-force or truncated-series route.
"""

import os
import sys


def _launched_as_cli() -> bool:
    """True in a `cubic-mds` process, run as the script or with -m."""
    argv = getattr(sys, "orig_argv", [])
    if "-m" in argv[:-1]:
        return argv[argv.index("-m") + 1] == "cubic_mds.cli"
    return os.path.basename(sys.argv[0]) == "cubic-mds"


# A threaded BLAS splits the long dot products (`Z_n_oracle`) by its
# thread count, which moves the last digits the CLI prints, and its
# idle workers spin on the other cores.  So the command pins BLAS and
# OpenMP to one thread; this has to happen before numpy is loaded.
if _launched_as_cli():
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from .arith import factorize, is_squarefree, kronecker
from .errors import OracleScaleError, PoleError
from .euler import local_factor_closed, local_factor_oracle
from .forms import BinaryCubicForm, enumerate_representatives, invariants
from .lfunc import (
    DirichletCharacter,
    LSeriesValue,
    A_j,
    Z_n_closed,
    a_n,
    character_eta,
    characters_mod24,
    completed_Lambda,
    dirichlet_L,
    dirichlet_L_direct,
    gauss_sum,
    hurwitz_zeta,
    primitive_part,
    psi_n_character,
    riemann_zeta,
)
from .mds import (
    SeriesComparison,
    Z_coeff,
    Z_direct,
    Z_n_euler_product,
    Z_n_oracle,
    Z_star,
    coefficient_tail_bound,
    decomposition_check,
    functional_equation_check,
    residue_identity_check,
    residue_product,
)
from .sqcount import (
    coefficient,
    coefficient_sieve,
    count_roots,
    count_roots_bruteforce,
    count_roots_prime_power,
)
from .verify import CriterionResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "factorize",
    "is_squarefree",
    "kronecker",
    "OracleScaleError",
    "PoleError",
    "local_factor_closed",
    "local_factor_oracle",
    "BinaryCubicForm",
    "enumerate_representatives",
    "invariants",
    "DirichletCharacter",
    "LSeriesValue",
    "A_j",
    "Z_n_closed",
    "a_n",
    "character_eta",
    "characters_mod24",
    "completed_Lambda",
    "dirichlet_L",
    "dirichlet_L_direct",
    "gauss_sum",
    "hurwitz_zeta",
    "primitive_part",
    "psi_n_character",
    "riemann_zeta",
    "SeriesComparison",
    "Z_coeff",
    "Z_direct",
    "Z_n_euler_product",
    "Z_n_oracle",
    "Z_star",
    "coefficient_tail_bound",
    "decomposition_check",
    "functional_equation_check",
    "residue_identity_check",
    "residue_product",
    "CriterionResult",
    "run_suite",
    "coefficient",
    "coefficient_sieve",
    "count_roots",
    "count_roots_bruteforce",
    "count_roots_prime_power",
    "__version__",
]

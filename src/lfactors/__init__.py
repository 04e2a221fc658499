"""Local constants attached to quaternionic unitary groups by doubling data:
symbolic gamma-, L- and epsilon-factors, root numbers, and spherical zeta
denominators over R and p-adic fields of odd residue characteristic."""

from .characters import (AddCharacter, MultCharacter, char_eval, char_inverse,
                         char_mul, quadratic_character, unramified_twist)
from .doubling import (GLChar, Induced, RegularNilpotentData, SkewHermCharR,
                       SpHighestWeight, TrivialRep, UnsupportedPairError,
                       correction_R, epsilon_factor, gamma_capital, gamma_factor,
                       l_factor, normalization_c, root_number, skew_char_space,
                       sp_space, t_factor, zeta_fe_factor)
from .exactconst import ExactConst
from .fields import (LocalField, SquareClass, UnsupportedFieldError,
                     UnsupportedOperationError, hilbert_symbol, nonsquare_unit,
                     square_class, valuation)
from .hermitian import (BilinearSpace, HermitianSpace, MoritaError,
                        discriminant, kottwitz_sign, morita_natural)
from .mero import (LinForm, MeroExpr, PoleProximityError,
                   UnsupportedExpressionError, equals_numeric, format_expr,
                   from_json, mero_mul, parse_expr, to_json)
from .quaternion import (QuatMatrix, Quaternion, QuaternionAlgebra,
                         matrix_reduced_norm, split_embedding)
from .ratfunc import RatFunc, as_rational_in_X
from .spherical import SphericalData, SphericalZeta, gamma_spherical, spherical_zeta
from .tate import gauss_sum, tate_L, tate_eps, tate_gamma
from .verify import Report, run_verify

__version__ = "0.1.0"

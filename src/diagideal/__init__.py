"""Monomial ideals attached to column windows of a generic matrix.

The package builds the diagonal-monomial ideal of every window of
consecutive columns, computes colon chains and their closed forms,
certifies linear quotients, measures regularity with an independent
homology oracle, and runs a small exact Groebner engine to compare
initial ideals of minor products against the matching monomial products.
"""

from .caps import Caps, DEFAULT_CAPS, load_caps_file, parse_caps_text
from .errors import (
    ChainOrderError,
    DiagIdealError,
    DomainError,
    EngineError,
    FormatError,
    OperandTypeError,
    ResourceLimitError,
    SelectionError,
    ShapeMismatchError,
    WindowError,
)
from .fields import PrimeField, RationalField, is_prime, make_field
from .groebner import (
    GroebnerBasis,
    buchberger,
    conjecture_check,
    initial_ideal,
    is_groebner_basis,
    natural_window_generators,
    reduce,
    s_polynomial,
)
from .ideals import MonomialIdeal, minimal_generators, parse_ideal
from .monomials import GridMonomial, GridShape, parse_monomial
from .polynomials import Polynomial
from .quotients import (
    QuotientChain,
    closed_form_colon,
    closed_form_product_colon,
    quotient_chain,
    redistribute,
    verify_product_colons,
)
from .replay import run_paper_replay
from .resolution import (
    BettiTable,
    betti,
    betti_table,
    mapping_cone_betti,
)
from .windows import (
    Window,
    WindowChain,
    diagonal_ideal,
    diagonal_monomial,
    enumerate_diagonals,
    iter_sorted_chains,
    iter_windows,
    minor,
    selection_of,
    window_product_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "DEFAULT_CAPS",
    "load_caps_file",
    "parse_caps_text",
    "ChainOrderError",
    "DiagIdealError",
    "DomainError",
    "EngineError",
    "FormatError",
    "OperandTypeError",
    "ResourceLimitError",
    "SelectionError",
    "ShapeMismatchError",
    "WindowError",
    "PrimeField",
    "RationalField",
    "is_prime",
    "make_field",
    "GroebnerBasis",
    "buchberger",
    "conjecture_check",
    "initial_ideal",
    "is_groebner_basis",
    "natural_window_generators",
    "reduce",
    "s_polynomial",
    "MonomialIdeal",
    "minimal_generators",
    "parse_ideal",
    "GridMonomial",
    "GridShape",
    "parse_monomial",
    "Polynomial",
    "QuotientChain",
    "closed_form_colon",
    "closed_form_product_colon",
    "quotient_chain",
    "redistribute",
    "verify_product_colons",
    "run_paper_replay",
    "BettiTable",
    "betti",
    "betti_table",
    "mapping_cone_betti",
    "Window",
    "WindowChain",
    "diagonal_ideal",
    "diagonal_monomial",
    "enumerate_diagonals",
    "iter_sorted_chains",
    "iter_windows",
    "minor",
    "selection_of",
    "window_product_ideal",
    "__version__",
]

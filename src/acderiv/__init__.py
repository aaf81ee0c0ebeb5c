"""Exact graded-derivation calculus on almost complex coordinate charts.

Computes interior products, Lie derivatives, Nijenhuis-Richardson and
Froelicher-Nijenhuis brackets over exact Gaussian-rational polynomial
coefficients, and verifies the exponential-conjugation identities of the
derivation algebra as identically-zero polynomial residuals.
"""

from .algebra import AlgebraElement, GaussRational, PolyScalar
from .chart import (
    Chart,
    builtin_twisted_chart,
    make_standard_chart,
    make_twisted_chart,
    nijenhuis_tensor,
    torsion_form,
)
from .forms import (
    BundleForm,
    ScalarForm,
    VectorForm,
    bidegree_split,
    conjugate_form,
    contract,
    exterior_d,
    fn_bracket,
    identity_vector_form,
    interior,
    iterated_nr_bracket,
    nr_bracket,
    random_form,
    wedge,
)
from .operators import (
    Connection,
    DerivationOp,
    algebra_iterated_bracket,
    commutable_degree,
    conjugate_operator,
    conjugation_closed_form,
    conjugation_residuals,
    conjugated_exponential,
    connection_split,
    decompose_derivation,
    exp_interior,
    graded_commutator,
    lie_derivative,
    nabla,
    refined_decompose,
)

__all__ = [
    "GaussRational",
    "PolyScalar",
    "AlgebraElement",
    "Chart",
    "make_standard_chart",
    "make_twisted_chart",
    "builtin_twisted_chart",
    "torsion_form",
    "nijenhuis_tensor",
    "ScalarForm",
    "VectorForm",
    "BundleForm",
    "wedge",
    "interior",
    "contract",
    "nr_bracket",
    "iterated_nr_bracket",
    "exterior_d",
    "bidegree_split",
    "conjugate_form",
    "fn_bracket",
    "identity_vector_form",
    "random_form",
    "Connection",
    "DerivationOp",
    "nabla",
    "connection_split",
    "graded_commutator",
    "lie_derivative",
    "exp_interior",
    "conjugate_operator",
    "conjugation_residuals",
    "decompose_derivation",
    "refined_decompose",
    "algebra_iterated_bracket",
    "commutable_degree",
    "conjugation_closed_form",
    "conjugated_exponential",
]

__version__ = "0.1.0"

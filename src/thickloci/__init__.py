"""Exact classification engine for thick subcategories over Gorenstein
graded-local rings: Groebner bases, minimal resolutions, freeness loci,
stabilization, and locus-based classification with a certified catalog."""

from .arith import Field, MonomialOrder, Poly, PolyRing
from .catalog import CATALOG_NAMES, brute_force_thick_lattice, cross_check_lattice, load
from .classify import (
    SETTINGS,
    ThickDescriptor,
    Verdict,
    diagram_check,
    inverse_descriptor,
    locus,
    make_descriptor,
    membership,
    transport,
    verify_roundtrips,
)
from .complexes import ComplexHandle, ComplexMap, is_perfect, stabilize, w_locus
from .errors import (
    KindMismatchError,
    PolyParseError,
    ResourceBudgetError,
    RingMismatchError,
    ThickLociError,
    ValidationError,
)
from .groebner import Ideal
from .modules import (
    Matrix,
    ModuleMap,
    ModulePres,
    Resolution,
    annihilator,
    cosyzygy,
    direct_sum,
    dual,
    fitting_chain,
    free_module,
    is_free,
    is_mcm,
    is_zero_module,
    minimalize,
    nonfree_locus,
    pd_finite,
    q_locus,
    quotient_by_prime,
    quotient_module,
    residue_field,
    strip_free,
    syzygy,
)
from .spectra import PrimeId, RingFlags, RingPres, SpecSubset, make_ring, singular_locus

__version__ = "0.1.0"

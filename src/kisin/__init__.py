"""Exact semi-module stratification of Kisin varieties for products of GL_n."""

from .core import (
    Cochar,
    ExtAffine,
    GroupShape,
    Root,
    WeylElt,
    is_central,
    is_dominant,
    is_minuscule,
)
from .normal_form import (
    FrobeniusDatum,
    alcove_reduce,
    caruso_datum,
    in_alcove,
    is_caruso_simple,
    make_datum,
)
from .strata import (
    Stratum,
    central_twist,
    enumerate_strata,
    make_stratum,
    natural_lambda,
    stratum_nonempty,
    sum_profile,
)
from .multicopy import (
    MultiDatum,
    decompose_mu,
    make_multi,
    project_first,
    recursion_check,
    unique_zero_stratum,
    varsigma,
)
from .connectivity import (
    Pi0Report,
    StrataGraph,
    build_graph,
    chain_gl3,
    pi0_report,
)
from .oracle import GF, elementary_divisors, iwahori_label, kisin_points

__version__ = "0.1.0"

"""Certifying S-arithmeticity (and hence non-freeness) of parabolic Moebius
groups G(a/b) = <A(a/b), B(a/b)> inside SL(2, Z[1/b]).

The pipeline: build a finite presentation of SL(2, Z[1/b]) by amalgamating
copies of SL(2, Z) over Gamma_0(p) for each prime p | b, express the two
parabolic generators as words in it, run Todd-Coxeter coset enumeration,
and cross-validate a finite index against the congruence-theoretic facts
(level a^2, index a * |SL(2, Z_a)|, closure quotient C_a x C_a).
"""

from .exact import (
    GroupWord,
    UniModularMatrix,
    evaluate_word,
    format_matrix,
    format_word,
    make_moebius_generators,
    parse_matrix,
    parse_word,
    word,
)
from .congruence import (
    LevelData,
    ResidueMatrix,
    SubgroupImage,
    level_data,
    member_of_closure,
    reduce_mod,
    sl2_order,
    surjects_mod_p,
)
from .modular_words import decompose_st
from .presentation import (
    Presentation,
    build_presentation,
    presentation_to_json,
    presentation_to_text,
    verify_presentation_soundness,
)
from .coset_enum import (
    CosetTable,
    EnumerationLimits,
    EnumerationOutcome,
    find_relator,
    todd_coxeter,
    word_stabilizes_one,
)
from .certifier import (
    Certificate,
    IndexMismatchError,
    MoebiusSpec,
    certify,
    certify_with_table,
    express_generators,
    membership_report,
    table_sweep,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

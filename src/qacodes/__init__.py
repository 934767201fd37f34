"""Quasi-abelian codes over finite fields: constituent decomposition,
concatenated construction, distance bounds, exhaustive search, and
complementary-dual families."""

__version__ = "0.1.0"

from .algebra import (AbelianGroup, FieldElement, FieldSpec, GroupAlgebraElement,
                      GroupElement, Subfield, build_tower, character,
                      default_modulus, subfield_trace)
from .concatenation import (GCCScheme, QACode, block_idempotent, constituents_of,
                            distance_bound, gcc_build, gcc_scheme_from_qa, is_qa,
                            predict_params, qa_from_constituents,
                            qa_from_descriptor, qa_to_descriptor, simple_scheme)
from .errors import CapExceededError, InvariantError
from .families import (FamilySpec, builtin_lcd_outers, family_member,
                       family_report, verify_lcd_member)
from .idempotents import (CyclotomicClass, SemisimpleDecomposition,
                          character_idempotent, class_idempotent,
                          cyclotomic_classes, decompose_algebra)
from .linear_codes import (CodeParams, LinearCode, code_from_descriptor,
                           code_to_descriptor, embed_code, enumerate_codes,
                           frobenius_twist, gaussian_binomial)
from .search import Caps, SearchEntry, SearchResult, SearchSpec, search, stage1_filter

__all__ = [
    "AbelianGroup", "CapExceededError", "Caps", "CodeParams", "CyclotomicClass",
    "FamilySpec", "FieldElement", "FieldSpec", "GCCScheme", "GroupAlgebraElement",
    "GroupElement", "InvariantError", "LinearCode", "QACode",
    "SemisimpleDecomposition", "SearchEntry", "SearchResult", "SearchSpec",
    "Subfield", "block_idempotent", "build_tower", "builtin_lcd_outers",
    "character", "character_idempotent", "class_idempotent",
    "code_from_descriptor", "code_to_descriptor", "constituents_of",
    "cyclotomic_classes", "decompose_algebra", "default_modulus",
    "distance_bound", "embed_code", "enumerate_codes", "family_member",
    "family_report", "frobenius_twist", "gaussian_binomial", "gcc_build",
    "gcc_scheme_from_qa", "is_qa", "predict_params", "qa_from_constituents",
    "qa_from_descriptor", "qa_to_descriptor", "search",
    "simple_scheme", "stage1_filter", "subfield_trace", "verify_lcd_member",
]

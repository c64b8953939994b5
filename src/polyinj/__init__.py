"""Exact characters, divisibility indices and injectivity classification
for polynomial modules of (quantized) general linear groups.

The rank-2 theory is complete and self-verifying: every closed-form
classification routine is paired with an independent character-level
oracle, and the two are compared exhaustively on desk-scale grids by the
test suite and the ``selfcheck`` command.
"""

from .characters import (
    Character,
    PeelError,
    character_from_json,
    min_last_entry,
    peel_into_basis,
)
from .gl2 import (
    Classification,
    FactorizationDescriptor,
    OracleMismatch,
    classify,
    decomposition_column,
    decomposition_number,
    divind_injective_closed,
    divind_injective_oracle,
    injective_character,
    is_critical_closed,
    is_gm_injective,
    is_inf_injective_inequality,
    simple_character,
    standard_form,
    standard_form_character,
    sympow_character_recursive,
)
from .schur import (
    compositions,
    h_character,
    partitions,
    schur_character,
    schur_character_jt,
)
from .weights import (
    DigitExpansion,
    GroupParams,
    Weight,
    delta,
    digit_expansion,
    dominance_leq,
    eadic_split,
    is_column_regular,
    omega,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "Classification",
    "DigitExpansion",
    "FactorizationDescriptor",
    "GroupParams",
    "OracleMismatch",
    "PeelError",
    "Weight",
    "character_from_json",
    "classify",
    "compositions",
    "decomposition_column",
    "decomposition_number",
    "delta",
    "digit_expansion",
    "divind_injective_closed",
    "divind_injective_oracle",
    "dominance_leq",
    "eadic_split",
    "h_character",
    "injective_character",
    "is_column_regular",
    "is_critical_closed",
    "is_gm_injective",
    "is_inf_injective_inequality",
    "min_last_entry",
    "omega",
    "partitions",
    "peel_into_basis",
    "schur_character",
    "schur_character_jt",
    "simple_character",
    "standard_form",
    "standard_form_character",
    "sympow_character_recursive",
]

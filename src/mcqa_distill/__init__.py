"""Few-shot MCQA pipeline: teacher-generated corpora, teacher-scored soft
labels, and a small student scorer trained with distillation losses."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    ChatMessage,
    FewShotSet,
    McqaInstance,
    Provenance,
    index_to_identifier,
    identifier_to_index,
    validate_instance,
)

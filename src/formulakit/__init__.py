"""formulakit: data-side machinery for a small Excel-formula language model.

Lexing and sketching, sketch-based corpus deduplication, a formula-aware
BPE tokenizer, denoising pre-training objective generators (including 17
user-inspired noise operators), fine-tuning dataset synthesis, and the
evaluation harness for last-mile repair, completion, and similar-formula
retrieval.
"""

from .baseline import SketchIndex, build_index, completion_candidates, repair_candidates
from .catalog import FunctionCatalog, default_catalog
from .curation import CorpusStats, FormulaRecord, dedup, dedup_key, ingest, stats
from .evaluation import (CompletionTask, EvalReport, RepairTask, RetrievalPair,
                         build_retrieval_pairs, evaluate, gen_completion_finetune,
                         gen_repair_finetune, make_completion_prefix, mask_constants,
                         retrieval_eval)
from .lexer import Diagnostic, DiagnosticCode, Token, TokenKind, check, lex, normalize, sketch
from .noise import NotApplicable, OPERATORS, applicable_operators, apply_noise_operator
from .objectives import (MASK, ObjectiveConfig, PretrainExample, generate_pretrain,
                         la_msp, random_noise, tail_mask, user_noise)
from .similarity import KERNEL_BACKEND, token_edit_similarity
from .tokenizer import (DEFAULT_VOCAB_BUDGET, MASK_TOKEN, PreToken, SPACE_MARKER,
                        TokenizerModel, decode, encode, pretokenize, train_bpe)

__version__ = "0.1.0"

__all__ = [
    "CompletionTask", "CorpusStats", "DEFAULT_VOCAB_BUDGET", "Diagnostic",
    "DiagnosticCode", "EvalReport", "FormulaRecord", "FunctionCatalog",
    "KERNEL_BACKEND", "MASK", "MASK_TOKEN", "NotApplicable", "OPERATORS",
    "ObjectiveConfig", "PreToken", "PretrainExample", "RepairTask",
    "RetrievalPair", "SPACE_MARKER", "SketchIndex", "Token", "TokenKind",
    "TokenizerModel", "applicable_operators", "apply_noise_operator",
    "build_index", "build_retrieval_pairs", "check", "completion_candidates",
    "decode", "dedup", "dedup_key", "default_catalog", "encode", "evaluate",
    "gen_completion_finetune", "gen_repair_finetune",
    "generate_pretrain", "ingest", "la_msp", "lex", "make_completion_prefix",
    "mask_constants", "normalize", "pretokenize", "random_noise", "repair_candidates",
    "retrieval_eval", "sketch", "stats", "tail_mask",
    "token_edit_similarity", "train_bpe", "user_noise",
]

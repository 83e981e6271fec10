"""Contextual (transformer-like) encoders.

BERT, RoBERTa and Sentence-BERT cannot be downloaded in this offline
environment.  Their role in the paper, however, is narrow and well defined:

1. produce a fixed 768-dimension embedding for a serialized tuple or column,
2. place text sharing vocabulary/context nearby, and
3. — crucially for Fig. 6 — *without fine-tuning* they separate unionable from
   non-unionable tuples no better than a coin toss.

:class:`ContextualEncoder` reproduces these properties with a deterministic
random-weight encoder: hashed token embeddings, sinusoidal position signals,
one or more fixed random mixing layers with a tanh non-linearity, then either
CLS-style first-token pooling or mean pooling.  Because the mixing weights are
random (not trained), the resulting space is only weakly aligned with
unionability — the behaviour the paper reports for pre-trained models — while
the fine-tuning head of :mod:`repro.models` can still learn a good space on
top of the same features.

Every encoding goes through :meth:`ContextualEncoder.encode_text`, which keeps
a byte-bounded memo keyed on the exact input text (:class:`_TextMemo`).  The
output is a pure function of that text, so a resident server that sees the
same lake tables query after query pays the forward pass once per distinct
column sentence or serialised tuple, and the memo needs no invalidation.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from repro.api.registry import register_tuple_encoder
from repro.embeddings.base import EncoderInfo, TupleEncoder, l2_normalize
from repro.embeddings.hashing import HashedVectorSpace
from repro.embeddings.tokenizer import CLS_TOKEN, MAX_SEQUENCE_LENGTH, Tokenizer
from repro.utils.rng import stable_hash


#: Byte budget of each encoder's text memo: its float64 rows plus the memory
#: of their key strings.  24 MiB holds ~4 000 768-d rows of short texts.
MEMO_BUDGET_BYTES = 24 * 1024 * 1024


def _position_encoding(length: int, dimension: int) -> np.ndarray:
    """Sinusoidal position encodings (Vaswani et al.) of shape ``(length, dim)``."""
    positions = np.arange(length)[:, None].astype(np.float64)
    dims = np.arange(dimension)[None, :].astype(np.float64)
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / dimension)
    angles = positions * angle_rates
    encoding = np.zeros((length, dimension), dtype=np.float64)
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


@lru_cache(maxsize=None)
def _position_table(dimension: int) -> np.ndarray:
    """Read-only position encodings for every sequence length up to the cap.

    Row ``i`` depends only on ``i`` and ``dimension``, so ``[:length]`` equals
    ``_position_encoding(length, dimension)`` exactly for every length.
    """
    table = _position_encoding(MAX_SEQUENCE_LENGTH, dimension)
    table.setflags(write=False)
    return table


class _TextMemo:
    """Thread-safe, byte-bounded LRU map from an input text to its embedding.

    Rows live in one float64 slab of ``budget // row_bytes`` rows, allocated
    on the first insert.  An entry costs its row plus ``sys.getsizeof`` of its
    key; least-recently-used entries are evicted until a new one fits, so the
    resident bytes never exceed the budget.  A hit returns a copy, so a caller
    that mutates its vector cannot change the next hit.
    """

    def __init__(self, dimension: int, budget_bytes: int) -> None:
        self._dimension = dimension
        self._row_bytes = dimension * np.dtype(np.float64).itemsize
        self._budget = budget_bytes
        self._slab: np.ndarray | None = None
        self._free_slots: list[int] = []
        self._slots: OrderedDict[str, int] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    def _cost(self, text: str) -> int:
        return self._row_bytes + sys.getsizeof(text)

    def get(self, text: str) -> np.ndarray | None:
        """A copy of the memoised row for ``text``, or ``None`` (a miss)."""
        with self._lock:
            slot = self._slots.get(text)
            if slot is None:
                self._misses += 1
                return None
            self._slots.move_to_end(text)
            self._hits += 1
            return self._slab[slot].copy()

    def put(self, text: str, vector: np.ndarray) -> None:
        """Memoise ``vector`` for ``text``, evicting the oldest entries to fit."""
        cost = self._cost(text)
        if cost > self._budget:
            return
        with self._lock:
            if text in self._slots:  # another thread encoded it meanwhile
                return
            while self._bytes + cost > self._budget:
                oldest, slot = self._slots.popitem(last=False)
                self._free_slots.append(slot)
                self._bytes -= self._cost(oldest)
            if self._slab is None:
                # Every entry costs at least one row, so the byte bound keeps
                # the entry count within the slab.
                rows = self._budget // self._row_bytes
                self._slab = np.empty((rows, self._dimension), dtype=np.float64)
                self._free_slots = list(range(rows))
            slot = self._free_slots.pop()
            self._slab[slot] = vector
            self._slots[text] = slot
            self._bytes += cost

    def stats(self) -> dict[str, int]:
        """``{hits, misses, entries, bytes, budget_bytes}``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._slots),
                "bytes": self._bytes,
                "budget_bytes": self._budget,
            }


class ContextualEncoder(TupleEncoder):
    """Deterministic random-weight contextual encoder.

    Parameters
    ----------
    name:
        Model family name; also namespaces the token vector space and the
        random mixing weights so distinct families are uncorrelated.
    dimension:
        Embedding size (768 to match the paper).
    num_layers:
        Number of fixed mixing layers (loosely "transformer depth").
    pooling:
        ``"cls"`` pools the first token (BERT/RoBERTa convention) mixed with a
        small amount of mean pooling; ``"mean"`` uses pure mean pooling
        (Sentence-BERT convention).
    context_weight:
        How strongly each token is blended with the sequence context before
        mixing.  Larger values make all tokens of one sequence more alike.
    """

    def __init__(
        self,
        name: str,
        *,
        dimension: int = 768,
        num_layers: int = 2,
        pooling: str = "cls",
        context_weight: float = 0.5,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        if pooling not in {"cls", "mean"}:
            raise ValueError(f"pooling must be 'cls' or 'mean', got {pooling!r}")
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        self._info = EncoderInfo(name=name, dimension=dimension, family="contextual")
        self._space = HashedVectorSpace(dimension, seed_namespace=f"ctx::{name}")
        self._tokenizer = tokenizer or Tokenizer()
        self._num_layers = num_layers
        self._pooling = pooling
        self._context_weight = context_weight
        self._weights = [self._layer_weights(layer) for layer in range(num_layers)]
        self._memo = _TextMemo(dimension, MEMO_BUDGET_BYTES)

    # ------------------------------------------------------------ construction
    def _layer_weights(self, layer: int) -> np.ndarray:
        """Fixed orthogonal-ish mixing matrix for one layer."""
        seed = stable_hash(f"{self._info.name}::layer::{layer}")
        rng = np.random.default_rng(seed)
        dimension = self._info.dimension
        matrix = rng.standard_normal((dimension, dimension)) / np.sqrt(dimension)
        return matrix

    @property
    def info(self) -> EncoderInfo:
        return self._info

    # ---------------------------------------------------------------- encoding
    def encode_tokens(self, tokens: list[str]) -> np.ndarray:
        """Encode a pre-tokenized sequence into one embedding."""
        if not tokens:
            return np.zeros(self.dimension, dtype=np.float64)
        tokens = tokens[:MAX_SEQUENCE_LENGTH]
        hidden = np.vstack([self._space.token_vector(token) for token in tokens])
        hidden = hidden + 0.05 * _position_table(self.dimension)[: len(tokens)]
        for weights in self._weights:
            context = hidden.mean(axis=0, keepdims=True)
            blended = (1.0 - self._context_weight) * hidden + self._context_weight * context
            hidden = np.tanh(blended @ weights) + hidden
        if self._pooling == "mean":
            pooled = hidden.mean(axis=0)
        else:
            pooled = 0.7 * hidden[0] + 0.3 * hidden.mean(axis=0)
        return l2_normalize(pooled)

    def encode_text(self, text: str) -> np.ndarray:
        """Tokenize and encode a serialized tuple / column sentence.

        Memoised on the exact text; the forward pass runs outside the memo's
        lock, and every call returns a vector the caller owns.
        """
        vector = self._memo.get(text)
        if vector is None:
            tokens = self._tokenizer.tokenize_text(text)
            if tokens and tokens[0] != CLS_TOKEN:
                tokens = [CLS_TOKEN, *tokens]
            vector = self.encode_tokens(tokens)
            self._memo.put(text, vector)
        return vector

    def memo_stats(self) -> dict[str, int]:
        """Counters of the text memo: ``{hits, misses, entries, bytes, budget_bytes}``."""
        return self._memo.stats()


@register_tuple_encoder("bert")
class BertLikeModel(ContextualEncoder):
    """Stand-in for pre-trained BERT-base (768-d, CLS pooling)."""

    def __init__(self, dimension: int = 768, *, tokenizer: Tokenizer | None = None) -> None:
        super().__init__(
            "bert-like",
            dimension=dimension,
            num_layers=2,
            pooling="cls",
            context_weight=0.5,
            tokenizer=tokenizer,
        )


@register_tuple_encoder("roberta")
class RobertaLikeModel(ContextualEncoder):
    """Stand-in for pre-trained RoBERTa-base.

    RoBERTa is pre-trained longer on more data than BERT; its stand-in mixes
    slightly deeper and keeps more per-token signal, which in practice gives it
    marginally better column-alignment scores, matching the ordering in
    Table 1 of the paper.
    """

    def __init__(self, dimension: int = 768, *, tokenizer: Tokenizer | None = None) -> None:
        super().__init__(
            "roberta-like",
            dimension=dimension,
            num_layers=3,
            pooling="cls",
            context_weight=0.35,
            tokenizer=tokenizer,
        )


@register_tuple_encoder("sbert")
class SentenceBertLikeModel(ContextualEncoder):
    """Stand-in for Sentence-BERT (mean pooling over token states)."""

    def __init__(self, dimension: int = 768, *, tokenizer: Tokenizer | None = None) -> None:
        super().__init__(
            "sbert-like",
            dimension=dimension,
            num_layers=2,
            pooling="mean",
            context_weight=0.4,
            tokenizer=tokenizer,
        )

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

Every encoding goes through a byte-bounded memo keyed on the exact input text
(:class:`_TextMemo`).  The output is a pure function of that text, so a
resident server that sees the same lake tables query after query pays the
forward pass once per distinct column sentence or serialised tuple, and the
memo needs no invalidation.  Each encoder keeps two memos of
:data:`MEMO_BUDGET_BYTES` each.  :meth:`ContextualEncoder.encode_lake_texts`
(column sentences and cells, which recur whenever a lake table is a search
result again) looks up one; :meth:`~ContextualEncoder.encode_many` and
:meth:`~ContextualEncoder.encode_text` (serialised tuples, which carry the
request's query headers and so are mostly seen once) look up the other.  In
one shared LRU the tuple churn evicted the column sentences before they came
back.

The forward pass runs on row blocks.  :meth:`ContextualEncoder.encode_many`
stacks the token rows of the texts that miss the memo into blocks of about
:data:`BATCH_ROWS` rows, and each layer runs one GEMM per block; the position
add, the context mean, the blend and the pooling run per sequence on row
views of the block.  A GEMM computes each output row from that row and the
weights alone, so a sequence of two or more tokens gets the same bits in a
block as on its own.  The one exception is a one-token sequence: numpy
computes a one-row product with gemv, whose bits differ from the same row
inside a GEMM, so such a sequence is forwarded alone.  Row ``i`` of
``encode_many(texts)`` is therefore bit-identical to ``encode_text(texts[i])``
at any BLAS thread count.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from repro.api.registry import register_tuple_encoder
from repro.embeddings.base import EncoderInfo, TupleEncoder, l2_normalize
from repro.embeddings.hashing import HashedVectorSpace
from repro.embeddings.tokenizer import CLS_TOKEN, MAX_SEQUENCE_LENGTH, Tokenizer
from repro.utils.rng import stable_hash


#: Byte budget of each of an encoder's two text memos: its float64 rows plus
#: the memory of their key strings.  24 MiB holds ~4 000 768-d rows of short
#: texts.
MEMO_BUDGET_BYTES = 24 * 1024 * 1024

#: Token rows one forward block stacks into a GEMM per layer.  Per row, a
#: 768-d GEMM costs about half as much at 128 rows as at the ~14 rows of one
#: short text; larger blocks gain little and cost three block-sized buffers.
BATCH_ROWS = 128


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


def _row_blocks(lengths: Sequence[int]) -> Iterator[list[int]]:
    """Group sequence indices, in order, into forward blocks of at most ``BATCH_ROWS`` rows.

    Empty sequences join no block (their embedding is the zero vector).  A
    one-token sequence is a block of its own, since numpy sends a one-row
    product to gemv; a sequence longer than ``BATCH_ROWS`` also forms its own.
    """
    block: list[int] = []
    rows = 0
    for index, length in enumerate(lengths):
        if length == 0:
            continue
        if length == 1:
            yield [index]
            continue
        if block and rows + length > BATCH_ROWS:
            yield block
            block, rows = [], 0
        block.append(index)
        rows += length
    if block:
        yield block


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

    def get_many(self, texts: Sequence[str]) -> tuple[dict[str, np.ndarray], list[str]]:
        """Copies of the memoised rows among ``texts``, and the distinct misses.

        Counts one lookup per element, as a :meth:`get` then :meth:`put` per
        text would: the first occurrence of an unmemoised text is a miss and
        its repeats in ``texts`` are hits.  Misses keep first-seen order.
        """
        found: dict[str, np.ndarray] = {}
        missing: dict[str, None] = {}
        with self._lock:
            for text in texts:
                if text in missing:
                    self._hits += 1
                    continue
                slot = self._slots.get(text)
                if slot is None:
                    self._misses += 1
                    missing[text] = None
                    continue
                self._slots.move_to_end(text)
                self._hits += 1
                if text not in found:
                    found[text] = self._slab[slot].copy()
        return found, list(missing)

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
        self._memos = {
            stage: _TextMemo(dimension, MEMO_BUDGET_BYTES) for stage in ("column", "tuple")
        }

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
    def _sequence(self, text: str) -> list[str]:
        """The token sequence the forward pass sees for ``text``."""
        tokens = self._tokenizer.tokenize_text(text)
        if tokens and tokens[0] != CLS_TOKEN:
            tokens = [CLS_TOKEN, *tokens]
        return tokens[:MAX_SEQUENCE_LENGTH]

    def _forward(self, sequences: Sequence[list[str]]) -> np.ndarray:
        """Embed non-empty token sequences as one row block: ``(len(sequences), dim)``.

        The one forward seam: every layer runs one GEMM over the stacked
        token rows, and the per-sequence steps run on row views.  Elementwise
        steps write into the block's buffers, so a block holds three
        ``(rows, dim)`` arrays at most.
        """
        dimension = self.dimension
        vector = self._space.token_vector
        hidden = np.vstack([vector(token) for tokens in sequences for token in tokens])
        spans = []
        start = 0
        positions = _position_table(dimension)
        for tokens in sequences:
            stop = start + len(tokens)
            hidden[start:stop] += 0.05 * positions[: stop - start]
            spans.append((start, stop))
            start = stop
        blended = np.empty_like(hidden)
        mixed = np.empty_like(hidden)
        for weights in self._weights:
            np.multiply(hidden, 1.0 - self._context_weight, out=blended)
            for start, stop in spans:
                blended[start:stop] += self._context_weight * hidden[start:stop].mean(axis=0)
            np.matmul(blended, weights, out=mixed)
            np.tanh(mixed, out=mixed)
            hidden += mixed
        pooled = np.empty((len(sequences), dimension), dtype=np.float64)
        for row, (start, stop) in enumerate(spans):
            states = hidden[start:stop]
            if self._pooling == "mean":
                pooled[row] = l2_normalize(states.mean(axis=0))
            else:
                pooled[row] = l2_normalize(0.7 * states[0] + 0.3 * states.mean(axis=0))
        return pooled

    def encode_tokens(self, tokens: list[str]) -> np.ndarray:
        """Encode a pre-tokenized sequence into one embedding."""
        if not tokens:
            return np.zeros(self.dimension, dtype=np.float64)
        return self._forward([tokens[:MAX_SEQUENCE_LENGTH]])[0]

    def encode_text(self, text: str) -> np.ndarray:
        """Tokenize and encode a serialized tuple / column sentence.

        Memoised on the exact text; the forward pass runs outside the memo's
        lock, and every call returns a vector the caller owns.
        """
        memo = self._memos["tuple"]
        vector = memo.get(text)
        if vector is None:
            vector = self.encode_tokens(self._sequence(text))
            memo.put(text, vector)
        return vector

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        """Encode a batch of texts into a ``(n, dim)`` matrix, one forward pass per row block.

        Each distinct text is looked up in the tuple memo once; the misses'
        sequences are stacked, in order, into blocks of about
        :data:`BATCH_ROWS` token rows (a longer sequence, or a one-token
        one, is a block of its own), and each block runs every layer as one
        GEMM.  Row ``i`` is bit-identical to ``encode_text(texts[i])``, and
        the memo counts hits and misses as that loop would.
        """
        return self._encode(texts, self._memos["tuple"])

    def encode_lake_texts(self, texts: Sequence[str]) -> np.ndarray:
        """:meth:`encode_many` through the column memo, so tuple texts cannot evict them."""
        return self._encode(texts, self._memos["column"])

    def _encode(self, texts: Sequence[str], memo: _TextMemo) -> np.ndarray:
        encoded = np.empty((len(texts), self.dimension), dtype=np.float64)
        rows: dict[str, list[int]] = {}
        for row, text in enumerate(texts):
            rows.setdefault(text, []).append(row)
        found, missing = memo.get_many(texts)
        for text, vector in found.items():
            encoded[rows[text]] = vector
        sequences = [self._sequence(text) for text in missing]
        for index, tokens in enumerate(sequences):
            if not tokens:
                encoded[rows[missing[index]]] = 0.0
                memo.put(missing[index], np.zeros(self.dimension, dtype=np.float64))
        for block in _row_blocks([len(tokens) for tokens in sequences]):
            vectors = self._forward([sequences[index] for index in block])
            for index, vector in zip(block, vectors):
                encoded[rows[missing[index]]] = vector
                memo.put(missing[index], vector)
        return encoded

    def memo_stats(self, stage: str = "tuple") -> dict[str, int]:
        """Counters of one text memo: ``{hits, misses, entries, bytes, budget_bytes}``.

        ``stage`` is ``"tuple"`` (:meth:`encode_many` and :meth:`encode_text`)
        or ``"column"`` (:meth:`encode_lake_texts`).
        """
        return self._memos[stage].stats()


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

"""Tokenization, function representations, vocabulary, and integer encoding.

A function is represented as a flat token sequence:

    co:  [project name, function name] + tokens(body)
    cd:  co + ["descrdelim"] + tokens(project description)

cd degrades to co when the project has no description.  Tokens are produced
by lowercasing and splitting on every character outside [a-z0-9_]; there is
no sub-identifier splitting, so `snd_mixer_open` stays one token.

The vocabulary maps tokens to integer ids with two reserved rows:
0 = padding, 1 = unknown.  Real tokens get ids 2.. in first-seen order over
the training corpus; it is never rebuilt at evaluation time, so unseen
holdout tokens map to 1.
"""

import hashlib
import itertools
import re

import numpy as np

PAD_ID = 0
UNK_ID = 1
DESCR_DELIM = "descrdelim"

DEFAULT_SEQ_LEN = 60

_WORD = re.compile(r"[a-z0-9_]+")


def tokenize(text):
    """Lowercase, then take every run of [a-z0-9_] chars as a token, which
    is splitting on every other char.

    >>> tokenize("CalEditDistance(s, t)")
    ['caleditdistance', 's', 't']
    """
    return _WORD.findall(text.lower())


def build_representation(record):
    """co token sequence for one extracted function: [project name, function
    name] + tokens(body).

    The project name is one token: lowercased, with its whitespace-separated
    parts joined by "_", so that the embedding text file, which separates
    columns by whitespace, holds it as one column.  record needs
    project_name / function_name / body attributes (see
    corpus.FunctionRecord).  variant_tokens turns it into the cd sequence.
    """
    tokens = ["_".join(record.project_name.lower().split()), record.function_name.lower()]
    tokens.extend(tokenize(record.body))
    return tokens


def variant_tokens(co_tokens, descr_tokens, variant):
    """Assemble co/cd token sequence from already-tokenized parts."""
    if variant not in ("co", "cd"):
        raise ValueError(f"unknown representation variant: {variant!r}")
    if variant == "cd" and descr_tokens:
        return list(co_tokens) + [DESCR_DELIM] + list(descr_tokens)
    return list(co_tokens)


class Vocabulary:
    """token -> id map with reserved ids 0 (pad) and 1 (unk)."""

    def __init__(self, tokens):
        """tokens: iterable of distinct real tokens in id order (ids 2..)."""
        self._tokens = list(tokens)
        self._ids = {}
        for offset, token in enumerate(self._tokens):
            if token in self._ids:
                raise ValueError(f"duplicate token in vocabulary: {token!r}")
            self._ids[token] = 2 + offset

    def __len__(self):
        return 2 + len(self._tokens)

    def __contains__(self, token):
        return token in self._ids

    def id_of(self, token):
        """Id for token, UNK_ID when unseen."""
        return self._ids.get(token, UNK_ID)

    def token_of(self, token_id):
        """Inverse lookup for real token ids (>= 2)."""
        if not 2 <= token_id < len(self):
            raise KeyError(f"no token stored for id {token_id}")
        return self._tokens[token_id - 2]

    def tokens(self):
        """Real tokens in id order (id 2 first)."""
        return list(self._tokens)

    def sha256(self):
        """Digest of the id-ordered token list; identifies the vocabulary."""
        payload = "\n".join(self._tokens).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocabulary(token_streams):
    """First-seen-order vocabulary over an iterable of token sequences.

    stream "a b a c" -> ids {pad: 0, unk: 1, a: 2, b: 3, c: 4}.
    """
    seen = {}
    for stream in token_streams:
        for token in stream:
            if token not in seen:
                seen[token] = len(seen)
    if not seen:
        raise ValueError("empty corpus: no tokens to build a vocabulary from")
    return Vocabulary(seen.keys())


def encode(tokens, vocab, seq_len=DEFAULT_SEQ_LEN):
    """Fixed-length int64 id sequence: head-keep truncation, end padding.
    The ids are looked up in one pass over the kept tokens (`id_of`'s map)."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    head = tokens[:seq_len]
    ids = np.full(seq_len, PAD_ID, dtype=np.int64)
    ids[: len(head)] = np.fromiter(
        map(vocab._ids.get, head, itertools.repeat(UNK_ID)), dtype=np.int64, count=len(head)
    )
    return ids

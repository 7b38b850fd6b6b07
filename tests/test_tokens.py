"""Tokenizer, representation, vocabulary and encoding contracts."""

import doctest
import re
import string

import numpy as np
import pytest

from repocat import tokens
from repocat.corpus import FunctionRecord


def oracle_tokenize(text):
    """Independent per-character re-implementation of the token rule."""
    lowered = text.lower()
    out, current = [], []
    for ch in lowered:
        if ch in string.ascii_lowercase or ch in string.digits or ch == "_":
            current.append(ch)
        else:
            if current:
                out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


class TestTokenize:
    def test_frozen_examples(self):
        assert tokens.tokenize("CalEditDistance(s, t)") == ["caleditdistance", "s", "t"]
        assert tokens.tokenize("snd_mixer_open(&h);") == ["snd_mixer_open", "h"]
        assert tokens.tokenize("x->len += 2;") == ["x", "len", "2"]
        assert tokens.tokenize("") == []
        assert tokens.tokenize("...!!...") == []

    def test_no_identifier_splitting(self):
        assert tokens.tokenize("snd_pcm_hw_params") == ["snd_pcm_hw_params"]

    def test_matches_oracle_on_random_text(self):
        rng = np.random.default_rng(7)
        alphabet = list(string.printable)
        for _ in range(200):
            n = int(rng.integers(0, 80))
            text = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), n))
            assert tokens.tokenize(text) == oracle_tokenize(text)

    def test_non_ascii_becomes_separator(self):
        assert tokens.tokenize("café size") == ["caf", "size"]

    def test_seeded_unicode_fuzz_matches_sub_and_split(self):
        # the tokenizer before it took the runs with one findall: map every
        # char outside [a-z0-9_] to a space, then split on whitespace runs
        def sub_and_split(text):
            return re.sub(r"[^a-z0-9_]+", " ", text.lower()).split()

        rng = np.random.default_rng(25)
        # a third of the chars printable ASCII; a third chars whose lowercase
        # is or holds ASCII (KELVIN SIGN, LATIN CAPITAL I WITH DOT ABOVE),
        # Unicode whitespace, a combining mark and the full-width forms of
        # "A_1"; a third any code point above ASCII but the surrogates
        ascii_cps = np.array([ord(c) for c in string.printable])
        special = np.array([0x212A, 0x130, 0xA0, 0x2028, 0x3000, 0x85, 0x301,
                            0xFF21, 0xFF3F, 0xFF11])
        lengths = rng.integers(0, 40, 50_000)
        total = int(lengths.sum())
        pools = np.stack([ascii_cps[rng.integers(0, len(ascii_cps), total)],
                          special[rng.integers(0, len(special), total)],
                          rng.integers(0x80, 0x30000, total)])
        cps = pools[rng.integers(0, 3, total), np.arange(total)]
        cps[(cps >= 0xD800) & (cps < 0xE000)] = ord("A")
        chars = "".join(map(chr, cps.tolist()))
        starts = np.concatenate([[0], np.cumsum(lengths)]).tolist()
        for lo, hi in zip(starts, starts[1:]):
            text = chars[lo:hi]
            assert tokens.tokenize(text) == sub_and_split(text), repr(text)

    def test_docstring_examples(self):
        result = doctest.testmod(tokens)
        assert result.attempted >= 1 and result.failed == 0


class TestRepresentation:
    record = FunctionRecord("SoundMixer", "P_F", "int P_F(void) { return g_vol; }")

    def test_co_prefixes_project_and_function_names(self):
        rep = tokens.build_representation(self.record)
        assert rep[:2] == ["soundmixer", "p_f"]
        assert rep[2:] == ["int", "p_f", "void", "return", "g_vol"]

    def test_spaced_project_name_survives_the_embedding_text_file(self, tmp_path):
        # the name is one token, so it is one column of the file's row
        from repocat import corpus, embedding

        src = "int f(void) { return 0; }"
        fns = corpus.extract_functions(src, project="My  Sound\tMixer").functions
        assert tokens.build_representation(fns[0])[:2] == ["my_sound_mixer", "f"]
        vocab = tokens.build_vocabulary([tokens.build_representation(f) for f in fns])
        path = tmp_path / "vectors.txt"
        matrix = embedding.random_embedding(len(vocab), dims=3)
        embedding.save_embedding_text(path, matrix, vocab)
        assert embedding.vocab_from_embedding_text(path).tokens() == vocab.tokens()
        assert np.array_equal(embedding.load_embedding_text(path, vocab), matrix)

    def test_cd_appends_delimited_description(self):
        co = tokens.build_representation(self.record)
        descr = tokens.tokenize("A sound mixer.")
        assert tokens.variant_tokens(co, descr, "cd") == co + ["descrdelim", "a", "sound", "mixer"]

    def test_cd_without_description_equals_co(self):
        co = tokens.build_representation(self.record)
        assert tokens.variant_tokens(co, [], "cd") == co
        assert tokens.variant_tokens(co, tokens.tokenize("..."), "cd") == co

    def test_variant_tokens_round_trip(self):
        co = ["p", "f", "x"]
        descr = ["does", "things"]
        assert tokens.variant_tokens(co, descr, "co") == co
        assert tokens.variant_tokens(co, descr, "cd") == co + ["descrdelim", "does", "things"]
        assert tokens.variant_tokens(co, [], "cd") == co

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            tokens.variant_tokens(["a"], [], "both")
        with pytest.raises(ValueError):
            tokens.variant_tokens(["a"], ["b"], "xx")


def _c_function(n_statements):
    """co stream of a C function with n_statements assignment statements."""
    body = "static int mix_frames(struct mixer *m, int n) {\n"
    body += "".join(f"    m->gain_{i} = scale(n, {i});\n" for i in range(n_statements))
    body += "    return n;\n}"
    return tokens.build_representation(FunctionRecord("alsamixer", "mix_frames", body))


class TestCdAtRealisticLengths:
    """Pins how encode's head-keep truncation treats the description."""

    descr = tokens.tokenize("A terminal mixer for the ALSA sound system.")

    def _vocab(self, co):
        return tokens.build_vocabulary([tokens.variant_tokens(co, self.descr, "cd")])

    @pytest.mark.parametrize("n_statements", [12, 20, 40])
    def test_long_co_stream_cuts_the_description_away(self, n_statements):
        co = _c_function(n_statements)
        assert len(co) >= tokens.DEFAULT_SEQ_LEN
        vocab = self._vocab(co)
        cd_ids = tokens.encode(tokens.variant_tokens(co, self.descr, "cd"), vocab)
        np.testing.assert_array_equal(cd_ids, tokens.encode(co, vocab))

    def test_co_one_short_of_the_limit_keeps_only_the_delimiter(self):
        co = _c_function(12)[: tokens.DEFAULT_SEQ_LEN - 1]
        vocab = self._vocab(co)
        cd_ids = tokens.encode(tokens.variant_tokens(co, self.descr, "cd"), vocab)
        co_ids = tokens.encode(co, vocab)
        np.testing.assert_array_equal(cd_ids[:-1], co_ids[:-1])
        assert cd_ids[-1] == vocab.id_of(tokens.DESCR_DELIM)
        assert co_ids[-1] == tokens.PAD_ID

    def test_forty_token_co_stream_keeps_the_description(self):
        co = _c_function(12)[:40]
        assert len(co) == 40
        vocab = self._vocab(co)
        ids = tokens.encode(tokens.variant_tokens(co, self.descr, "cd"), vocab)
        assert ids[40] == vocab.id_of(tokens.DESCR_DELIM)
        descr_ids = [vocab.id_of(t) for t in self.descr]
        assert ids[41 : 41 + len(descr_ids)].tolist() == descr_ids
        assert (ids[41 + len(descr_ids) :] == tokens.PAD_ID).all()


class TestVocabulary:
    def test_first_seen_order(self):
        vocab = tokens.build_vocabulary([["a", "b", "a", "c"]])
        assert vocab.id_of("a") == 2
        assert vocab.id_of("b") == 3
        assert vocab.id_of("c") == 4
        assert len(vocab) == 5

    def test_unseen_maps_to_unk(self):
        vocab = tokens.build_vocabulary([["a"]])
        assert vocab.id_of("zzz") == tokens.UNK_ID

    def test_order_spans_streams(self):
        vocab = tokens.build_vocabulary([["x", "y"], ["y", "z"]])
        assert [vocab.id_of(t) for t in ("x", "y", "z")] == [2, 3, 4]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            tokens.build_vocabulary([])
        with pytest.raises(ValueError):
            tokens.build_vocabulary([[], []])

    def test_token_list_round_trip(self):
        # checkpoints and embedding artifacts store tokens() and rebuild from it
        vocab = tokens.build_vocabulary([["alpha", "beta", "gamma_2"]])
        loaded = tokens.Vocabulary(vocab.tokens())
        assert loaded.tokens() == vocab.tokens()
        assert loaded.sha256() == vocab.sha256()
        assert [loaded.id_of(t) for t in ("alpha", "beta", "gamma_2")] == [2, 3, 4]

    def test_sha256_changes_with_content(self):
        a = tokens.build_vocabulary([["a", "b"]])
        b = tokens.build_vocabulary([["b", "a"]])
        assert a.sha256() != b.sha256()

    def test_token_of_inverse(self):
        vocab = tokens.build_vocabulary([["a", "b"]])
        assert vocab.token_of(2) == "a"
        assert vocab.token_of(3) == "b"
        with pytest.raises(KeyError):
            vocab.token_of(0)
        with pytest.raises(KeyError):
            vocab.token_of(4)


class TestEncode:
    vocab = tokens.build_vocabulary([["a", "b", "c"]])

    def test_padding(self):
        ids = tokens.encode(["a", "b"], self.vocab, seq_len=5)
        np.testing.assert_array_equal(ids, [2, 3, 0, 0, 0])
        assert ids.dtype == np.int64

    def test_truncation_keeps_head(self):
        ids = tokens.encode(["a", "b", "c", "a", "b"], self.vocab, seq_len=3)
        np.testing.assert_array_equal(ids, [2, 3, 4])

    def test_oov_maps_to_unk(self):
        ids = tokens.encode(["zzz", "a"], self.vocab, seq_len=3)
        np.testing.assert_array_equal(ids, [1, 2, 0])

    def test_default_length_60(self):
        assert tokens.encode(["a"], self.vocab).shape == (60,)

    def test_bad_seq_len(self):
        with pytest.raises(ValueError):
            tokens.encode(["a"], self.vocab, seq_len=0)

    def test_round_trip_property(self):
        rng = np.random.default_rng(3)
        pool = ["a", "b", "c", "zzz"]
        for _ in range(50):
            n = int(rng.integers(0, 12))
            toks = [pool[int(i)] for i in rng.integers(0, len(pool), n)]
            ids = tokens.encode(toks, self.vocab, seq_len=8)
            assert ids.shape == (8,)
            # ids beyond the sequence are padding, ids within match id_of
            for pos in range(8):
                if pos < min(n, 8):
                    assert ids[pos] == self.vocab.id_of(toks[pos])
                else:
                    assert ids[pos] == tokens.PAD_ID

    @pytest.mark.parametrize("toks,seq_len", [
        (["zzz", "a", "yyy", "c"], 6),  # unknown tokens, padded
        (["a", "zzz", "b", "c", "a", "b", "zzz"], 4),  # truncated
        (["c"], 60),  # a short stream
        ([], 5),  # an empty stream
    ], ids=["unknown", "truncation", "short", "empty"])
    def test_matches_the_per_token_loop(self, toks, seq_len):
        # encode before it looked its ids up in one pass: one id_of per token
        want = np.full(seq_len, tokens.PAD_ID, dtype=np.int64)
        for pos, token in enumerate(toks[:seq_len]):
            want[pos] = self.vocab.id_of(token)
        got = tokens.encode(toks, self.vocab, seq_len)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

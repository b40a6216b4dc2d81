"""Splitting, negative sampling, loss, convergence, and the training loop."""

from __future__ import annotations

import copy
import json
import pickle

import numpy as np
import pytest

from ikge import model as kg2e
from ikge import rdf
from ikge.ikggen import IkgGenSpec, gen_ikg
from ikge.model import DEFAULT_DIM, EXPECTED_LIKELIHOOD, KL_DIVERGENCE, init_model
from ikge.rdf import Graph, Term, Triple, VocabError, build_vocab, parse
from ikge.training import (
    MAX_ATTEMPTS,
    DatasetSplit,
    NegativeSampler,
    TrainConfig,
    TrainingDivergedError,
    TrainReport,
    convergence_epoch,
    sample_negative,
    split_dataset,
    train,
)


def line_graph(n_entities: int, n_relations: int = 2) -> Graph:
    lines = ["@prefix ex: <http://e.example/ns#> ."]
    for r in range(n_relations):
        for e in range(n_entities - 1):
            lines.append(f"ex:e{e} ex:r{r} ex:e{e + 1} .")
    return parse("\n".join(lines))


# ---------------------------------------------------------------------------
# config


def test_train_config_defaults():
    c = TrainConfig()
    assert c.epochs == 50
    assert c.seed == 27
    assert c.margin == 1.0
    assert c.split == (0.8, 0.1, 0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
        {"rms_decay": 0.0},
        {"rms_decay": 1.0},
        {"rms_epsilon": 0.0},
        {"margin": -1.0},
        {"negatives_per_positive": 0},
        {"batch_size": 0},
        {"seed": -1},
        {"split": (0.5, 0.5, 0.5)},
        {"split": (1.0, 0.0, 0.0)},
        {"split": (0.8, 0.2)},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"epochs": 2.5}, "epochs must be an integer, not 2.5"),
        ({"epochs": True}, "epochs must be an integer, not True"),
        ({"batch_size": 8.5}, "batch_size must be an integer, not 8.5"),
        ({"negatives_per_positive": 1.5}, "negatives_per_positive must be an integer, not 1.5"),
        ({"seed": "27"}, "seed must be an integer, not '27'"),
        ({"learning_rate": "0.01"}, "learning_rate must be a number, not '0.01'"),
        ({"margin": False}, "margin must be a number, not False"),
        ({"rms_epsilon": None}, "rms_epsilon must be a number, not None"),
        ({"split": ["0.8", "0.1", "0.1"]}, "split must be three numbers, not ['0.8', '0.1', '0.1']"),
        ({"split": "abc"}, "split must be three numbers, not 'abc'"),
    ],
)
def test_train_config_rejects_wrong_types(kwargs, message):
    with pytest.raises(TypeError) as info:
        TrainConfig(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("name", ["learning_rate", "rms_decay", "rms_epsilon", "margin"])
def test_train_config_rejects_non_finite_floats(name, value):
    # Python's json reads NaN and Infinity, so a config file can hold them.
    with pytest.raises(ValueError) as info:
        TrainConfig.from_document({name: value})
    assert str(info.value) == f"{name} must be finite"


def test_train_config_accepts_an_int_for_a_float_field():
    assert TrainConfig(learning_rate=1, margin=0).to_document()["learning_rate"] == 1


def test_train_config_allows_zero_margin():
    assert TrainConfig(margin=0.0).margin == 0.0


def test_train_config_document_pinned():
    # The bytes a model file and train.json store for the default config.
    doc = TrainConfig().to_document()
    assert isinstance(doc["split"], list)
    assert json.dumps(doc) == (
        '{"epochs": 50, "learning_rate": 0.01, "rms_decay": 0.9, "rms_epsilon": 1e-08,'
        ' "margin": 1.0, "negatives_per_positive": 1, "batch_size": 64, "seed": 27,'
        ' "split": [0.8, 0.1, 0.1]}'
    )


def test_train_config_document_round_trip():
    c = TrainConfig(epochs=7, seed=3, margin=0.5, split=(0.7, 0.2, 0.1))
    assert TrainConfig.from_document(c.to_document()) == c


def test_train_config_rejects_unknown_keys():
    doc = TrainConfig().to_document()
    doc["momentum"] = 0.9
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig.from_document(doc)


# ---------------------------------------------------------------------------
# splitting


def test_split_sizes_default_graph_shape():
    g = line_graph(500, 2)  # 998 triples
    split = split_dataset(g, (0.8, 0.1, 0.1), seed=1)
    assert len(split.valid) == 99 and len(split.test) == 99
    assert len(split.train) == 998 - 99 - 99


def test_split_defaults_are_the_default_config():
    g = line_graph(40)
    config = TrainConfig()
    a, b = split_dataset(g), split_dataset(g, config.split, config.seed)
    assert (a.train, a.valid, a.test) == (b.train, b.valid, b.test)


def test_split_deterministic():
    g = line_graph(40)
    a = split_dataset(g, seed=5)
    b = split_dataset(g, seed=5)
    assert a.train == b.train and a.valid == b.valid and a.test == b.test
    c = split_dataset(g, seed=6)
    assert c.train != a.train  # overwhelmingly likely under any reshuffle


def test_split_partition_property():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n_e = int(rng.integers(4, 30))
        lines = ["@prefix ex: <http://e.example/ns#> ."]
        seen = set()
        for _ in range(int(rng.integers(10, 80))):
            s = (int(rng.integers(n_e)), int(rng.integers(3)), int(rng.integers(n_e)))
            if s not in seen:
                seen.add(s)
                lines.append(f"ex:e{s[0]} ex:r{s[1]} ex:e{s[2]} .")
        g = parse("\n".join(lines))
        split = split_dataset(g, seed=trial)
        parts = [set(split.train), set(split.valid), set(split.test)]
        assert parts[0] | parts[1] | parts[2] == set(g.triples)
        assert sum(len(p) for p in parts) == len(g)  # pairwise disjoint
        assert split.vocab == build_vocab(g)
        assert split.full_graph() == g


def test_split_errors():
    with pytest.raises(ValueError):
        split_dataset(Graph([], {}))
    g = line_graph(10)
    with pytest.raises(ValueError):
        split_dataset(g, (0.8, 0.1, 0.2))
    with pytest.raises(ValueError):
        split_dataset(g, (0.8, 0.2))
    # Each held-out part takes floor(2 * 0.5) = 1 triple, and any empty part
    # is refused with the three counts.
    with pytest.raises(ValueError) as info:
        split_dataset(line_graph(2), (1e-10, 0.5, 0.5))
    assert str(info.value) == (
        "split [1e-10, 0.5, 0.5] leaves 0 training, 1 validation and 1 test triples of 2;"
        " each part needs at least one"
    )
    for fractions, counts in [((0.8, 0.05, 0.15), "8 training, 0 validation and 1"),
                              ((0.8, 0.15, 0.05), "8 training, 1 validation and 0")]:
        with pytest.raises(ValueError, match=f"leaves {counts} test triples of 9;"):
            split_dataset(line_graph(10, 1), fractions)


# ---------------------------------------------------------------------------
# negative sampling


def test_sample_negative_two_entity_graph():
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ex:b .\n"
    )
    v = build_vocab(g)
    positive = g.triples[0]
    seen = set()
    for seed in range(20):
        neg = sample_negative(positive, v, g, np.random.default_rng(seed))
        assert neg not in g
        assert neg.relation == positive.relation
        seen.add((neg.head.text, neg.tail.text))
    # only the two self-loops are available; both corruption sides appear
    assert seen == {("ex:a", "ex:a"), ("ex:b", "ex:b")}


def test_sample_negative_changes_exactly_one_side():
    g = line_graph(20)
    v = build_vocab(g)
    rng = np.random.default_rng(1)
    for _ in range(300):
        positive = g.triples[int(rng.integers(len(g)))]
        neg = sample_negative(positive, v, g, rng)
        assert neg not in g
        head_same = neg.head == positive.head
        tail_same = neg.tail == positive.tail
        assert head_same != tail_same  # exactly one side corrupted
        assert neg.relation == positive.relation


def test_sample_negative_side_ratio_balanced():
    g = line_graph(20)
    v = build_vocab(g)
    rng = np.random.default_rng(2)
    n = 10_000
    # One batched call makes the draws of one call per triple (pinned by
    # test_batched_draw_matches_one_call_per_triple).
    known = np.array(v.known_ids(g), dtype=np.int64)
    positives = known[np.arange(n) % len(known)]
    negatives = NegativeSampler(v, known).sample_many(positives, rng)
    heads = int((negatives[:, 0] != positives[:, 0]).sum())
    assert 0.47 <= heads / n <= 0.53


def test_sample_negative_never_puts_literal_in_head():
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        'ex:a ex:r "v1" .\n'
        'ex:b ex:r "v2" .\n'
        "ex:a ex:r ex:b .\n"
        "ex:b ex:r ex:c .\n"
    )
    v = build_vocab(g)
    rng = np.random.default_rng(3)
    for _ in range(500):
        positive = g.triples[int(rng.integers(len(g)))]
        neg = sample_negative(positive, v, g, rng)
        assert neg.head.is_iri


def test_sample_negative_rejects_known_triples():
    # every tail corruption of (a, r, *) except e is known, so tail draws
    # must land on e and head draws on b/c/d
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ex:a .\n"
        "ex:a ex:r ex:b .\n"
        "ex:a ex:r ex:c .\n"
        "ex:a ex:r ex:d .\n"
        "ex:e ex:s ex:e .\n"
    )
    v = build_vocab(g)
    positive = g.triples[1]
    rng = np.random.default_rng(4)
    for _ in range(200):
        neg = sample_negative(positive, v, g, rng)
        assert neg not in g
        if neg.head == positive.head:
            assert neg.tail == Term.iri("ex:e")


def test_sample_negative_exhausted_graph_still_terminates():
    # all 4 combinations over {a, b} x {a, b} are known: the sampler runs
    # out of attempts and returns its last corruption even though known
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ex:a .\n"
        "ex:a ex:r ex:b .\n"
        "ex:b ex:r ex:a .\n"
        "ex:b ex:r ex:b .\n"
    )
    v = build_vocab(g)
    neg = sample_negative(g.triples[0], v, g, np.random.default_rng(5))
    assert neg.relation == g.triples[0].relation


# Reference copy of the Term-level sampler the id-level NegativeSampler
# replaced; the new sampler must reproduce its output stream exactly.


class _ReferencePools:
    def __init__(self, vocab):
        self.heads = np.array(
            [i for i, t in enumerate(vocab.entities) if not t.is_literal], dtype=np.int64
        )
        self.tails = np.arange(vocab.n_entities, dtype=np.int64)


def _reference_draw_excluding(pool, exclude, rng):
    k = int(np.searchsorted(pool, exclude))
    if k < len(pool) and pool[k] == exclude:
        if len(pool) == 1:
            raise ValueError("no replacement entity available")
        i = int(rng.integers(len(pool) - 1))
        if i >= k:
            i += 1
        return int(pool[i])
    if len(pool) == 0:
        raise ValueError("no replacement entity available")
    return int(pool[rng.integers(len(pool))])


def _reference_sample_negative(positive, vocab, graph, rng, pools, max_attempts=100):
    corrupt_head = rng.random() < 0.5
    if corrupt_head and len(pools.heads) < 2 and (
        len(pools.heads) == 0 or pools.heads[0] == vocab.entity_id(positive.head)
    ):
        corrupt_head = False
    if corrupt_head:
        original, pool = vocab.entity_id(positive.head), pools.heads
    else:
        original, pool = vocab.entity_id(positive.tail), pools.tails
    candidate = positive
    for _ in range(max_attempts):
        replacement = vocab.entities[_reference_draw_excluding(pool, original, rng)]
        if corrupt_head:
            candidate = Triple(replacement, positive.relation, positive.tail)
        else:
            candidate = Triple(positive.head, positive.relation, replacement)
        if candidate not in graph:
            return candidate
    return candidate


def sample_one(sampler, row, rng):
    """Head and tail id of one corruption of the id triple ``row``: a
    one-row ``sample_many`` call."""
    nh, _, nt = sampler.sample_many([row], rng)[0].tolist()
    return nh, nt


def assert_same_stream(positives, vocab, known, seed, rounds=1, wrapper=True):
    """Reference, sampler and (optionally, as it rebuilds the sampler per
    call) the Term-level wrapper, each from its own generator of one seed."""
    ref_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    wrapper_rng = np.random.default_rng(seed)
    pools = _ReferencePools(vocab)
    sampler = NegativeSampler(vocab, vocab.known_ids(known))
    forced = 0
    for _ in range(rounds):
        for positive in positives:
            want = _reference_sample_negative(positive, vocab, known, ref_rng, pools)
            nh, nt = sample_one(sampler, vocab.triple_ids(positive), new_rng)
            assert Triple(vocab.entities[nh], positive.relation, vocab.entities[nt]) == want
            if wrapper:
                assert sample_negative(positive, vocab, known, wrapper_rng) == want
            forced += want in known
    # the same number of draws was consumed, not only the same results
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    if wrapper:
        assert wrapper_rng.bit_generator.state == ref_rng.bit_generator.state
    return forced


def test_sampler_stream_matches_reference_on_desk_split(desk_split):
    full = desk_split.full_graph()
    forced = assert_same_stream(
        desk_split.train.triples, desk_split.vocab, full, seed=27, wrapper=False
    )
    assert forced == 0


def test_sampler_stream_matches_reference_with_literal_tails():
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        'ex:a ex:r "v1" .\n'
        'ex:a ex:r "v2" .\n'
        'ex:b ex:s "v1" .\n'
        "ex:a ex:s ex:b .\n"
        "ex:b ex:r ex:c .\n"
        'ex:c ex:s "v3" .\n'
    )
    v = build_vocab(g)
    assert_same_stream(g.triples, v, g, seed=11, rounds=200)
    rng = np.random.default_rng(12)
    sampler = NegativeSampler(v, v.known_ids(g))
    for _ in range(500):
        for positive in g.triples:
            nh, _ = sample_one(sampler, v.triple_ids(positive), rng)
            assert not v.entities[nh].is_literal
    # a single IRI head: head corruption is impossible, so the tail is corrupted
    one_head = parse('@prefix ex: <http://e.example/ns#> .\nex:a ex:r "v1" .\nex:a ex:r "v2" .\n')
    assert_same_stream(one_head.triples, build_vocab(one_head), one_head, seed=13, rounds=100)


def test_sampler_stream_matches_reference_on_exhausted_graph():
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ex:a .\n"
        "ex:a ex:r ex:b .\n"
        "ex:b ex:r ex:a .\n"
        "ex:b ex:r ex:b .\n"
    )
    forced = assert_same_stream(g.triples, build_vocab(g), g, seed=14, rounds=5)
    assert forced == 4 * 5  # every draw ends in a forced accept


def assert_batched_draw(triples, vocab, known, seed, rounds=1):
    """``sample_many`` over the triples against one one-row call per
    triple, each from its own generator of one seed; returns the number of
    forced accepts."""
    sampler = NegativeSampler(vocab, vocab.known_ids(known))
    ids = [vocab.triple_ids(t) for t in triples] * rounds
    one_rng = np.random.default_rng(seed)
    many_rng = np.random.default_rng(seed)
    want = [sample_one(sampler, row, one_rng) for row in ids]
    got = sampler.sample_many(ids, many_rng)
    assert got[:, 1].tolist() == [r for _, r, _ in ids]
    assert list(zip(got[:, 0].tolist(), got[:, 2].tolist())) == want
    assert many_rng.bit_generator.state == one_rng.bit_generator.state
    return sum(sampler.key(nh, r, nt) in sampler.known for (_, r, _), (nh, nt) in zip(ids, want))


def test_batched_draw_matches_one_call_per_triple(desk_split):
    assert assert_batched_draw(
        desk_split.train.triples, desk_split.vocab, desk_split.full_graph(), seed=27
    ) == 0
    literal_tails = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        'ex:a ex:r "v1" .\n'
        'ex:a ex:r "v2" .\n'
        'ex:b ex:s "v1" .\n'
        "ex:a ex:s ex:b .\n"
        "ex:b ex:r ex:c .\n"
        'ex:c ex:s "v3" .\n'
    )
    assert_batched_draw(literal_tails.triples, build_vocab(literal_tails), literal_tails, 11, 200)
    one_head = parse('@prefix ex: <http://e.example/ns#> .\nex:a ex:r "v1" .\nex:a ex:r "v2" .\n')
    assert_batched_draw(one_head.triples, build_vocab(one_head), one_head, seed=13, rounds=100)
    exhausted = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ex:a .\n"
        "ex:a ex:r ex:b .\n"
        "ex:b ex:r ex:a .\n"
        "ex:b ex:r ex:b .\n"
    )
    forced = assert_batched_draw(exhausted.triples, build_vocab(exhausted), exhausted, 14, 5)
    assert forced == 4 * 5


def test_sample_negative_skips_known_triples_outside_vocab():
    # ex:r1 is outside the vocabulary, so its triples cannot be corruptions
    # of an ex:r0 triple; rejecting the ex:r0 triples leaves these draws
    g = line_graph(6)
    v = build_vocab(line_graph(6, n_relations=1))  # knows ex:r0 only
    assert len(v.known_ids(g)) == 5
    inside = Graph([t for t in g.triples if t.relation.text == "ex:r0"], g.prefix_map)
    for seed in range(20):
        got = sample_negative(g.triples[0], v, g, np.random.default_rng(seed))
        assert got == sample_negative(g.triples[0], v, inside, np.random.default_rng(seed))
        assert got not in inside


def test_sampler_known_keys():
    g = line_graph(6)
    v = build_vocab(g)
    ids = v.known_ids(g)
    sampler = NegativeSampler(v, ids)
    assert sampler.known == {sampler.key(*row) for row in ids}
    assert NegativeSampler(v, []).known == set()


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("past_end", [False, True])
def test_sampler_rejects_out_of_range_ids(column, past_end):
    # (h, r, E) would pack like (h, r + 1, 0), and a negative id would index
    # the pools from the end
    g = line_graph(6)
    v = build_vocab(g)
    row = list(v.known_ids(g)[0])
    row[column] = (v.n_relations if column == 1 else v.n_entities) if past_end else -1
    with pytest.raises(IndexError):
        NegativeSampler(v, [row])
    sampler = NegativeSampler(v, v.known_ids(g))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(IndexError):
        sampler.sample_many([row], rng)
    assert rng.bit_generator.state == before  # nothing was drawn


def test_sampler_needs_two_entities():
    g = parse("<http://e/a> <http://e/r> <http://e/a> .")
    v = build_vocab(g)
    with pytest.raises(ValueError, match="two entities"):
        NegativeSampler(v, v.known_ids(g))


def test_split_ids_follow_the_split_triples(desk_split):
    vocab = desk_split.vocab
    for triples, ids in (
        (desk_split.train, desk_split.train_ids),
        (desk_split.valid, desk_split.valid_ids),
        (desk_split.test, desk_split.test_ids),
    ):
        assert ids.dtype == np.int64 and ids.shape == (len(triples), 3)
        assert ids.tolist() == [list(vocab.triple_ids(t)) for t in triples]
        assert np.shares_memory(ids, desk_split.ids)  # a view, not a copy
    assert desk_split.train_ids is desk_split.train_ids
    parts = desk_split.train.triples + desk_split.valid.triples + desk_split.test.triples
    assert desk_split.ids.tolist() == [list(vocab.triple_ids(t)) for t in parts]


def test_split_parts_follow_the_seeded_order(desk_ikg, desk_split):
    assert desk_split.full_graph() is desk_split.graph is desk_ikg
    triples = [desk_ikg.triples[i] for i in desk_split.order.tolist()]
    n_train, n_valid = desk_split.n_train, desk_split.n_valid
    assert (n_train, n_valid) == (1261, 157)
    assert desk_split.train.triples == tuple(triples[:n_train])
    assert desk_split.valid.triples == tuple(triples[n_train : n_train + n_valid])
    assert desk_split.test.triples == tuple(triples[n_train + n_valid :])
    assert desk_split.train.prefix_map == desk_ikg.prefix_map
    assert desk_split.train is desk_split.train


def test_split_sampler_knows_the_whole_split_and_is_built_once(desk_split):
    assert desk_split.sampler is desk_split.sampler
    vocab = desk_split.vocab
    whole = NegativeSampler(vocab, vocab.known_ids(desk_split.full_graph()))
    assert desk_split.sampler.known == whole.known
    h, r, t = desk_split.ids.T
    assert desk_split.sampler.known == set(desk_split.sampler.key(h, r, t).tolist())


# The sampler decodes its draws from raw PCG64 words. Against the calls it
# stands for, ``Generator.random() < 0.5`` and ``Generator.integers(k)``,
# at pool sizes where Lemire's rejection fires often (a quarter of draws at
# 3 * 2**30, about half at 2**31 + 1) and where it draws nothing (k = 1).


def _synthetic_sampler(n_entities: int) -> NegativeSampler:
    """A sampler over entities 0..n_entities-1 with the head pool {0, 1, 2}
    (or fewer), built without a vocabulary so that the tail pool can be
    larger than any vocabulary in memory. Its triples must have a head in
    the pool and relation 0."""
    sampler = object.__new__(NegativeSampler)
    sampler.n_entities, sampler.n_relations = n_entities, 1
    sampler.heads = sampler.head_pos = list(range(min(3, n_entities)))
    sampler.known = set()
    return sampler


def _reference_draws(sampler, triples, rng, max_attempts=100):
    """What the sampler draws, one ``random``/``integers`` call per draw."""
    n_e, n_heads = sampler.n_entities, len(sampler.heads)
    out = []
    for h, r, t in triples:
        corrupt_head = rng.random() < 0.5
        size, skip = (n_heads, h) if corrupt_head else (n_e, t)
        nh, nt = h, t
        for _ in range(max_attempts):
            i = int(rng.integers(size - 1))
            if i >= skip:
                i += 1
            nh, nt = (i, t) if corrupt_head else (h, i)
            if sampler.key(nh, r, nt) not in sampler.known:
                break
        out.append((nh, nt))
    return out


@pytest.mark.parametrize("n_entities", [2, 3, 208, 3 * 2**30 + 1, 2**31 + 2])
@pytest.mark.parametrize("calls_before", [0, 1, 3])
def test_word_decoder_matches_generator_calls(n_entities, calls_before):
    # tail draws are integers(n_entities - 1): k = 1, 2, 207, 3 * 2**30, 2**31 + 1
    pick = np.random.default_rng(n_entities)
    n_heads = min(3, n_entities)
    triples = [
        (i % n_heads, 0, int(pick.integers(n_entities))) for i in range(300)
    ]
    # Known tails of heads 0 and 1 force redraws; on the small pools they
    # are every tail, so those triples end in a forced accept.
    sampler = _synthetic_sampler(n_entities)
    sampler.known = {sampler.key(h, 0, t) for h in (0, 1) for t in range(min(n_entities, 150))}
    for one_call_per_triple in (False, True):
        ref = np.random.default_rng(99)
        rng = np.random.default_rng(99)
        # An odd number of integers calls leaves the high half of a word buffered.
        for g in (ref, rng):
            g.random()
            for _ in range(calls_before):
                g.integers(5)
        assert rng.bit_generator.state["has_uint32"] == calls_before % 2
        want = _reference_draws(sampler, triples, ref)
        if one_call_per_triple:
            got = [sample_one(sampler, row, rng) for row in triples]
        else:
            got = [(h, t) for h, _, t in sampler.sample_many(triples, rng).tolist()]
        assert got == want
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()
        assert rng.integers(2**31 + 1) == ref.integers(2**31 + 1)
        assert rng.integers(7) == ref.integers(7)
        assert rng.permutation(50).tolist() == ref.permutation(50).tolist()


class _HeadPositions:
    """``head_pos`` of the head pool ``range(n)``: an entity's own id inside
    it, -1 past it."""

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, e: int) -> int:
        return e if e < self.n else -1


def _reference_pool_draws(sampler, triples, rng):
    """What the sampler draws, one ``random``/``integers`` call per draw, for
    heads inside and outside the head pool."""
    n_e, n_heads = sampler.n_entities, len(sampler.heads)
    out = []
    for h, r, t in triples:
        pos = sampler.head_pos[h]
        corrupt_head = rng.random() < 0.5 and n_heads > (pos >= 0)
        size, skip = (n_heads, pos) if corrupt_head else (n_e, t)
        nh, nt = h, t
        for _ in range(MAX_ATTEMPTS):
            i = int(rng.integers(size - 1 if skip >= 0 else size))
            if 0 <= skip <= i:
                i += 1
            nh, nt = (sampler.heads[i], t) if corrupt_head else (h, i)
            if sampler.key(nh, r, nt) not in sampler.known:
                break
        out.append((nh, nt))
    return out


@pytest.mark.parametrize("n_heads", [2, 2**31 + 2])
def test_one_sample_many_call_draws_from_every_pool_size(n_heads):
    # One call meets every pool size: a head in the pool draws from
    # n_heads - 1 entities (one, with no draw, in a two-entity pool), a head
    # past it, as a literal is, from n_heads, and a tail from n_entities - 1.
    # At 2**31 + 1, 2**31 + 2 and 3 * 2**30 Lemire's rejection fires on a
    # quarter to a half of the draws, so each pool needs its own threshold.
    n_entities = 3 * 2**30 + 1
    sampler = _synthetic_sampler(n_entities)
    sampler.heads, sampler.head_pos = range(n_heads), _HeadPositions(n_heads)
    pick = np.random.default_rng(n_heads)
    heads = (0, n_heads - 1, n_heads, n_entities - 1)
    triples = [(h, 0, int(pick.integers(n_entities))) for _ in range(100) for h in heads]
    ref, rng = np.random.default_rng(31), np.random.default_rng(31)
    want = _reference_pool_draws(sampler, triples, ref)
    got = sampler.sample_many(triples, rng)
    assert list(zip(got[:, 0].tolist(), got[:, 2].tolist())) == want
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sampler_needs_a_pcg64_generator():
    g = line_graph(5)
    v = build_vocab(g)
    sampler = NegativeSampler(v, v.known_ids(g))
    rng = np.random.Generator(np.random.MT19937(3))
    with pytest.raises(TypeError, match="PCG64"):
        sampler.sample_many([v.triple_ids(g.triples[0])], rng)
    with pytest.raises(TypeError, match="PCG64"):
        sample_negative(g.triples[0], v, g, rng)
    # nothing was drawn
    assert rng.random() == np.random.Generator(np.random.MT19937(3)).random()


# ---------------------------------------------------------------------------
# convergence


def test_convergence_epoch_cases():
    assert convergence_epoch([]) is None
    assert convergence_epoch([5.0, 4.0, 3.0, 2.0, 1.0]) is None  # keeps improving
    assert convergence_epoch([1.0, 1.0, 1.0, 1.0]) == 4
    assert convergence_epoch([1.0, 1.0, 1.0]) is None  # patience counts post-best epochs
    # zigzag around a plateau: the running best never improves enough
    assert convergence_epoch([10.0, 10.001, 9.9995, 10.0005, 9.9998]) == 4
    assert convergence_epoch([10.0, 5.0, 5.0, 5.0, 5.0]) == 5
    assert convergence_epoch([1.0, 1.0, 1.0, 1.0, 1.0]) == 4  # the first epoch ending the run
    # improvements below CONVERGENCE_REL_TOL (1e-3) count as stalled
    assert convergence_epoch([4.0, 2.0, 1.999, 1.998]) is None
    assert convergence_epoch([4.0, 2.0, 1.999, 1.998, 1.997]) == 5
    # one improvement above it restarts the run
    assert convergence_epoch([4.0, 2.0, 1.999, 1.998, 1.9, 1.899, 1.898, 1.897]) == 8


# ---------------------------------------------------------------------------
# training loop


def test_train_single_triple_reaches_zero_loss():
    g = parse("@prefix ex: <http://e.example/ns#> .\nex:a ex:r ex:b .")
    v = build_vocab(g)
    split = DatasetSplit(g, v, np.arange(len(g)), n_train=1, n_valid=0)
    config = TrainConfig(epochs=60, seed=0, batch_size=1)
    model = init_model(v, dim=50, seed=config.seed)
    report = train(model, split, config)
    losses = report.epoch_losses
    assert len(losses) == 60
    assert all(np.isfinite(losses))
    assert 0.0 in losses
    assert losses[-1] == 0.0  # zero loss is absorbing here
    assert report.constraint_violations == 0


def test_train_deterministic():
    g = line_graph(12, 2)
    v = build_vocab(g)
    split = split_dataset(g, seed=0)
    config = TrainConfig(epochs=5, seed=9, batch_size=8)
    m1 = init_model(v, dim=8, seed=config.seed)
    m2 = init_model(v, dim=8, seed=config.seed)
    r1 = train(m1, split, config)
    r2 = train(m2, split, config)
    assert r1.epoch_losses == r2.epoch_losses
    for name in ("entity_means", "entity_covs", "relation_means", "relation_covs"):
        assert np.array_equal(getattr(m1, name), getattr(m2, name))
    assert r1.convergence_epoch == r2.convergence_epoch


def test_train_vocab_mismatch():
    g = line_graph(10)
    split = split_dataset(g, seed=0)
    other = build_vocab(line_graph(11))
    model = init_model(other, dim=4, seed=0)
    with pytest.raises(VocabError):
        train(model, split, TrainConfig(epochs=1))


def test_train_empty_train_split():
    g = line_graph(10)
    v = build_vocab(g)
    split = DatasetSplit(g, v, np.arange(len(g)), n_train=0, n_valid=0)
    with pytest.raises(ValueError):
        train(init_model(v, dim=4, seed=0), split, TrainConfig(epochs=1))


def test_train_raises_on_divergence():
    g = line_graph(10)
    v = build_vocab(g)
    split = split_dataset(g, seed=0)
    model = init_model(v, dim=4, seed=0)
    model.entity_means[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError):
        train(model, split, TrainConfig(epochs=2, seed=0))


def test_desk_training_improves_and_respects_constraints(desk_report, desk_model):
    losses = desk_report.epoch_losses
    assert len(losses) == 50
    assert losses[-1] < losses[0]
    assert all(np.isfinite(losses))
    assert desk_report.constraint_violations == 0
    assert desk_model.train_config["seed"] == 27


# ---------------------------------------------------------------------------
# differential test: train against the per-batch loop it replaced
#
# The code from here to the end of ``_reference_train`` is a verbatim copy
# of the previous apply_constraints and train (renamed, with the model
# module imported as ``kg2e``). It is the oracle for every parameter byte,
# epoch loss and convergence epoch.


def _reference_apply_constraints(model):
    """Rescale over-norm means to the unit ball and clamp covariances.

    Idempotent: a second application leaves every array bit-identical.
    """
    for means in (model.entity_means, model.relation_means):
        norms = np.linalg.norm(means, axis=1, keepdims=True)
        over = norms > 1.0 + kg2e._NORM_TOL
        if over.any():
            np.divide(means, norms, out=means, where=over)
    np.clip(model.entity_covs, model.c_min, model.c_max, out=model.entity_covs)
    np.clip(model.relation_covs, model.c_min, model.c_max, out=model.relation_covs)
    return model


def _reference_train(model, split, config):
    """Run margin-ranking training in place and report per-epoch losses.

    Deterministic for a fixed config seed. Raises TrainingDivergedError as
    soon as an epoch loss is non-finite.
    """
    if model.vocab != split.vocab:
        raise VocabError("model vocabulary does not match the dataset split")
    if len(split.train) == 0:
        raise ValueError("training split is empty")

    rng = np.random.default_rng(config.seed)
    vocab = split.vocab
    sampler = NegativeSampler(vocab, vocab.known_ids(split.full_graph()))
    positives = [vocab.triple_ids(t) for t in split.train.triples]
    pos_ids = np.array(positives, dtype=np.int64)
    n = len(positives)
    npp = config.negatives_per_positive

    em, ec = model.entity_means, model.entity_covs
    rm, rc = model.relation_means, model.relation_covs
    state = [np.zeros_like(a) for a in (em, ec, rm, rc)]
    grad_fn = kg2e._GRAD_FNS[model.score_kind]
    score_fn = kg2e._SCORE_FNS[model.score_kind]
    lr, rho, eps = config.learning_rate, config.rms_decay, config.rms_epsilon

    def rms_update(theta, s, rows, grad):
        s[rows] = rho * s[rows] + (1.0 - rho) * grad * grad
        theta[rows] += lr * grad / np.sqrt(s[rows] + eps)

    epoch_losses: list[float] = []
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        pair_count = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            ph = np.repeat(pos_ids[batch, 0], npp)
            pr = np.repeat(pos_ids[batch, 1], npp)
            pt = np.repeat(pos_ids[batch, 2], npp)
            negs = [sample_one(sampler, positives[i], rng) for i in np.repeat(batch, npp).tolist()]
            nh, nt = np.array(negs, dtype=np.int64).T

            pos_scores = score_fn(em[ph], ec[ph], rm[pr], rc[pr], em[pt], ec[pt])
            neg_scores = score_fn(em[nh], ec[nh], rm[pr], rc[pr], em[nt], ec[nt])
            losses = np.maximum(0.0, config.margin - pos_scores + neg_scores)
            loss_sum += float(losses.sum())
            b = len(losses)
            pair_count += b

            active = losses > 0.0
            if active.any():
                ah, ar, at = ph[active], pr[active], pt[active]
                bh, bt = nh[active], nt[active]
                gp = grad_fn(em[ah], ec[ah], rm[ar], rc[ar], em[at], ec[at])
                gn = grad_fn(em[bh], ec[bh], rm[ar], rc[ar], em[bt], ec[bt])

                g_em = np.zeros_like(em)
                g_ec = np.zeros_like(ec)
                g_rm = np.zeros_like(rm)
                g_rc = np.zeros_like(rc)
                # Ascent on positives, descent on negatives.
                np.add.at(g_em, ah, gp[0])
                np.add.at(g_em, at, gp[2])
                np.add.at(g_em, bh, -gn[0])
                np.add.at(g_em, bt, -gn[2])
                np.add.at(g_ec, ah, gp[3])
                np.add.at(g_ec, at, gp[5])
                np.add.at(g_ec, bh, -gn[3])
                np.add.at(g_ec, bt, -gn[5])
                np.add.at(g_rm, ar, gp[1] - gn[1])
                np.add.at(g_rc, ar, gp[4] - gn[4])

                touched_e = np.unique(np.concatenate([ah, at, bh, bt]))
                touched_r = np.unique(ar)
                rms_update(em, state[0], touched_e, g_em[touched_e] / b)
                rms_update(ec, state[1], touched_e, g_ec[touched_e] / b)
                rms_update(rm, state[2], touched_r, g_rm[touched_r] / b)
                rms_update(rc, state[3], touched_r, g_rc[touched_r] / b)
            _reference_apply_constraints(model)

        mean_loss = loss_sum / pair_count
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(f"non-finite mean loss at epoch {len(epoch_losses) + 1}")
        epoch_losses.append(mean_loss)

    return TrainReport(
        epoch_losses=epoch_losses,
        convergence_epoch=convergence_epoch(epoch_losses),
        constraint_violations=kg2e.constraint_violations(model),
    )


_PARAMS = ("entity_means", "entity_covs", "relation_means", "relation_covs")
_SMALL_SPEC = IkgGenSpec(seed=5, n_services=6, n_resources=3, n_kpis=3, target_triples=120)


def assert_train_matches_reference(model, split, config):
    """Train a copy of ``model`` each way; returns the reference's outcome.

    Ours must update the copy's own two tables in place, as the reference
    updates its arrays, also when training diverges: the same objects,
    each owning its memory, with each named array a view of them.
    """
    ours, theirs = copy.deepcopy(model), copy.deepcopy(model)
    tables = ours.means, ours.covs
    try:
        want = _reference_train(theirs, split, config)
    except TrainingDivergedError as exc:
        with pytest.raises(TrainingDivergedError, match=f"^{exc}$"):
            train(ours, split, config)
        want = exc
    else:
        assert train(ours, split, config) == want
    assert ours.means is tables[0] and ours.covs is tables[1]
    assert tables[0].flags.owndata and tables[1].flags.owndata
    for name in _PARAMS:
        array = getattr(ours, name)
        assert array.base is tables[name.endswith("covs")], name
        assert array.tobytes() == getattr(theirs, name).tobytes(), name
    return want


@pytest.fixture(scope="module")
def small_split():
    return split_dataset(gen_ikg(_SMALL_SPEC), seed=3)


@pytest.fixture(scope="module")
def two_entity_split():
    """Every triple over two entities and two relations, all in train: built
    directly, as ``split_dataset`` refuses a split with no held-out rows."""
    lines = ["@prefix ex: <http://e.example/ns#> ."]
    lines += [f"ex:{h} ex:{r} ex:{t} ." for h in "ab" for r in "rs" for t in "ab"]
    g = parse("\n".join(lines))
    split = DatasetSplit(g, build_vocab(g), np.random.default_rng(0).permutation(8), 8, 0)
    assert len(split.train) == 8
    return split


# Per case: the split fixture and the model dim. At dim 1 a table row's
# mean/covariance split sits at column 1. In the two-entity graph every id
# repeats many times in a batch, and every corruption is a known triple,
# so every negative is a forced accept.
_ORACLE_CASES = {
    "desk": ("desk_split", DEFAULT_DIM),
    "small": ("small_split", 8),
    "small-dim1": ("small_split", 1),
    "two-entity": ("two_entity_split", 8),
}


@pytest.mark.parametrize("score_kind", [KL_DIVERGENCE, EXPECTED_LIKELIHOOD])
@pytest.mark.parametrize("graph", list(_ORACLE_CASES))
@pytest.mark.parametrize(
    "npp,batch_size,epochs",
    [(1, 64, 6), (2, 64, 4), (3, 7, 3), (1, 1, 1), (1, 5000, 5), (3, 5000, 4)],
)
def test_train_matches_reference(request, graph, score_kind, npp, batch_size, epochs):
    fixture, dim = _ORACLE_CASES[graph]
    split = request.getfixturevalue(fixture)
    config = TrainConfig(
        epochs=epochs, batch_size=batch_size, negatives_per_positive=npp, seed=27
    )
    report = assert_train_matches_reference(
        init_model(split.vocab, dim=dim, seed=config.seed, score_kind=score_kind), split, config
    )
    assert len(report.epoch_losses) == epochs


@pytest.mark.parametrize("score_kind", [KL_DIVERGENCE, EXPECTED_LIKELIHOOD])
@pytest.mark.parametrize("batch_size", [1, 7, 64, 5000])
def test_train_matches_reference_from_outside_constraints(small_split, score_kind, batch_size):
    # Means of every norm up to ~3 and covariances on both sides of the
    # box: the first batch's whole-model constraint must reach rows that
    # batch does not touch.
    model = init_model(small_split.vocab, dim=8, seed=1, score_kind=score_kind)
    rng = np.random.default_rng(2)
    for means, covs in ((model.entity_means, model.entity_covs),
                        (model.relation_means, model.relation_covs)):
        means *= rng.uniform(0.5, 3.0, (len(means), 1))
        covs[:] = rng.uniform(0.01, 8.0, covs.shape)
    assert kg2e.constraint_violations(model) > 0
    config = TrainConfig(epochs=2, batch_size=batch_size, seed=4)
    assert assert_train_matches_reference(model, small_split, config).constraint_violations == 0


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"]
)
def test_copied_model_trains_its_own_tables(small_split, clone):
    # A copy's named arrays stay views of the copy's tables, so training it
    # reaches the reference's bytes and leaves the original as it was.
    model = init_model(small_split.vocab, dim=8, seed=1)
    before = model.means.tobytes(), model.covs.tobytes()
    ours, theirs = clone(model), copy.deepcopy(model)
    config = TrainConfig(epochs=2, batch_size=7, seed=4)
    assert train(ours, small_split, config) == _reference_train(theirs, small_split, config)
    for name in _PARAMS:
        assert getattr(ours, name).base is (ours.covs if name.endswith("covs") else ours.means)
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes(), name
    assert (model.means.tobytes(), model.covs.tobytes()) == before
    assert ours.means.tobytes() != before[0]


def test_train_matches_reference_on_divergence():
    g = line_graph(10)
    split = split_dataset(g, seed=0)
    model = init_model(build_vocab(g), dim=4, seed=0)
    model.entity_means[0, 0] = np.nan
    outcome = assert_train_matches_reference(model, split, TrainConfig(epochs=2, seed=0))
    assert isinstance(outcome, TrainingDivergedError)

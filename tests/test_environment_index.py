"""Every entry point that takes environment names matches them through
one ``data.EnvironmentIndex``: any respelling with other case, spaces,
``*`` or punctuation resolves to the same column, and two spellings of
one game in one input are rejected."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchsel import fixtures
from benchsel.analysis import (
    CorrelationGraph,
    correlated_pairs,
    export_dot,
    pearson_matrix,
)
from benchsel.data import (
    EnvironmentIndex,
    FilterConfig,
    NormalizationTable,
    PreparedDataset,
    RawScoreTable,
)
from benchsel.errors import (
    DuplicateEnvironmentError,
    EnvironmentLookupError,
    ValidationError,
)
from benchsel.linreg import LinearModel, predict_linear
from benchsel.predict import predict_summary
from benchsel.search import (
    ModelBank,
    SearchConfig,
    _build_context,
    per_game_models,
)
from conftest import make_dataset

DATASET = make_dataset(m=30, n=8, seed=90)
NAMES = DATASET.environment_ids
NORMS = fixtures.load_normalization()
GAMES = ("Battle Zone", "Ms Pacman", "Qbert", "Up n Down")
MODEL = LinearModel(GAMES, np.array([0.4, 0.3, 0.2, 0.1]), intercept=0.05)
SEPARATORS = st.sampled_from(["", "", "", " ", "  ", "*", ".", "-", "'", "_",
                              ":", "!"])
PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def respelled(draw, name):
    """``name`` with random case and separators between its characters."""
    cells = [draw(SEPARATORS)]
    for ch in name:
        cells += [ch.upper() if draw(st.booleans()) else ch.lower(),
                  draw(SEPARATORS)]
    return "".join(cells)


def respell_all(draw, names):
    return [draw(respelled(name)) for name in names]


@PROPERTY
@given(data=st.data())
def test_index_positions_survive_respelling(data):
    index = EnvironmentIndex(GAMES)
    for j, name in enumerate(respell_all(data.draw, GAMES)):
        assert name in index
        assert index.get(name) == index.position(name) == j
    assert index.get("Pong") is None
    with pytest.raises(EnvironmentLookupError, match="Pong"):
        index.position("Pong")


@PROPERTY
@given(data=st.data())
def test_search_config_include_and_exclude(data):
    j, k = data.draw(st.permutations(range(len(NAMES))))[:2]
    config = SearchConfig(subset_size=2, folds=5,
                          must_include=(data.draw(respelled(NAMES[j])),),
                          exclude=(data.draw(respelled(NAMES[k])),))
    context = _build_context(DATASET, config)
    assert context.must_cols.tolist() == [j]
    assert sorted(context.pool.tolist()) == sorted(
        set(range(len(NAMES))) - {j, k})


@PROPERTY
@given(data=st.data())
def test_predict_mappings(data):
    raw = {g: NORMS.lookup(g).random + 0.7 * (NORMS.lookup(g).human
                                              - NORMS.lookup(g).random)
           for g in GAMES}
    spelled = dict(zip(respell_all(data.draw, GAMES), raw.values()))
    assert predict_summary(MODEL, spelled, NORMS) == predict_summary(
        MODEL, raw, NORMS)
    logs = dict(zip(respell_all(data.draw, GAMES), [1.5, 0.2, 2.0, 0.9]))
    assert predict_linear(MODEL, logs) == predict_linear(
        MODEL, [1.5, 0.2, 2.0, 0.9])


@PROPERTY
@given(data=st.data())
def test_correlation_lookup(data):
    graph = pearson_matrix(DATASET)
    a, b = data.draw(st.permutations(range(len(NAMES))))[:2]
    assert graph.lookup(data.draw(respelled(NAMES[a])),
                        data.draw(respelled(NAMES[b]))) == graph.pcc[a, b]


@PROPERTY
@given(data=st.data())
def test_export_dot_categories(data):
    pairs = correlated_pairs(pearson_matrix(DATASET), top_n=12)
    categories = {name: f"kind{j % 3}" for j, name in enumerate(NAMES)}
    spelled = dict(zip(respell_all(data.draw, NAMES), categories.values()))
    assert export_dot(pairs, spelled) == export_dot(pairs, categories)


@PROPERTY
@given(data=st.data())
def test_model_bank_covers(data):
    bank = per_game_models(DATASET, NAMES[:2])
    assert bank.covers(respell_all(data.draw, NAMES))
    assert not bank.covers([*NAMES, "env99"])


@PROPERTY
@given(data=st.data())
def test_colliding_pair_raises_everywhere(data):
    first = data.draw(st.sampled_from(GAMES))
    pair = (first, data.draw(respelled(first).filter(lambda s: s != first)))
    builders = [
        lambda: EnvironmentIndex(pair),
        lambda: RawScoreTable(("a1",), pair, [[1.0, 2.0]]),
        lambda: PreparedDataset(("a1",), pair, [[1.0, 2.0]], [1.0],
                                "median", FilterConfig(1, 1)),
        lambda: NormalizationTable.from_pairs([(n, 0.0, 1.0) for n in pair]),
        lambda: CorrelationGraph(pair, np.eye(2), np.ones((2, 2), int)),
        lambda: SearchConfig(subset_size=2, must_include=pair),
        lambda: export_dot([], dict.fromkeys(pair, "kind")),
        lambda: ModelBank(pair[:1], {pair[0]: MODEL}, {pair[1]: "skipped"},
                          {}).covers(pair),
        lambda: predict_summary(MODEL, dict.fromkeys(pair, 1.0), NORMS),
        lambda: predict_linear(MODEL, dict.fromkeys(pair, 1.0)),
    ]
    for build in builders:
        with pytest.raises(ValidationError) as caught:
            build()
        assert isinstance(caught.value, DuplicateEnvironmentError)

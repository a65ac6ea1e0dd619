"""``WeightedTable`` draws exactly what ``Generator.choice(n, p=...)`` draws.

Every seeded study report depends on this: the UA pools, the gpclick
botnet's country/model/proxy pools, the benign-corpus and trace TLD
mixes and the blocklist category priors all moved from per-call
``rng.choice(p=...)`` to prebuilt tables.  Each reference below
rebuilds ``p`` with the formula its call site used before the move,
so a numpy release that changes ``choice`` (or a table built with a
different normalization) fails here by name.
"""

import numpy as np
import pytest

from repro.blocklist.categories import PAPER_CATEGORY_SHARES
from repro.blocklist.feeds import FeedGenerator
from repro.dga import corpus
from repro.rand import WeightedTable, make_rng
from repro.workloads import botnet, trace
from repro.workloads import useragents as ua

SEEDS = range(100)
DRAWS = 100

UA_POOLS = {
    "search-global": ua.SEARCH_CRAWLERS_GLOBAL,
    "search-ru": ua.SEARCH_CRAWLERS_RU,
    "file-grabbers": ua.FILE_GRABBERS,
    "email-crawlers": ua.EMAIL_CRAWLERS,
    "script-tools": ua.SCRIPT_TOOLS,
    "pc-mobile": ua.PC_MOBILE_BROWSERS,
    "inapp": ua.INAPP_BROWSERS,
}


def _from_weights_p(weights):
    """``WeightedTable.from_weights``'s normalization."""
    probs = np.asarray(weights, dtype=float)
    return probs / probs.sum()


def _parent_pools():
    """(name, table, items, p) with ``p`` built as each call site built it."""
    out = []
    for name, pool in UA_POOLS.items():
        out.append(
            (
                f"ua-{name}",
                ua._TABLES[pool],
                [agent for agent, _ in pool],
                _from_weights_p([w for _, w in pool]),
            )
        )
    countries = list(botnet.COUNTRY_CODES)
    weights = [w for *_, w in countries]
    out.append(
        (
            "botnet-country",
            botnet._COUNTRY_TABLE,
            countries,
            np.asarray(weights) / sum(weights),
        )
    )
    model_weights = np.asarray([w for _, w in botnet.PHONE_MODELS])
    out.append(
        (
            "botnet-model",
            botnet._MODEL_TABLE,
            [m for m, _ in botnet.PHONE_MODELS],
            model_weights / model_weights.sum(),
        )
    )
    proxy_weights = np.asarray([w for _, w in botnet.PROXY_POOLS])
    out.append(
        (
            "botnet-proxy",
            botnet._PROXY_TABLE,
            [n for n, _ in botnet.PROXY_POOLS],
            proxy_weights / proxy_weights.sum(),
        )
    )
    out.append(
        (
            "corpus-tlds",
            corpus._TLD_TABLE,
            list(corpus._TLD_POOL),
            _from_weights_p(corpus._TLD_WEIGHTS),
        )
    )
    out.append(
        (
            "trace-tlds",
            trace._TLD_TABLE,
            [t for t, _ in trace.TLD_WEIGHTS],
            _from_weights_p([w for _, w in trace.TLD_WEIGHTS]),
        )
    )
    out.append(
        (
            "blocklist-categories",
            FeedGenerator(make_rng(0))._table,
            [c for c, _ in PAPER_CATEGORY_SHARES],
            _from_weights_p([w for _, w in PAPER_CATEGORY_SHARES]),
        )
    )
    return out


POOLS = _parent_pools()
POOL_IDS = [name for name, *_ in POOLS]


def _assert_same_draws(table, items, p, seed):
    ours, theirs = make_rng(seed), make_rng(seed)
    for step in range(DRAWS):
        expected = items[int(theirs.choice(len(items), p=p))]
        assert table.draw(ours) == expected, (seed, step)
        # Interleave other draws: the table must consume exactly the
        # one double ``choice`` consumes, or these drift apart.
        width = 3 + step % 5
        assert int(ours.integers(0, 10**width)) == int(theirs.integers(0, 10**width))


@pytest.mark.parametrize("name,table,items,p", POOLS, ids=POOL_IDS)
def test_constant_pool_draws_match_choice(name, table, items, p):
    assert list(table.items) == list(items)
    for seed in SEEDS:
        _assert_same_draws(table, items, p, seed)


@pytest.mark.parametrize("name,table,items,p", POOLS, ids=POOL_IDS)
def test_constant_pool_cdf_bitwise_equal(name, table, items, p):
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    ours = np.asarray(table.cdf, dtype=np.float64)
    assert ours.view(np.uint64).tolist() == cdf.view(np.uint64).tolist()


def test_table_keeps_the_normalization_it_is_given():
    """For these weights ``sum`` and ``ndarray.sum`` round apart, and
    so do the CDFs; a table must be built from its call site's own
    ``p`` (the botnet's countries use ``sum``, its models and proxies
    ``ndarray.sum``)."""
    weights = [89.5, 42.3, 59.0, 2.4, 67.3, 91.9, 82.7, 88.6, 66.0, 24.6, 76.9, 21.2]
    items = list(range(len(weights)))
    by_python = np.asarray(weights) / sum(weights)
    by_numpy = np.asarray(weights) / np.asarray(weights).sum()
    python_table = WeightedTable(items, by_python)
    numpy_table = WeightedTable(items, by_numpy)
    assert python_table.cdf != numpy_table.cdf
    for seed in range(20):
        _assert_same_draws(python_table, items, by_python, seed)
        _assert_same_draws(numpy_table, items, by_numpy, seed)


def test_random_weights_match_choice():
    for seed in SEEDS:
        shape = np.random.default_rng(10_000 + seed)
        n = int(shape.integers(1, 40))
        weights = shape.random(n) * 10.0 ** shape.integers(-3, 4)
        weights[shape.random(n) < 0.2] = 0.0
        if weights.sum() == 0:
            weights[0] = 1.0
        items = list(range(n))
        table = WeightedTable.from_weights(items, weights.tolist())
        _assert_same_draws(table, items, _from_weights_p(weights), seed)


def test_weighted_choice_matches_choice():
    weights = [3.0, 0.0, 1.5, 7.25, 0.5]
    items = list("abcde")
    p = _from_weights_p(weights)
    for seed in SEEDS:
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(20):
            assert WeightedTable.from_weights(items, weights).draw(ours) == items[
                int(theirs.choice(len(items), p=p))
            ]


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
@pytest.mark.parametrize(
    "weights",
    [[1.0, -1.0, 2.0], [float("nan"), 1.0], [float("inf"), 1.0], [1.0, 2.0, -0.5]],
    ids=["negative", "nan", "inf", "negative-tail"],
)
def test_weighted_choice_keeps_choice_errors(weights):
    items = list(range(len(weights)))
    with pytest.raises(ValueError) as ours:
        WeightedTable.from_weights(items, weights).draw(make_rng(0))
    with pytest.raises(ValueError) as theirs:
        probs = np.asarray(weights, dtype=float)
        make_rng(0).choice(len(items), p=probs / probs.sum())
    assert str(ours.value) == str(theirs.value)


def test_table_rejects_unnormalized_probabilities():
    with pytest.raises(ValueError, match="do not sum to 1"):
        WeightedTable(["a", "b"], [0.5, 0.6])


def test_pick_on_foreign_pool_matches_weighted_choice():
    pool = (("agent-a", 2.0), ("agent-b", 5.0), ("agent-c", 1.0))
    for seed in range(20):
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(20):
            assert ua.pick(ours, pool) == WeightedTable.from_weights(
                [a for a, _ in pool], [w for _, w in pool]
            ).draw(theirs)


class _FixedUniform:
    """A stand-in generator whose ``random()`` returns chosen doubles."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def test_draw_breaks_ties_like_searchsorted_right():
    """A uniform that lands exactly on a CDF step goes right, past any
    zero-weight items, as ``searchsorted(side="right")`` sends it."""
    table = WeightedTable.from_weights(list("abcdef"), [0.0, 1.0, 0.0, 0.0, 2.0, 1.0])
    cdf = np.asarray(table.cdf)
    for u in [0.0] + table.cdf[:-1]:
        expected = "abcdef"[int(cdf.searchsorted(u, side="right"))]
        assert table.draw(_FixedUniform([u])) == expected


# -- the call sites draw through their tables --------------------------------


def _ua_reference(rng, pool):
    items = [agent for agent, _ in pool]
    return items[int(rng.choice(len(items), p=_from_weights_p([w for _, w in pool])))]


@pytest.mark.parametrize("pool", UA_POOLS.values(), ids=UA_POOLS.keys())
def test_pick_matches_parent_formula(pool):
    for seed in range(30):
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(30):
            assert ua.pick(ours, pool) == _ua_reference(theirs, pool)


def test_blocklist_feed_matches_parent_formula():
    items = [c for c, _ in PAPER_CATEGORY_SHARES]
    p = _from_weights_p([w for _, w in PAPER_CATEGORY_SHARES])
    for seed in range(30):
        feed, theirs = FeedGenerator(make_rng(seed)), make_rng(seed)
        for _ in range(30):
            expected = items[int(theirs.choice(len(items), p=p))]
            assert feed.assign_category(None) == expected


def test_corpus_and_trace_tlds_match_parent_formula():
    corpus_p = _from_weights_p(corpus._TLD_WEIGHTS)
    trace_items = [t for t, _ in trace.TLD_WEIGHTS]
    trace_p = _from_weights_p([w for _, w in trace.TLD_WEIGHTS])
    generator = trace.NxdomainTraceGenerator(seed=0)
    for seed in range(30):
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(30):
            tld = corpus._TLD_POOL[int(theirs.choice(len(corpus._TLD_POOL), p=corpus_p))]
            label = corpus.benign_label(theirs)
            assert str(corpus.benign_domain(ours)) == f"{label}.{tld}"
            assert generator._draw_tld(ours) == trace_items[
                int(theirs.choice(len(trace_items), p=trace_p))
            ]


def test_botnet_victims_and_proxies_match_parent_formula():
    countries = list(botnet.COUNTRY_CODES)
    weights = [w for *_, w in countries]
    names = [m for m, _ in botnet.PHONE_MODELS]
    model_weights = np.asarray([w for _, w in botnet.PHONE_MODELS])
    pools = [n for n, _ in botnet.PROXY_POOLS]
    proxy_weights = np.asarray([w for _, w in botnet.PROXY_POOLS])
    for seed in range(30):
        # Twin botnets in the same state: one draws through the
        # tables, the other replays the parent's choice(p=...) calls.
        bot = botnet.GpclickBotnet(make_rng(seed))
        twin = botnet.GpclickBotnet(make_rng(seed))
        theirs = twin.rng
        for _ in range(30):
            p = np.asarray(weights) / sum(weights)
            country, code, continent, _ = countries[int(theirs.choice(len(p), p=p))]
            phone = f"{code}{int(theirs.integers(1_000_000_000, 9_999_999_999))}"
            model = names[
                int(theirs.choice(len(names), p=model_weights / model_weights.sum()))
            ]
            assert bot._victim() == (country, phone, model, continent)
            pool = pools[
                int(theirs.choice(len(pools), p=proxy_weights / proxy_weights.sum()))
            ]
            assert bot._source_ip() == twin._pools[pool].address()

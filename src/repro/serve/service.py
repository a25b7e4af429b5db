"""Query dicts in, answers out: the transport-independent serving core.

Queries are plain JSON-serialisable dictionaries -- ``{"type": "range_count",
"lower": 0.1, "upper": 0.4}`` -- so the HTTP endpoint, the batch CLI and
in-process callers all speak the same language and, crucially, produce
*byte-identical* answers: every transport funnels through
:func:`answer_query`, which delegates to the same
:mod:`repro.queries` engines a Python caller would use directly.

The supported query types (see :mod:`repro.queries.support`):

========== =============================== ==============================
type       parameters                      domains
========== =============================== ==============================
mass       lower, upper                    all
range_count lower, upper                   all
cdf        point                           interval, ipv4, discrete
quantile   q (scalar or list)              interval, ipv4, discrete
marginal   axis, bins (default 32)         hypercube, geo
========== =============================== ==============================

Example:
    >>> from repro.serve.service import answer_query
    >>> from repro.api.release import Release
    >>> from repro.baselines.pmm import build_exact_tree
    >>> from repro.core.sampler import SyntheticDataGenerator
    >>> from repro.domain.interval import UnitInterval
    >>> tree = build_exact_tree([0.1, 0.3, 0.6, 0.9], UnitInterval(), depth=2)
    >>> release = Release(SyntheticDataGenerator(tree, UnitInterval()))
    >>> answer_query(release, {"type": "mass", "lower": 0.0, "upper": 0.5})
    0.5
    >>> answer_query(release, {"type": "quantile", "q": 0.5})
    0.5
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from repro.api.release import Release
from repro.queries.support import QUERY_TYPES, supported_queries
from repro.serve.cache import QueryCache
from repro.serve.store import ReleaseStore

__all__ = ["QueryService", "answer_query", "evaluate_many", "normalize_query", "query_key"]

_UNSET = object()


def _normalise_bound(value):
    """Canonicalise one query bound: lists, tuples and one-dimensional arrays
    become lists of floats and real numbers (numpy's included) become
    floats, so int/float spellings of one query share one cache entry.
    Booleans stay booleans, so ``true`` and ``1.0`` key apart, and numpy's
    become Python's.  Strings pass through (the engines parse IPv4 dotted
    quads themselves)."""
    if isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1):
        return [float(component) for component in value]
    # ``float`` and ``int`` first: they match without the slower ABC check.
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def normalize_query(release: Release, query: dict) -> dict:
    """Validate a raw query dict against a release and canonicalise it.

    The canonical form is what the engines are called with and what the
    memoizing cache keys on, so two spellings of the same query (``0.5`` vs
    ``0.50``, list vs tuple bounds) share one cache entry.  Raises
    ``ValueError`` on unknown/unsupported types and missing parameters.
    """
    if not isinstance(query, dict):
        raise ValueError(f"a query must be a JSON object, got {type(query).__name__}")
    query_type = query.get("type")
    if query_type not in QUERY_TYPES:
        raise ValueError(
            f"unknown query type {query_type!r}; supported types: {', '.join(QUERY_TYPES)}"
        )
    allowed = supported_queries(release.domain)
    if query_type not in allowed:
        raise ValueError(
            f"query type {query_type!r} is not supported on "
            f"{type(release.domain).__name__}; supported: {', '.join(allowed)}"
        )

    if query_type in ("mass", "range_count"):
        missing = [key for key in ("lower", "upper") if key not in query]
        if missing:
            raise ValueError(f"{query_type} query requires {', '.join(missing)}")
        return {
            "type": query_type,
            "lower": _normalise_bound(query["lower"]),
            "upper": _normalise_bound(query["upper"]),
        }
    if query_type == "cdf":
        if "point" not in query:
            raise ValueError("cdf query requires point")
        return {"type": "cdf", "point": _normalise_bound(query["point"])}
    if query_type == "quantile":
        if "q" not in query:
            raise ValueError("quantile query requires q")
        q = query["q"]
        if isinstance(q, (list, tuple)):
            probabilities = [float(value) for value in q]
        else:
            probabilities = float(q)
        return {"type": "quantile", "q": probabilities}
    # marginal
    if "axis" not in query:
        raise ValueError("marginal query requires axis")
    return {
        "type": "marginal",
        "axis": int(query["axis"]),
        "bins": int(query.get("bins", 32)),
    }


def answer_query(release: Release, query: dict):
    """Answer one query dict on a release.

    Returns a JSON-serialisable value: a float for ``mass`` / ``range_count``
    / ``cdf`` / scalar ``quantile``, a list for vector ``quantile`` and
    ``marginal``.  This function is the single evaluation path behind the
    in-process, batch and HTTP transports.
    """
    return _evaluate_canonical(release, normalize_query(release, query))


def _evaluate_canonical(release: Release, canonical: dict):
    """Dispatch an already-canonical query to the release's engines (callers
    that normalised once -- the service's cache path, the batch runner --
    skip a second validation pass)."""
    query_type = canonical["type"]
    if query_type == "mass":
        return release.mass(canonical["lower"], canonical["upper"])
    if query_type == "range_count":
        return release.range_count(canonical["lower"], canonical["upper"])
    if query_type == "cdf":
        return release.cdf(canonical["point"])
    if query_type == "quantile":
        q = canonical["q"]
        if isinstance(q, list):
            return [_json_scalar(value) for value in release.quantiles(q)]
        return _json_scalar(release.quantile(q))
    return [float(value) for value in release.marginal(canonical["axis"], bins=canonical["bins"])]


def _json_scalar(value):
    """Collapse numpy scalars to native Python numbers for JSON transport."""
    if hasattr(value, "item"):
        return value.item()
    return value


def evaluate_many(release: Release, canonicals: list[dict]) -> list:
    """Evaluate already-canonical queries with one vectorised pass per type.

    Queries are grouped by type and handed to the release's batch engines
    (``mass_many`` / ``range_count_many`` / ``cdf_many`` / ``quantiles`` with
    every requested probability flattened into one descent), so a workload
    of N queries costs a handful of numpy passes instead of N engine calls.
    Answers are returned in input order and are byte-identical to
    :func:`_evaluate_canonical` on each query; an invalid query fails the
    whole batch, like the sequential loop it replaces.
    """
    answers: list = [None] * len(canonicals)
    groups: dict[str, list[int]] = {"mass": [], "range_count": [], "cdf": []}
    quantile_spans: list[tuple[int, int, int, bool]] = []
    probabilities: list[float] = []
    for index, canonical in enumerate(canonicals):
        query_type = canonical["type"]
        if query_type in groups:
            groups[query_type].append(index)
        elif query_type == "quantile":
            q = canonical["q"]
            start = len(probabilities)
            if isinstance(q, list):
                probabilities.extend(q)
                quantile_spans.append((index, start, len(probabilities), True))
            else:
                probabilities.append(q)
                quantile_spans.append((index, start, start + 1, False))
        else:  # marginal: rare, no batch kernel needed
            answers[index] = [
                float(value)
                for value in release.marginal(canonical["axis"], bins=canonical["bins"])
            ]
    for query_type, evaluate in (
        ("mass", release.mass_many),
        ("range_count", release.range_count_many),
    ):
        indices = groups[query_type]
        if indices:
            values = evaluate(
                [canonicals[i]["lower"] for i in indices],
                [canonicals[i]["upper"] for i in indices],
            )
            for index, value in zip(indices, values):
                answers[index] = float(value)
    if groups["cdf"]:
        values = release.cdf_many([canonicals[i]["point"] for i in groups["cdf"]])
        for index, value in zip(groups["cdf"], values):
            answers[index] = float(value)
    if quantile_spans:
        values = release.quantiles(probabilities)
        for index, start, stop, is_list in quantile_spans:
            if is_list:
                answers[index] = [_json_scalar(value) for value in values[start:stop]]
            else:
                answers[index] = _json_scalar(values[start])
    return answers


def _key_part(value):
    """A hashable stand-in for one canonical query value.

    Two values get equal parts exactly when their JSON texts are equal.
    Strings key as themselves.  Floats key by value, except that
    ``0.0 == -0.0`` and ``nan != nan``, so zeros and NaNs key by their
    text; lists key as tuples of their items' parts; anything else keys by
    its type and JSON text, so that ``true`` and ``1.0`` stay apart.
    """
    kind = type(value)
    if kind is float:
        return value if value and value == value else (float, repr(value))
    if kind is str:
        return value
    if kind is list:
        return tuple([_key_part(item) for item in value])
    return (kind, json.dumps(value, sort_keys=True))


def query_key(release_name: str, canonical_query: dict, version: int | None = None) -> tuple:
    """The cache key of a canonical query against a named release.

    The key is a tuple: the release name, the version, then one hashable
    part per value of the canonical query (whose fields
    :func:`normalize_query` puts in a fixed order per type).  Two queries
    share a key exactly when their canonical JSON texts are equal, so
    ``-0.0`` and ``0.0``, ``true`` and ``1.0``, or ``"0.25"`` and ``0.25``
    stay apart, yet no JSON is encoded for the usual float and string
    values.

    ``version`` is the snapshot version (``items_processed``) for live
    releases -- including it invalidates every memoized answer the moment the
    underlying stream advances, while static releases (version ``None``) keep
    one permanent entry per query.

    Example:
        >>> query_key("r", {"type": "cdf", "point": 0.5}, version=7)
        ('r', 7, 'cdf', 0.5)
        >>> query_key("r", {"type": "cdf", "point": -0.0}) == query_key(
        ...     "r", {"type": "cdf", "point": 0.0})
        False
    """
    return (release_name, version, *[_key_part(value) for value in canonical_query.values()])


class QueryService:
    """A :class:`ReleaseStore` fronted by a memoizing :class:`QueryCache`.

    The service resolves each request to a release (by name or by domain),
    canonicalises the query, and serves repeats from the cache; answers are
    identical to calling the engines directly because cold paths *do* call
    the engines directly.  Live releases (continual summarizers registered
    through :meth:`~repro.serve.store.ReleaseStore.register_live`) answer
    from their current snapshot and carry its ``items_processed`` in the
    cache key and the result, so memoized answers can never outlive the
    snapshot that produced them.

    Example:
        >>> from repro.serve.service import QueryService
        >>> from repro.serve.store import ReleaseStore
        >>> from repro.api.release import Release
        >>> from repro.baselines.pmm import build_exact_tree
        >>> from repro.core.sampler import SyntheticDataGenerator
        >>> from repro.domain.interval import UnitInterval
        >>> store = ReleaseStore()
        >>> tree = build_exact_tree([0.2, 0.8], UnitInterval(), depth=1)
        >>> store.add("demo", Release(SyntheticDataGenerator(tree, UnitInterval())))
        >>> service = QueryService(store)
        >>> result = service.answer({"type": "mass", "lower": 0.0, "upper": 0.5})
        >>> result["answer"], result["release"], result["cached"]
        (0.5, 'demo', False)
        >>> service.answer({"type": "mass", "lower": 0.0, "upper": 0.5})["cached"]
        True
    """

    def __init__(self, store: ReleaseStore, cache_size: int = 4096) -> None:
        self.store = store
        self.cache = QueryCache(maxsize=cache_size)

    def _resolve(self, release: str | None, domain: str | None) -> tuple[str, Release, int | None]:
        """The addressed name, its release and the cache version of its answers.

        When neither ``release`` nor ``domain`` is given and the store holds
        exactly one release, that release answers.  A live snapshot is
        versioned by its own ``items_processed``, so a stream advancing
        between queries can never serve a stale memoized answer (superseded
        entries age out of the LRU); a static release has version ``None``.
        Liveness comes from the same store call that returned the release,
        so a snapshot is never cached as the answer of the static release
        that replaced it.
        """
        if release is None and domain is None and len(self.store) == 1:
            release = self.store.names()[0]
        name = self.store.route(name=release, domain=domain)
        resolved, live = self.store.lookup(name)
        return name, resolved, (resolved.items_processed if live else None)

    def answer(self, query: dict, release: str | None = None, domain: str | None = None) -> dict:
        """Answer one query, routing to a release by name or domain.

        When neither ``release`` nor ``domain`` is given and the store holds
        exactly one release, that release answers.  The result dict carries
        the resolved release name, the canonical query, the answer and
        whether it was served from the cache.
        """
        name, resolved, version = self._resolve(release, domain)
        canonical = normalize_query(resolved, query)
        key = query_key(name, canonical, version=version)
        cached = True

        def compute():
            nonlocal cached
            cached = False
            return _evaluate_canonical(resolved, canonical)

        answer = self.cache.lookup(key, compute)
        result = {"release": name, "query": canonical, "answer": answer, "cached": cached}
        if version is not None:
            result["items_processed"] = version
        return result

    def answer_many(self, queries, release: str | None = None, domain: str | None = None) -> list[dict]:
        """:meth:`answer` over a batch, resolved and versioned exactly once.

        The release is resolved a single time for the whole batch -- for a
        live release that means one snapshot and one ``items_processed``
        version across every result, where the per-query loop this replaces
        could silently mix snapshot versions mid-batch while ingestion
        advanced.  Queries already memoized come from the cache; the misses
        are evaluated together through :func:`evaluate_many` (one vectorised
        pass per query type) and stored.  The batch takes the cache's lock
        twice, once to read every key and once to store every miss, with
        the hit and miss counts and LRU order of one ``get`` per query and
        one ``put`` per miss.  Within-batch duplicates of a cold query are
        evaluated in the same pass and both report ``cached: False``.
        """
        queries = list(queries)
        if not queries:
            return []
        name, resolved, version = self._resolve(release, domain)
        canonicals = [normalize_query(resolved, query) for query in queries]
        keys = [query_key(name, canonical, version=version) for canonical in canonicals]

        answers = self.cache.get_many(keys, _UNSET)
        cached_flags = [answer is not _UNSET for answer in answers]
        misses = [index for index, cached in enumerate(cached_flags) if not cached]
        if misses:
            computed = evaluate_many(resolved, [canonicals[i] for i in misses])
            for index, value in zip(misses, computed):
                answers[index] = value
            self.cache.put_many([(keys[index], answers[index]) for index in misses])

        results = []
        for index in range(len(queries)):
            result = {
                "release": name,
                "query": canonicals[index],
                "answer": answers[index],
                "cached": cached_flags[index],
            }
            if version is not None:
                result["items_processed"] = version
            results.append(result)
        return results

    def stats(self) -> dict:
        """Cache statistics plus the number of releases served."""
        return {"releases": len(self.store), "cache": self.cache.stats()}

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"QueryService(store={self.store!r}, cache={self.cache!r})"

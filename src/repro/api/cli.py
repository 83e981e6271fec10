"""The ``dust`` / ``python -m repro`` command line.

Every subcommand drives the system through the :class:`~repro.api.facade.Discovery`
facade and a :class:`~repro.api.config.DiscoveryConfig` (``--config`` JSON
file, defaults otherwise)::

    dust info
    dust search    --config cfg.json --benchmark ugen --query 0 --k 10
    dust diversify --benchmark ugen --methods dust gmc --k 10
    dust evaluate  --benchmark ugen --k 10
    dust warm      --store .cache/index-store --benchmark ugen --backends overlap d3l
    dust warm      --store .cache/index-store --benchmark ugen --shards 4
    dust serve     --config cfg.json --benchmark ugen --port 0 --event-log events.jsonl
    dust ingest    --url http://127.0.0.1:8765 --events stream.jsonl

``search`` prints one :class:`~repro.api.facade.ResultSet` as the versioned
result payload of :mod:`repro.api.schema` (``--json`` guarantees nothing else
reaches stdout); ``diversify``/``evaluate`` print diversity scores of the
registered diversification methods; ``warm`` pre-builds and persists search
indexes (the CI bench-smoke job runs it twice to prove the store's load
path); ``serve`` runs the resident discovery server
(:class:`~repro.serving.server.DiscoveryServer`) until SIGTERM; ``ingest``
streams JSONL table mutation events into a running server's
``POST /v1/ingest`` in bounded chunks.  ``search``, ``warm`` and ``serve``
share one config-override flag set
(:func:`config_override_parent`): with ``--shards N`` the lake is
partitioned and the shard indexes are built (in forked workers when the
build is big enough to amortise them) and persisted per shard — ``warm``
writes exactly the entries ``serve`` reads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from repro.api.config import DiscoveryConfig
from repro.api.facade import Discovery, build_benchmark
from repro.api.registry import (
    available_benchmarks,
    available_diversifiers,
    available_searchers,
    registry_catalog,
)
from repro.utils.errors import ReproError


def _add_config_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="JSON_FILE",
        default=None,
        help="DiscoveryConfig JSON file (defaults to the built-in configuration)",
    )


def _add_benchmark_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmark",
        choices=available_benchmarks(),
        default="ugen",
        help="generated benchmark lake to run against (default: %(default)s)",
    )
    parser.add_argument("--num-queries", type=int, default=2)
    parser.add_argument("--seed", type=int, default=3)


def _add_cascade_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cascade-mode",
        choices=("exact", "approx"),
        default=None,
        help="enable the prefilter stage in this mode (exact mode is "
        "bit-identical to the bare backend; approx prunes to a candidate "
        "budget before exact scoring)",
    )
    parser.add_argument(
        "--cascade-budget",
        type=int,
        default=None,
        help="cascade candidate budget: how many prefilter candidates survive "
        "to exact scoring (default: config value or 32)",
    )


def _add_sharding_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="override sharding.num_shards: partition the lake into N shards, "
        "build one index per shard and serve by fan-out/merge "
        "(default: config value or 1)",
    )


def config_override_parent() -> argparse.ArgumentParser:
    """The one shared config-override flag set of ``search``/``warm``/``serve``.

    Every subcommand that builds a deployment inherits this parent, so the
    identical ``--config``/``--cascade-*``/``--shards`` flags mean the
    identical thing everywhere —
    :func:`_load_config` folds them into the :class:`DiscoveryConfig` in one
    place.
    """
    parent = argparse.ArgumentParser(add_help=False)
    _add_config_option(parent)
    _add_cascade_options(parent)
    _add_sharding_options(parent)
    return parent


def _cascade_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if getattr(args, "cascade_mode", None) is not None:
        overrides["mode"] = args.cascade_mode
    if getattr(args, "cascade_budget", None) is not None:
        overrides["candidate_budget"] = args.cascade_budget
    return overrides


def _sharding_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if getattr(args, "shards", None) is not None:
        overrides["num_shards"] = args.shards
    return overrides


def _load_config(args: argparse.Namespace) -> DiscoveryConfig:
    if getattr(args, "config", None):
        config = DiscoveryConfig.from_file(args.config)
    else:
        config = DiscoveryConfig()
    cascade = _cascade_overrides(args)
    sharding = _sharding_overrides(args)
    if cascade or sharding:
        payload = config.to_dict()
        if cascade:
            payload["cascade"] = {**(payload.get("cascade") or {}), **cascade}
        if sharding:
            payload["sharding"] = {**(payload.get("sharding") or {}), **sharding}
        config = DiscoveryConfig.from_dict(payload)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dust",
        description="DUST diverse unionable tuple search (python -m repro).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # search/warm/serve share one config-override flag set (see
    # config_override_parent); tests assert the three stay identical.
    overrides = config_override_parent()

    info = subparsers.add_parser(
        "info", help="show version, registered components and the active config"
    )
    _add_config_option(info)
    info.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    search = subparsers.add_parser(
        "search",
        parents=[overrides],
        help="run Algorithm 1 end to end on a generated benchmark lake",
    )
    _add_benchmark_options(search)
    search.add_argument("--query", type=int, default=0, help="query table index")
    search.add_argument("--k", type=int, default=None, help="override the config's k")
    search.add_argument(
        "--backend", choices=available_searchers(), default=None,
        help="override the config's search backend",
    )
    search.add_argument(
        "--output", metavar="FILE", default=None, help="write the result JSON here"
    )
    search.add_argument(
        "--json",
        action="store_true",
        help="print exactly the versioned result payload (result schema v1, "
        "byte-identical to the server's /v1/search response body) and "
        "nothing else on stdout",
    )
    search.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing breakdown (search / embedding / "
        "alignment / diversification) to stderr",
    )

    diversify = subparsers.add_parser(
        "diversify", help="run diversification methods on one benchmark query"
    )
    _add_config_option(diversify)
    _add_benchmark_options(diversify)
    diversify.add_argument("--query", type=int, default=0, help="query table index")
    diversify.add_argument("--k", type=int, default=10)
    diversify.add_argument(
        "--methods", nargs="+", choices=available_diversifiers(), default=["dust", "gmc", "maxmin"],
    )

    evaluate = subparsers.add_parser(
        "evaluate", help="score diversification methods over every benchmark query"
    )
    _add_config_option(evaluate)
    _add_benchmark_options(evaluate)
    evaluate.add_argument("--k", type=int, default=10)
    evaluate.add_argument(
        "--methods", nargs="+", choices=available_diversifiers(), default=["dust", "gmc", "maxmin", "random"],
    )

    warm = subparsers.add_parser(
        "warm",
        parents=[overrides],
        help="pre-build and persist search indexes for a benchmark lake",
    )
    _add_benchmark_options(warm)
    warm.add_argument(
        "--store",
        default=".cache/index-store",
        help="index store root directory (default: %(default)s)",
    )
    warm.add_argument(
        "--backends",
        nargs="+",
        choices=available_searchers(),
        default=["overlap", "d3l", "santos"],
        help="search backends to warm (default: %(default)s)",
    )

    serve = subparsers.add_parser(
        "serve",
        parents=[overrides],
        help="run the resident discovery server over a benchmark lake "
        "(versioned HTTP/JSON API with background maintenance)",
    )
    _add_benchmark_options(serve)
    serve.add_argument(
        "--host", default=None, help="bind address (default: config or 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port, 0 for ephemeral (default: config or 8765)",
    )
    serve.add_argument(
        "--event-log",
        metavar="JSONL_FILE",
        default=None,
        help="append one JSON event per served/rejected query to this file",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission-control bound on concurrent searches "
        "(default: config or 4)",
    )
    serve.add_argument(
        "--no-maintenance",
        action="store_true",
        help="disable the background maintenance thread (re-sync/pre-warm/"
        "evict still available on demand via POST /v1/refresh)",
    )

    ingest = subparsers.add_parser(
        "ingest",
        help="stream table add/replace/remove events from a JSONL file (or "
        "stdin) into a running discovery server's POST /v1/ingest",
    )
    ingest.add_argument(
        "--url",
        required=True,
        help="base URL of the running server, e.g. http://127.0.0.1:8765",
    )
    ingest.add_argument(
        "--events",
        metavar="JSONL_FILE",
        default="-",
        help="event stream: one JSON event per line "
        '({"op": "add"|"replace"|"remove", "name": ..., "table": {...}}); '
        "'-' reads stdin (default: %(default)s)",
    )
    ingest.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="events per POST request (default: %(default)s)",
    )
    ingest.add_argument(
        "--no-flush",
        action="store_true",
        help="don't force a flush on the final chunk; leave batching to the "
        "server's micro-batch bounds and maintenance loop",
    )
    ingest.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout in seconds (default: %(default)s)",
    )
    return parser


# ---------------------------------------------------------------- subcommands
def _cmd_info(args: argparse.Namespace) -> int:
    from repro import __version__

    config = _load_config(args)
    catalog = registry_catalog()
    serving = config.serving or {}
    store_stats = None
    if serving.get("store_dir"):
        from repro.serving.store import IndexStore

        store_stats = IndexStore(serving["store_dir"]).stats()
    payload = {
        "version": __version__,
        **catalog,
        "config": config.to_dict(),
        "config_fingerprint": config.fingerprint(),
        "store": store_stats,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"DUST reproduction v{__version__}")
    for kind in catalog:
        print(f"  {kind.replace('_', ' '):<16}: {', '.join(payload[kind])}")
    print(f"  config fingerprint: {payload['config_fingerprint'][:16]}")
    if store_stats is not None:
        print(
            f"  index store       : {store_stats['location']} "
            f"({store_stats['entries']} entries, "
            f"{store_stats['payload_bytes']} payload bytes)"
        )
    print(f"  active config     : {json.dumps(payload['config'], sort_keys=True)}")
    return 0


def _query_table(benchmark, index: int):
    queries = benchmark.query_tables
    if not 0 <= index < len(queries):
        raise ReproError(
            f"query index {index} out of range; benchmark has {len(queries)} query tables"
        )
    return queries[index]


def _cmd_search(args: argparse.Namespace) -> int:
    config = _load_config(args)
    benchmark = build_benchmark(args.benchmark, num_queries=args.num_queries, seed=args.seed)
    query = _query_table(benchmark, args.query)
    with Discovery.from_config(config).attach(benchmark.lake) as discovery:
        fluent = discovery.query(query)
        if args.k is not None:
            fluent = fluent.k(args.k)
        if args.backend is not None:
            fluent = fluent.backend(args.backend)
        result = fluent.run()
        # The versioned result payload (repro.api.schema): the same bytes the
        # resident server returns from POST /v1/search for this query.
        text = result.to_json()
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            if args.json:
                print(text)
            else:
                print(f"wrote {args.output} ({len(result)} selected tuples)")
        else:
            print(text)
        if args.profile:
            _print_search_profile(result)
    return 0


def _print_search_profile(result) -> None:
    """Per-stage timing breakdown of one ``search`` run (to stderr).

    The pipeline records search/embedding/alignment/diversification wall
    times; search is the real step-1 time through the result cache, hit or
    miss.
    """
    print("per-stage timing breakdown:", file=sys.stderr)
    for stage in ("search", "embedding", "alignment", "diversification", "total"):
        if stage in result.timings:
            print(
                f"  {stage:<16} {result.timings[stage] * 1000.0:>10.2f} ms",
                file=sys.stderr,
            )


def _prepared_workloads(args: argparse.Namespace, discovery: Discovery, *, single_query: bool):
    from repro.evaluation import prepare_query_workload, prepare_query_workloads

    benchmark = build_benchmark(args.benchmark, num_queries=args.num_queries, seed=args.seed)
    encoder = discovery.tuple_encoder
    if single_query:
        query = _query_table(benchmark, args.query)
        return {query.name: prepare_query_workload(benchmark, query, encoder)}
    return prepare_query_workloads(benchmark, benchmark.query_tables, encoder)


def _method_instances(names: Sequence[str], discovery: Discovery) -> dict:
    # discovery.diversifier() centralises the wiring rules (e.g. "dust"
    # inherits the config's dust section).
    return {name: discovery.diversifier(name) for name in names}


def _cmd_diversify(args: argparse.Namespace) -> int:
    from repro.core.metrics import diversity_scores

    discovery = Discovery.from_config(_load_config(args))
    workloads = _prepared_workloads(args, discovery, single_query=True)
    (query_name, workload), = workloads.items()
    k = min(args.k, workload.num_candidates)
    print(
        f"query {query_name}: {workload.num_candidates} unionable candidate "
        f"tuples, k={k}"
    )
    print(f"{'method':<10} {'avg_div':>8} {'min_div':>8} {'time_s':>8}")
    from repro.diversify.base import DiversificationRequest
    from repro.core.diversifier import DustDiversifier

    for name, method in _method_instances(args.methods, discovery).items():
        request = DiversificationRequest(
            query_embeddings=workload.query_embeddings,
            candidate_embeddings=workload.candidate_embeddings,
            k=k,
            context=workload.distance_context(),
        )
        start = time.perf_counter()
        if isinstance(method, DustDiversifier):
            selection = method.select(request, table_ids=workload.table_ids)
        else:
            selection = method.select(request)
        elapsed = time.perf_counter() - start
        scores = diversity_scores(
            workload.query_embeddings,
            workload.candidate_embeddings[selection],
            context=workload.distance_context(),
            selected_indices=selection,
        )
        print(
            f"{name:<10} {scores['average_diversity']:>8.3f} "
            f"{scores['min_diversity']:>8.3f} {elapsed:>8.3f}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation import count_wins, evaluate_diversifiers_on_benchmark

    discovery = Discovery.from_config(_load_config(args))
    workloads = _prepared_workloads(args, discovery, single_query=False)
    methods = _method_instances(args.methods, discovery)
    outcomes = evaluate_diversifiers_on_benchmark(workloads, methods, k=args.k)
    wins = count_wins(outcomes)
    print(
        f"{args.benchmark}: {len(workloads)} queries, k={args.k}, "
        f"methods={sorted(methods)}"
    )
    print(f"{'method':<10} {'avg_wins':>8} {'min_wins':>8} {'mean_s':>8}")
    for name, outcome in outcomes.items():
        method_wins = wins.get(name, {})
        print(
            f"{name:<10} {method_wins.get('average_wins', 0):>8.0f} "
            f"{method_wins.get('min_wins', 0):>8.0f} {outcome.mean_time:>8.3f}"
        )
    return 0


def _cmd_warm(args: argparse.Namespace) -> int:
    # The shared override parent folds --shards/--cascade-* into
    # the config, so warm honours a --config file exactly like search/serve
    # — and builds each backend through the same Discovery facade, so it
    # writes exactly the store entries a server on this config reads.
    config = _load_config(args)
    payload = config.to_dict()
    payload["serving"] = {**(payload.get("serving") or {}), "store_dir": args.store}
    benchmark = build_benchmark(args.benchmark, num_queries=args.num_queries, seed=args.seed)
    lake = benchmark.lake
    sharding = config.sharding or {}
    print(
        f"warming {len(args.backends)} backend(s) over {args.benchmark!r} "
        f"({lake.num_tables} tables, {lake.num_rows} rows), "
        f"store={args.store}"
        + (
            f", shards={sharding['num_shards']}"
            if sharding.get("num_shards", 1) > 1
            else ""
        )
        + (f", cascade={config.cascade['mode']}" if config.cascade else "")
    )
    for backend in args.backends:
        if backend == "oracle":
            spec = {"name": backend, "params": {"ground_truth": benchmark.ground_truth}}
        elif backend == config.searcher.name:
            spec = payload["searcher"]  # keeps the config's parameters
        else:
            spec = {"name": backend}
        discovery = Discovery.from_config({**payload, "searcher": spec})
        before = discovery.store.stats()
        start = time.perf_counter()
        with discovery.attach(lake):
            elapsed = time.perf_counter() - start
            after = discovery.store.stats()
        print(
            f"  {backend:>8}: {'loaded' if after == before else 'built'} in "
            f"{elapsed:.3f}s ({after['entries']} store entries)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.server import DiscoveryServer, run_server

    config = _load_config(args)
    benchmark = build_benchmark(args.benchmark, num_queries=args.num_queries, seed=args.seed)
    server = DiscoveryServer.from_config(
        config,
        benchmark.lake,
        queries=benchmark.query_tables,
        host=args.host,
        port=args.port,
        event_log=args.event_log,
        max_inflight=args.max_inflight,
        maintenance=False if args.no_maintenance else None,
    )
    return run_server(server)


def _post_ingest(url: str, payload: dict, timeout: float) -> dict:
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url.rstrip("/") + "/v1/ingest",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", errors="replace")
        try:
            detail = json.loads(detail).get("error", detail)
        except (json.JSONDecodeError, AttributeError):
            pass
        raise ReproError(f"ingest POST failed ({exc.code}): {detail}") from exc
    except urllib.error.URLError as exc:
        raise ReproError(f"cannot reach {url}: {exc.reason}") from exc


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.ingest.events import events_from_jsonl

    if args.batch_size < 1:
        raise ReproError(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.events == "-":
        events = list(events_from_jsonl(sys.stdin))
    else:
        with open(args.events) as handle:
            events = list(events_from_jsonl(handle))
    if not events:
        print("no events to send")
        return 0
    chunks = [
        events[start : start + args.batch_size]
        for start in range(0, len(events), args.batch_size)
    ]
    sent = accepted = batches_applied = 0
    response: dict = {}
    for index, chunk in enumerate(chunks):
        final = index == len(chunks) - 1
        response = _post_ingest(
            args.url,
            {
                "events": [event.to_payload() for event in chunk],
                "flush": final and not args.no_flush,
            },
            args.timeout,
        )
        sent += len(chunk)
        accepted += response.get("accepted", 0)
        batches_applied += response.get("batches_applied", 0)
    print(
        f"sent {sent} event(s) in {len(chunks)} request(s): "
        f"{accepted} accepted after netting, "
        f"{batches_applied} micro-batch(es) applied, "
        f"{response.get('pending_events', 0)} still pending, "
        f"lake version {response.get('lake_version')}"
    )
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "search": _cmd_search,
    "diversify": _cmd_diversify,
    "evaluate": _cmd_evaluate,
    "warm": _cmd_warm,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

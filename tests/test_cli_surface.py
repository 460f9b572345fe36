"""The CLI's option surface, pinned.

Every subcommand's options — their strings, action, default, type and
choices — against a literal table, so a refactor of how ``cli.py``
builds its configs cannot add, drop or re-default a flag unnoticed.
"""

import argparse

from repro.cli import build_parser

_ACTIONS = {"_StoreAction": "store", "_StoreTrueAction": "store_true"}

# (option strings, action, default, type, choices)
SURFACE = {
    "generate": [
        ("--preset", "store", "jan2020", None, ("jan2020", "oct2016", "multilayer")),
        ("--seed", "store", 2020, "int", None),
        ("--scale", "store", 1.0, "float", None),
        ("--out", "store", None, None, None),
        ("--truth", "store", None, None, None),
    ],
    "recommend": [
        ("--input", "store", None, None, None),
    ],
    "detect": [
        ("--input", "store", None, None, None),
        ("--delta1", "store", 0, "int", None),
        ("--delta2", "store", 60, "int", None),
        ("--cutoff", "store", 25, "int", None),
        ("--buckets", "store", None, "int", None),
        ("--executor", "store", "serial", None, ("serial", "parallel")),
        ("--workers", "store", 0, "int", None),
        ("--no-filter", "store_true", False, None, None),
        ("--no-hypergraph", "store_true", False, None, None),
        ("--truth", "store", None, None, None),
        ("--export-dot", "store", None, None, None),
        ("--report", "store", None, None, None),
        ("--top", "store", 15, "int", None),
        ("--skip-malformed", "store_true", False, None, None),
        ("--quarantine", "store", None, None, None),
        ("--layers", "store", None, None, None),
        ("--layer-weights", "store", None, None, None),
    ],
    "figures": [
        ("--input", "store", None, None, None),
        ("--delta1", "store", 0, "int", None),
        ("--delta2", "store", 60, "int", None),
        ("--cutoff", "store", 10, "int", None),
        ("--skip-malformed", "store_true", False, None, None),
        ("--quarantine", "store", None, None, None),
    ],
    "verify": [
        ("--seed", "store", 0, "int", None),
        ("--preset", "store", "oct2016", None, ("jan2020", "oct2016")),
        ("--scale", "store", 0.05, "float", None),
        ("--delta1", "store", 0, "int", None),
        ("--delta2", "store", 60, "int", None),
        ("--cutoff", "store", 5, "int", None),
        ("--bucket-width", "store", None, "int", None),
        ("--executor", "store", "serial", None, ("serial", "parallel")),
        ("--workers", "store", 2, "int", None),
        ("--no-shrink", "store_true", False, None, None),
        ("--chaos", "store_true", False, None, None),
        ("--chaos-backend", "store", "mp", None, ("mp", "serial")),
        ("--chaos-ranks", "store", 2, "int", None),
        ("--chaos-deadline", "store", 30.0, "float", None),
        ("--online", "store_true", False, None, None),
        ("--steps", "store", 60, "int", None),
        ("--check-every", "store", 10, "int", None),
        ("--sharded", "store_true", False, None, None),
        ("--shard-counts", "store", "1,2,4", None, None),
        ("--layers", "store_true", False, None, None),
    ],
    "serve": [
        ("--input", "store", None, None, None),
        ("--delta1", "store", 0, "int", None),
        ("--delta2", "store", 60, "int", None),
        ("--cutoff", "store", 25, "int", None),
        ("--horizon", "store", 86400, "int", None),
        ("--lateness", "store", 0, "int", None),
        ("--batch-size", "store", 512, "int", None),
        ("--queue-capacity", "store", 65536, "int", None),
        ("--queue-policy", "store", "reject", None,
         ("reject", "drop-oldest", "drop-newest")),
        ("--top", "store", 10, "int", None),
        ("--rank-by", "store", "t", None, ("t", "c", "min_weight")),
        ("--metrics-every", "store", 50, "int", None),
        ("--max-events", "store", None, "int", None),
        ("--no-filter", "store_true", False, None, None),
        ("--no-hypergraph", "store_true", False, None, None),
        ("--status-json", "store", None, None, None),
        ("--durable", "store", None, None, None),
        ("--fsync", "store", "interval", None, ("always", "interval", "off")),
        ("--fsync-interval", "store", 32, "int", None),
        ("--snapshot-every", "store", 256, "int", None),
        ("--keep-snapshots", "store", 3, "int", None),
        ("--wal-segment-bytes", "store", 4194304, "int", None),
        ("--supervise", "store_true", False, None, None),
        ("--heartbeat-timeout", "store", 30.0, "float", None),
        ("--max-restarts", "store", 5, "int", None),
        ("--restart-window", "store", 60.0, "float", None),
        ("--backoff-base", "store", 0.1, "float", None),
        ("--backoff-cap", "store", 5.0, "float", None),
        ("--shards", "store", 1, "int", None),
        ("--http", "store", None, "int", None),
        ("--http-host", "store", "127.0.0.1", None, None),
        ("--linger", "store_true", False, None, None),
    ],
}


def _surface(parser: argparse.ArgumentParser) -> dict:
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    table = {}
    for name, command in sub.choices.items():
        table[name] = [
            (
                " ".join(a.option_strings),
                _ACTIONS.get(type(a).__name__, type(a).__name__),
                a.default,
                getattr(a.type, "__name__", None),
                tuple(a.choices) if a.choices else None,
            )
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        ]
    return table


def test_every_subcommand_surface_is_pinned():
    got = _surface(build_parser())
    assert list(got) == list(SURFACE)
    for name, options in SURFACE.items():
        assert got[name] == options, name

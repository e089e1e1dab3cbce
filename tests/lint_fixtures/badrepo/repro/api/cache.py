"""Seeded violations for the cache-key rules (never imported)."""

import json


def config_hash(payload):
    return json.dumps(payload, sort_keys=True)


LATENCY_SCALE = {1.5: "slow", 2.0: "slower"}  # float-dict-key (x2)


def tweak(table):
    table[0.5] = "half"  # float-dict-key (subscript store)
    return table

"""Clean counterparts of the cache-key fixtures (never imported)."""

import json


def config_hash(payload):
    return json.dumps(payload, sort_keys=True)


LATENCY_SCALE = {"1.5": "slow", "2.0": "slower"}  # string keys


def tweak(table):
    table["0.5"] = "half"
    return table

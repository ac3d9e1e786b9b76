"""The labelers' outputs, pinned bit for bit.

One sha256 covers, for every input in turn, the ``repr`` of the labeling's
assignment items in insertion order and of its ``(event, where)`` records.
A change that alters any output, even only the order in which labels are
assigned, must update ``DIGEST`` and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from test_delta3_surgery import join_leaf, tight_block
from test_delta4 import (
    CHAIN_CASE_HOSTS,
    _bridged_hexagons,
    _capped_polygon,
    chain_case_host,
)

from outerlabel import generators as gen
from outerlabel.delta3 import Diagnostics
from outerlabel.pipeline import label_outerplanar

ROOT = Path(__file__).resolve().parents[1]
DIGEST = "010bf50a57500fe7b758146578eca58d57e0e6847cbe3eb818037afaf13b5ea6"


def _inputs():
    for delta in (3, 4):
        for entry in gen.load_manifest(ROOT / "corpus" / f"delta{delta}_manifest.json"):
            yield gen.corpus_graph(entry)
    yield _capped_polygon(96, 4, "one-recognition")
    yield gen.gen_strip(120)
    yield _bridged_hexagons(16)
    yield gen.gen_pentagon_leaves(24)  # every leaf reattached across a chord
    yield gen.gen_sun(12)  # one ring of ears
    yield gen.gen_sun_necklace(6)  # one closed chain per copy
    # a far side reattached by its boundary walk, then one by a junction patch
    yield gen.gen_glued_outerplanar(32, 12, {"max_degree": 3})
    yield gen.gen_glued_outerplanar(78, 6718, {"max_degree": 3})
    # one tight-gap leaf whose far ends merge, attached by the "tight-gap fan"
    # row, then by the "tight-gap low-bridge ends, even path" row
    leaf, v_c = tight_block(4, 1, 1, 1)
    yield join_leaf(leaf, v_c, gen.gen_glued_outerplanar(9, 1, {"max_degree": 3}), 2)
    yield join_leaf(leaf, v_c, gen.gen_glued_outerplanar(10, 17, {"max_degree": 3}), 3)
    # chain steps that end in template cases 2, 3 and 4
    for case_id in sorted(CHAIN_CASE_HOSTS):
        yield chain_case_host(case_id)


def test_outputs_match_pinned_digest():
    h = hashlib.sha256()
    for g in _inputs():
        diag = Diagnostics()
        f = label_outerplanar(g, diag=diag)
        h.update(repr(list(f.assignment.items())).encode())
        h.update(repr([(r.get("event"), r.get("where")) for r in diag.records]).encode())
    assert h.hexdigest() == DIGEST

"""Span-6 labelings for outerplanar graphs of maximum degree 4.

The degree-4 step function for ``delta3.reduce_and_extend`` labels a host
directly or reduces it by one rule.  A host comes with its embedding, and
each rule removes what it drops from that embedding in place
(``OuterplanarEmbedding.remove``), so no host is recognized again.  Hosts
of maximum degree 3 or less, and hosts with a pendant, take the degree-3
step (``delta3.degree3_step``, handed the extreme degrees this step read)
in the same driver pass, and the driver gives each finish rule its own
host's range, Δ+2: 5 under a host of maximum degree 3, 6 under one of 4.
Hosts containing two adjacent 2-vertices or a triangle with a 2-vertex
and a 3-vertex lose one 2-vertex, by ``delta3.vertex_step``, and come
back by ``delta3.put_back``, a rule; a
bounded search over the neighbours' elements too runs (and is logged) only
when that misses or fails its check.  The remaining hosts contain
a closed fan of triangles whose interior is cut out; the chain-template
finish rule labels it by one of eight per-parity label templates and
splices it back.  Which template applies is decided by which pair of
endpoint labels the two attachment stubs leave available; reversal and the
label flip z -> 6 - z reduce the fourteen possible pairs to four canonical
cases.  The driver reaches all four: on closed chains and suns bridged
into one host, about 71 % of the chain steps are case 1, 28 % case 2, and
0.2 % and 1 % cases 3 and 4 (``tools/equality_sweep.py``'s ``chains``
group), and ``tests/test_delta4.py`` labels one host for each of cases 2-4.

All templates and their subcase patches are data tables keyed by spine
index patterns, so they can be audited entry by entry; the subcase ops
are run by ``delta3.run_ops``, the interpreter of the degree-3 tight-gap
rows too.  The chain finish
rule writes its template and checks the elements it changed
(``delta3.check``), with no search: a template that fails its check raises
InfeasibleTrace, and one left with an empty choice CaseFault.
``label_delta4`` runs the one full ``verify`` on the output, so the
verifier has the final word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from .delta3 import (
    CaseFault,
    Diagnostics,
    InfeasibleTrace,
    NotDelta,
    check,
    degree3_step,
    reduce_and_extend,
    run_ops,
    vertex_step,
)
# _label_span5 and label_cycle_or_path are unused here; perfbench/tracing.py
# patches these bindings
from .delta3 import _label_span5, label_cycle_or_path  # noqa: F401
from .embedding import OuterplanarEmbedding, recognize_embed
# extend_bounded and find_labeling_bounded are unused here; perfbench/tracing.py
# patches these bindings
from .exact import extend_bounded, find_labeling_bounded  # noqa: F401
from .graphs import Element, Graph, norm_edge
from .labeling import TotalLabeling, verify
from .structure import find_closed_chain
# find_configuration is unused here; perfbench/tracing.py patches this binding
from .structure import find_configuration  # noqa: F401


class NoPair(ValueError):
    """No claimed endpoint pair fits the two availability sets."""


def availability(
    f: TotalLabeling, endpoint: int, attachment: int, k: int = 6
) -> frozenset[int]:
    """Labels assignable to a pendant ``endpoint`` hanging off ``attachment``.

    Excludes the attachment's label and the three labels within distance 1
    of the connecting edge's label; at least three labels always remain.
    """
    fw = f.vertex(attachment)
    few = f.edge(endpoint, attachment)
    if fw is None or few is None:
        raise ValueError("attachment vertex/edge must be labeled")
    return availability_set(fw, few, k)


def availability_set(fw: int, few: int, k: int = 6) -> frozenset[int]:
    out = set(range(k + 1)) - {fw, few - 1, few, few + 1}
    return frozenset(out)


CLAIM_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 6), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
    (6, 0), (6, 5), (5, 4), (4, 3), (3, 2), (2, 1), (1, 0),
)


def claim_pair(l1: frozenset[int], l2: frozenset[int]) -> tuple[int, int]:
    """First claimed pair with one label in each availability set."""
    for a, b in CLAIM_PAIRS:
        if a in l1 and b in l2:
            return (a, b)
    raise NoPair(f"no claimed pair fits {sorted(l1)} x {sorted(l2)}")


CASE_TARGETS = {1: (0, 6), 2: (0, 1), 3: (1, 2), 4: (2, 3)}


@dataclass(frozen=True)
class ChainCase:
    case_id: int
    pair: tuple[int, int]  # the canonical endpoint labels
    reverse: bool
    complement: bool


def canonicalize(pair: tuple[int, int]) -> ChainCase:
    """Map a claimed pair onto one of the four canonical cases.

    Preference order: identity, spine reversal, label flip, both.  The
    transform tells the caller how to move between the found frame and the
    canonical one.
    """
    if pair not in CLAIM_PAIRS:
        raise ValueError(f"{pair} is not one of the claimed pairs")
    a, b = pair
    variants = [
        ((a, b), False, False),
        ((b, a), True, False),
        ((6 - a, 6 - b), False, True),
        ((6 - b, 6 - a), True, True),
    ]
    for target, reverse, comp in variants:
        for cid, canon in CASE_TARGETS.items():
            if target == canon:
                return ChainCase(cid, canon, reverse, comp)
    raise ValueError(f"{pair} does not reduce to a canonical case")


# -- template tables ---------------------------------------------------------
#
# Keys are spine index patterns: a vertex is "3" or "2t-1"; an edge is a
# pair of such patterns.  Blocks repeat for i = 2..k where t = 2k (even
# templates) or t = 2k+1 (odd templates).  Subcase instructions, run by
# ``delta3.run_ops`` as the degree-3 tight-gap rows are:
#
#   ("set_v", idx, label)           ("set_e", i, j, label)
#   ("choose_e", i, j, cands, excl) first label of cands not excluded;
#                                   excl tokens: "A" (left stub edge),
#                                   "B" (right stub edge), ("e", i, j)
#   ("if_e", i, j, values, ops)     run ops when edge (i, j) took a value
#
# Branches are guarded by t: ("t==2", ops), ("t>=4", ops), ("any", ops).

_CLOSING = ("e", "1", "2t+1")

TEMPLATES: dict[tuple[int, str], dict] = {
    (1, "even"): {
        "endpoints": (0, 6),
        "base_v": {"2": 6, "3": 3, "4": 0, "5": 6},
        "base_e": {("2", "3"): 1, ("1", "3"): 6, ("3", "4"): 5,
                   ("4", "5"): 4, ("3", "5"): 0},
        "block_v": {"4i-2": 1, "4i-1": 3, "4i": 0, "4i+1": 6},
        "block_e": {("4i-3", "4i-2"): 3, ("4i-2", "4i-1"): 6,
                    ("4i-3", "4i-1"): 1, ("4i-1", "4i"): 5,
                    ("4i", "4i+1"): 4, ("4i-1", "4i+1"): 0},
        "subcases": {
            ("ne", "ne"): [("any", [
                ("choose_e", "1", "2t+1", (2, 3, 4), ("A", "B")),
                ("choose_e", "1", "2", (2, 3, 4), ("A", _CLOSING)),
                ("choose_e", "2t", "2t+1", (2, 3, 4), ("B", _CLOSING)),
            ])],
            ("eq", "ne"): [("any", [
                ("set_v", "2", 1), ("set_v", "3", 2),
                ("set_e", "1", "2", 5), ("set_e", "2", "3", 6),
                ("set_e", "1", "3", 4),
                ("choose_e", "1", "2t+1", (2, 3), ("B",)),
                ("choose_e", "2t", "2t+1", (2, 3, 4), (_CLOSING, "B")),
            ])],
            ("ne", "eq"): [("any", [
                ("set_v", "2t-1", 4), ("set_v", "2t", 5),
                ("set_e", "2t-1", "2t", 0), ("set_e", "2t", "2t+1", 1),
                ("set_e", "2t-1", "2t+1", 2),
                ("choose_e", "1", "2t+1", (3, 4), ("A",)),
                ("choose_e", "1", "2", (2, 3, 4), (_CLOSING, "A")),
            ])],
            ("eq", "eq"): [
                ("t==2", [
                    ("set_v", "2", 3), ("set_v", "3", 1), ("set_v", "4", 3),
                    ("set_e", "1", "2", 5), ("set_e", "2", "3", 6),
                    ("set_e", "1", "3", 4), ("set_e", "3", "4", 5),
                    ("set_e", "4", "5", 1), ("set_e", "3", "5", 3),
                    ("set_e", "1", "5", 2),
                ]),
                ("t>=4", [
                    ("set_v", "2", 1), ("set_v", "3", 2),
                    ("set_e", "1", "2", 5), ("set_e", "2", "3", 6),
                    ("set_e", "1", "3", 4),
                    ("set_v", "2t-1", 4), ("set_v", "2t", 5),
                    ("set_e", "2t-1", "2t", 0), ("set_e", "2t", "2t+1", 1),
                    ("set_e", "2t-1", "2t+1", 2), ("set_e", "1", "2t+1", 3),
                ]),
            ],
        },
    },
    (1, "odd"): {
        "endpoints": (0, 6),
        "base_v": {"2": 6, "3": 3, "4": 0, "5": 4, "6": 0, "7": 6},
        "base_e": {("2", "3"): 0, ("1", "3"): 6, ("3", "4"): 5,
                   ("4", "5"): 2, ("3", "5"): 1, ("5", "6"): 6,
                   ("6", "7"): 4, ("5", "7"): 0},
        "block_v": {"4i": 0, "4i+1": 4, "4i+2": 0, "4i+3": 6},
        "block_e": {("4i-1", "4i"): 3, ("4i", "4i+1"): 2,
                    ("4i-1", "4i+1"): 1, ("4i+1", "4i+2"): 6,
                    ("4i+2", "4i+3"): 4, ("4i+1", "4i+3"): 0},
        "subcases": {
            ("ne", "ne"): [("any", [
                ("choose_e", "1", "2t+1", (2, 3, 4), ("A", "B")),
                ("choose_e", "1", "2", (2, 3, 4), ("A", _CLOSING)),
                ("choose_e", "2t", "2t+1", (2, 3, 4), ("B", _CLOSING)),
            ])],
            ("eq", "ne"): [("any", [
                ("set_v", "2", 2), ("set_v", "3", 6),
                ("set_e", "1", "2", 5), ("set_e", "1", "3", 4),
                ("set_e", "3", "4", 3),
                ("choose_e", "1", "2t+1", (2, 3), ("B",)),
                ("choose_e", "2t", "2t+1", (2, 3, 4), (_CLOSING, "B")),
            ])],
            ("ne", "eq"): [("any", [
                ("set_v", "2t-1", 5), ("set_v", "2t", 3),
                ("set_e", "2t-1", "2t", 0), ("set_e", "2t", "2t+1", 1),
                ("set_e", "2t-1", "2t+1", 3),
                ("choose_e", "1", "2t+1", (2, 4), ("A",)),
                ("choose_e", "1", "2", (2, 3, 4), ("A", _CLOSING)),
            ])],
            ("eq", "eq"): [("any", [
                ("set_v", "2", 2), ("set_v", "3", 6),
                ("set_e", "1", "2", 5), ("set_e", "1", "3", 4),
                ("set_e", "3", "4", 3),
                ("set_v", "2t-1", 5), ("set_v", "2t", 3),
                ("set_e", "2t-1", "2t", 0), ("set_e", "2t", "2t+1", 1),
                ("set_e", "2t-1", "2t+1", 3), ("set_e", "1", "2t+1", 2),
            ])],
        },
    },
    (2, "even"): {
        "endpoints": (0, 1),
        "base_v": {"2": 2, "3": 6, "4": 5, "5": 1},
        "base_e": {("2", "3"): 0, ("1", "3"): 2, ("3", "4"): 1,
                   ("4", "5"): 3, ("3", "5"): 4},
        "block_v": {"4i-2": 4, "4i-1": 0, "4i": 2, "4i+1": 1},
        "block_e": {("4i-3", "4i-2"): 6, ("4i-2", "4i-1"): 2,
                    ("4i-3", "4i-1"): 5, ("4i-1", "4i"): 6,
                    ("4i", "4i+1"): 4, ("4i-1", "4i+1"): 3},
        "subcases": {
            ("ne", "nb"): [
                ("t==2", "OPS_2E_PLAIN_T2"),
                ("t>=4", "OPS_2E_PLAIN_T4"),
            ],
            ("eq", "nb"): [
                ("t==2", "OPS_2E_LOW_T2"),
                ("t>=4", "OPS_2E_LOW_T4"),
            ],
            ("ne", "b3"): [
                ("t==2", "OPS_2E_PLAIN_T2"),
                ("t>=4", [
                    ("set_e", "2t-1", "2t+1", 6),
                    ("choose_e", "1", "2t+1", (4, 5), ("A",)),
                    ("choose_e", "1", "2", (4, 5, 6), (_CLOSING, "A")),
                    ("choose_e", "2t", "2t+1", (4, 5), (_CLOSING,)),
                    ("if_e", "2t", "2t+1", (4,), [
                        ("set_v", "2t", 6), ("set_e", "2t-1", "2t", 3),
                    ]),
                    ("if_e", "2t", "2t+1", (5,), [
                        ("set_e", "2t-1", "2t", 4),
                    ]),
                ]),
            ],
            ("ne", "b4"): [
                ("t==2", [
                    ("set_e", "3", "5", 3), ("set_v", "4", 3),
                    ("choose_e", "1", "5", (5, 6), ("A",)),
                    ("choose_e", "1", "2", (4, 5, 6), (_CLOSING, "A")),
                    ("choose_e", "4", "5", (5, 6), (_CLOSING,)),
                ]),
                ("t>=4", "OPS_2E_PLAIN_T4"),
            ],
            ("eq", "b3"): [
                ("t==2", "OPS_2E_LOW_T2"),
                ("t>=4", [
                    ("set_e", "1", "2", 4), ("set_e", "1", "3", 3),
                    ("set_v", "2t", 6), ("set_e", "2t-1", "2t", 3),
                    ("set_e", "2t", "2t+1", 4),
                    ("set_e", "2t-1", "2t+1", 6),
                    ("set_e", "1", "2t+1", 5),
                ]),
            ],
            ("eq", "b4"): [
                ("t==2", [
                    ("set_v", "2", 2), ("set_v", "3", 6), ("set_v", "4", 3),
                    ("set_e", "1", "2", 5), ("set_e", "2", "3", 0),
                    ("set_e", "1", "3", 4), ("set_e", "3", "4", 1),
                    ("set_e", "4", "5", 5), ("set_e", "3", "5", 3),
                    ("set_e", "1", "5", 6),
                ]),
                ("t>=4", "OPS_2E_LOW_T4"),
            ],
        },
    },
    (2, "odd"): {
        "endpoints": (0, 1),
        "base_v": {"2": 2, "3": 6, "4": 4, "5": 0, "6": 6, "7": 1},
        "base_e": {("2", "3"): 0, ("1", "3"): 2, ("3", "4"): 1,
                   ("4", "5"): 6, ("3", "5"): 4, ("5", "6"): 2,
                   ("6", "7"): 3, ("5", "7"): 5},
        "block_v": {"4i": 6, "4i+1": 0, "4i+2": 6, "4i+3": 1},
        "block_e": {("4i-1", "4i"): 4, ("4i", "4i+1"): 3,
                    ("4i-1", "4i+1"): 6, ("4i+1", "4i+2"): 2,
                    ("4i+2", "4i+3"): 3, ("4i+1", "4i+3"): 5},
        "subcases": {
            ("ne", "ne"): [("any", [
                ("choose_e", "1", "2t+1", (3, 4, 6), ("A", "B")),
                ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
                ("choose_e", "2t", "2t+1", (3, 4, 6), ("B", _CLOSING)),
                ("if_e", "2t", "2t+1", (6,), [("set_v", "2t", 4)]),
            ])],
            ("eq", "ne"): [("any", [
                ("set_e", "1", "2", 5), ("set_e", "1", "3", 3),
                ("choose_e", "1", "2t+1", (4, 6), ("B",)),
                ("choose_e", "2t", "2t+1", (3, 4, 6), (_CLOSING, "B")),
                ("if_e", "2t", "2t+1", (6,), [("set_v", "2t", 4)]),
            ])],
            ("ne", "eq"): [
                ("t==3", [
                    ("set_v", "6", 2), ("set_e", "5", "6", 5),
                    ("set_e", "5", "7", 3),
                    ("choose_e", "1", "7", (4, 6), ("A",)),
                    ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
                    ("choose_e", "6", "7", (4, 6), (_CLOSING,)),
                ]),
                ("t>=5", [
                    ("set_e", "2t-1", "2t+1", 4),
                    ("choose_e", "1", "2t+1", (3, 6), ("A",)),
                    ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
                    ("choose_e", "2t", "2t+1", (3, 6), (_CLOSING,)),
                    ("if_e", "2t", "2t+1", (6,), [("set_v", "2t", 4)]),
                ]),
            ],
            ("eq", "eq"): [
                ("t==3", [
                    ("set_e", "1", "2", 5), ("set_e", "1", "3", 3),
                    ("set_v", "6", 2), ("set_e", "5", "6", 5),
                    ("set_e", "6", "7", 6), ("set_e", "5", "7", 3),
                    ("set_e", "1", "7", 4),
                ]),
                ("t>=5", [
                    ("set_e", "1", "2", 5), ("set_e", "1", "3", 3),
                    ("set_e", "2t-1", "2t+1", 4), ("set_e", "1", "2t+1", 6),
                ]),
            ],
        },
    },
    (3, "even"): {
        "endpoints": (1, 2),
        "base_v": {"2": 0, "3": 5, "4": 3, "5": 2},
        "base_e": {("2", "3"): 2, ("1", "3"): 3, ("3", "4"): 1,
                   ("4", "5"): 6, ("3", "5"): 0},
        "block_v": {"4i-2": 0, "4i-1": 6, "4i": 0, "4i+1": 2},
        "block_e": {("4i-3", "4i-2"): 5, ("4i-2", "4i-1"): 3,
                    ("4i-3", "4i-1"): 4, ("4i-1", "4i"): 2,
                    ("4i", "4i+1"): 6, ("4i-1", "4i+1"): 0},
        "subcases": {
            ("ne", "ne"): [("any", [
                ("choose_e", "1", "2t+1", (4, 5, 6), ("A", "B")),
                ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
                ("choose_e", "2t", "2t+1", (4, 5, 6), ("B", _CLOSING)),
                ("if_e", "4", "5", (4,), [("set_v", "4", 6)]),
            ])],
            ("eq", "ne"): [("any", [
                ("set_v", "3", 6), ("set_e", "2", "3", 3),
                ("set_e", "1", "3", 4),
                ("choose_e", "1", "2t+1", (5, 6), ("B",)),
                ("choose_e", "1", "2", (5, 6), (_CLOSING,)),
                ("choose_e", "2t", "2t+1", (4, 5, 6), ("B", _CLOSING)),
                ("if_e", "4", "5", (4,), [
                    ("set_v", "4", 0), ("set_e", "3", "4", 2),
                ]),
            ])],
            ("ne", "eq"): [
                ("t==2", [
                    ("set_e", "3", "5", 4), ("set_v", "3", 6),
                    ("choose_e", "1", "5", (5, 6), ("A",)),
                    ("choose_e", "1", "2", (4, 5, 6), (_CLOSING, "A")),
                    ("choose_e", "4", "5", (5, 6), (_CLOSING,)),
                ]),
                ("t>=4", [
                    ("set_e", "2t-1", "2t+1", 5),
                    ("set_v", "2t-2", 1), ("set_v", "2t-1", 0),
                    ("choose_e", "1", "2t+1", (4, 6), ("A",)),
                    ("choose_e", "1", "2", (4, 5, 6), (_CLOSING, "A")),
                    ("choose_e", "2t", "2t+1", (4, 6), (_CLOSING,)),
                    ("if_e", "2t", "2t+1", (4,), [("set_v", "2t", 6)]),
                    ("if_e", "2t", "2t+1", (6,), [("set_v", "2t", 4)]),
                ]),
            ],
            ("eq", "eq"): [
                ("t==2", [
                    ("set_v", "2", 2), ("set_v", "3", 0), ("set_v", "4", 6),
                    ("set_e", "1", "2", 6), ("set_e", "2", "3", 5),
                    ("set_e", "1", "3", 4), ("set_e", "3", "4", 2),
                    ("set_e", "4", "5", 4), ("set_e", "3", "5", 6),
                    ("set_e", "1", "5", 5),
                ]),
                ("t>=4", [
                    ("set_e", "1", "2", 5), ("set_v", "3", 6),
                    ("set_e", "1", "3", 4),
                    ("set_v", "2t-2", 1), ("set_v", "2t-1", 0),
                    ("set_v", "2t", 6), ("set_e", "2t", "2t+1", 4),
                    ("set_e", "2t-1", "2t+1", 5), ("set_e", "1", "2t+1", 6),
                ]),
            ],
        },
    },
    (3, "odd"): {
        "endpoints": (1, 2),
        "base_v": {"2": 0, "3": 5, "4": 2, "5": 6, "6": 0, "7": 2},
        "base_e": {("2", "3"): 2, ("1", "3"): 3, ("3", "4"): 0,
                   ("4", "5"): 4, ("3", "5"): 1, ("5", "6"): 2,
                   ("6", "7"): 6, ("5", "7"): 0},
        "block_v": {"4i": 0, "4i+1": 6, "4i+2": 0, "4i+3": 2},
        "block_e": {("4i-1", "4i"): 5, ("4i", "4i+1"): 3,
                    ("4i-1", "4i+1"): 4, ("4i+1", "4i+2"): 2,
                    ("4i+2", "4i+3"): 6, ("4i+1", "4i+3"): 0},
        "subcases": {
            ("ne", "ne"): [("any", [
                ("choose_e", "1", "2t+1", (4, 5, 6), ("A", "B")),
                ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
                ("choose_e", "2t", "2t+1", (4, 5, 6), ("B", _CLOSING)),
            ])],
            ("eq", "ne"): [("any", [
                ("set_e", "1", "3", 6), ("set_v", "3", 4),
                ("choose_e", "1", "2t+1", (4, 5), ("B",)),
                ("choose_e", "1", "2", (4, 5), (_CLOSING,)),
                ("choose_e", "2t", "2t+1", (4, 5, 6), (_CLOSING, "B")),
            ])],
            ("ne", "eq"): [
                ("t==3", [
                    ("set_v", "4", 4), ("set_e", "4", "5", 2),
                    ("set_e", "5", "6", 3), ("set_e", "5", "7", 4),
                    ("choose_e", "1", "7", (5, 6), ("A",)),
                    ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
                    ("choose_e", "6", "7", (5, 6), (_CLOSING,)),
                ]),
                ("t>=5", [
                    ("set_v", "2t-2", 6), ("set_v", "2t-1", 0),
                    ("set_e", "2t-3", "2t-2", 4),
                    ("set_e", "2t-3", "2t-1", 5),
                    ("set_e", "2t-1", "2t+1", 6),
                    ("choose_e", "1", "2t+1", (4, 5), ("A",)),
                    ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
                    ("choose_e", "2t", "2t+1", (4, 5), (_CLOSING,)),
                    ("if_e", "2t", "2t+1", (4,), [
                        ("set_v", "2t", 6), ("set_e", "2t-1", "2t", 2),
                    ]),
                    ("if_e", "2t", "2t+1", (5,), [
                        ("set_v", "2t", 1), ("set_e", "2t-1", "2t", 4),
                    ]),
                ]),
            ],
            ("eq", "eq"): [
                ("t==3", [
                    ("set_e", "1", "2", 4), ("set_e", "1", "3", 6),
                    ("set_v", "3", 4), ("set_v", "4", 5),
                    ("set_e", "3", "4", 1), ("set_e", "4", "5", 2),
                    ("set_e", "3", "5", 0), ("set_e", "5", "6", 3),
                    ("set_e", "6", "7", 6), ("set_e", "5", "7", 4),
                    ("set_e", "1", "7", 5),
                ]),
                ("t>=5", [
                    ("set_e", "1", "2", 5), ("set_e", "1", "3", 6),
                    ("set_v", "3", 4),
                    ("set_v", "2t-2", 6), ("set_v", "2t-1", 0),
                    ("set_v", "2t", 1),
                    ("set_e", "2t-3", "2t-2", 4),
                    ("set_e", "2t-3", "2t-1", 5),
                    ("set_e", "2t-1", "2t", 4), ("set_e", "2t", "2t+1", 5),
                    ("set_e", "2t-1", "2t+1", 6), ("set_e", "1", "2t+1", 4),
                ]),
            ],
        },
    },
    (4, "even"): {
        "endpoints": (2, 3),
        "base_v": {"2": 1, "3": 6, "4": 4, "5": 3},
        "base_e": {("2", "3"): 3, ("1", "3"): 4, ("3", "4"): 2,
                   ("4", "5"): 0, ("3", "5"): 1},
        "block_v": {"4i-2": 2, "4i-1": 4, "4i": 5, "4i+1": 3},
        "block_e": {("4i-3", "4i-2"): 5, ("4i-2", "4i-1"): 0,
                    ("4i-3", "4i-1"): 6, ("4i-1", "4i"): 2,
                    ("4i", "4i+1"): 0, ("4i-1", "4i+1"): 1},
        "subcases": {
            ("ne", "ne"): [("any", [
                ("choose_e", "1", "2t+1", (0, 5, 6), ("A", "B")),
                ("choose_e", "1", "2", (0, 5, 6), ("A", _CLOSING)),
                ("choose_e", "2t", "2t+1", (0, 5, 6), ("B", _CLOSING)),
                ("if_e", "1", "2", (0,), [("set_v", "2", 5)]),
                ("if_e", "2t", "2t+1", (5, 6), [("set_v", "2t", 0)]),
            ])],
            ("eq", "ne"): [("any", [
                ("set_e", "1", "3", 0),
                ("choose_e", "1", "2t+1", (5, 6), ("B",)),
                ("choose_e", "1", "2", (5, 6), (_CLOSING,)),
                ("choose_e", "2t", "2t+1", (0, 5, 6), ("B", _CLOSING)),
                ("if_e", "2t", "2t+1", (5, 6), [("set_v", "2t", 0)]),
            ])],
            ("ne", "eq"): [
                ("t==2", [
                    ("set_e", "3", "5", 0), ("set_v", "4", 0),
                    ("choose_e", "1", "5", (5, 6), ("A",)),
                    ("choose_e", "1", "2", (0, 5, 6), (_CLOSING, "A")),
                    ("choose_e", "4", "5", (5, 6), (_CLOSING,)),
                    ("if_e", "1", "2", (0,), [("set_v", "2", 5)]),
                ]),
                ("t>=4", [
                    ("set_e", "2t-1", "2t+1", 5),
                    ("set_v", "2t-2", 1), ("set_v", "2t-1", 0),
                    ("set_e", "2t-2", "2t-1", 3), ("set_v", "2t", 4),
                    ("choose_e", "1", "2t+1", (0, 6), ("A",)),
                    ("choose_e", "1", "2", (0, 5, 6), (_CLOSING, "A")),
                    ("choose_e", "2t", "2t+1", (0, 6), (_CLOSING,)),
                    ("if_e", "1", "2", (0,), [("set_v", "2", 5)]),
                ]),
            ],
            ("eq", "eq"): [
                ("t==2", [
                    ("set_v", "2", 4), ("set_v", "3", 0), ("set_v", "4", 1),
                    ("set_e", "1", "2", 6), ("set_e", "2", "3", 2),
                    ("set_e", "1", "3", 5), ("set_e", "3", "4", 3),
                    ("set_e", "4", "5", 5), ("set_e", "3", "5", 6),
                    ("set_e", "1", "5", 0),
                ]),
                ("t>=4", [
                    ("set_e", "1", "2", 5), ("set_e", "1", "3", 0),
                    ("set_v", "2t-2", 1), ("set_v", "2t-1", 0),
                    ("set_v", "2t", 4),
                    ("set_e", "2t-2", "2t-1", 3),
                    ("set_e", "2t-1", "2t+1", 5), ("set_e", "1", "2t+1", 6),
                ]),
            ],
        },
    },
    (4, "odd"): {
        "endpoints": (2, 3),
        "base_v": {"2": 1, "3": 0, "4": 1, "5": 6, "6": 2, "7": 3},
        "base_e": {("2", "3"): 3, ("1", "3"): 4, ("3", "4"): 5,
                   ("4", "5"): 3, ("3", "5"): 2, ("5", "6"): 4,
                   ("6", "7"): 0, ("5", "7"): 1},
        "block_v": {"4i": 2, "4i+1": 4, "4i+2": 5, "4i+3": 3},
        "block_e": {("4i-1", "4i"): 5, ("4i", "4i+1"): 0,
                    ("4i-1", "4i+1"): 6, ("4i+1", "4i+2"): 2,
                    ("4i+2", "4i+3"): 0, ("4i+1", "4i+3"): 1},
        "subcases": {
            ("ne", "ne"): [("any", [
                ("choose_e", "1", "2t+1", (0, 5, 6), ("A", "B")),
                ("choose_e", "1", "2", (0, 5, 6), ("A", _CLOSING)),
                ("choose_e", "2t", "2t+1", (0, 5, 6), ("B", _CLOSING)),
                ("if_e", "1", "2", (0,), [("set_v", "2", 5)]),
                ("if_e", "2t", "2t+1", (5, 6), [("set_v", "2t", 0)]),
            ])],
            ("eq", "ne"): [("any", [
                ("set_e", "1", "3", 6),
                ("choose_e", "1", "2t+1", (0, 5), ("B",)),
                ("choose_e", "1", "2", (0, 5), (_CLOSING,)),
                ("choose_e", "2t", "2t+1", (0, 5, 6), (_CLOSING, "B")),
                ("if_e", "1", "2", (0,), [("set_v", "2", 5)]),
                ("if_e", "2t", "2t+1", (5, 6), [("set_v", "2t", 0)]),
            ])],
            ("ne", "eq"): [
                ("t==3", [
                    ("set_e", "5", "7", 0),
                    ("choose_e", "1", "7", (5, 6), ("A",)),
                    ("choose_e", "1", "2", (0, 5, 6), ("A", _CLOSING)),
                    ("choose_e", "6", "7", (5, 6), (_CLOSING,)),
                    ("if_e", "1", "2", (0,), [("set_v", "2", 5)]),
                ]),
                ("t>=5", [
                    ("set_v", "2t-2", 0), ("set_v", "2t-1", 1),
                    ("set_e", "2t-2", "2t-1", 4),
                    ("set_e", "2t-1", "2t", 3),
                    ("set_e", "2t-1", "2t+1", 5),
                    ("choose_e", "1", "2t+1", (0, 6), ("A",)),
                    ("choose_e", "1", "2", (0, 5, 6), ("A", _CLOSING)),
                    ("choose_e", "2t", "2t+1", (0, 6), (_CLOSING,)),
                    ("if_e", "1", "2", (0,), [("set_v", "2", 5)]),
                    ("if_e", "2t", "2t+1", (6,), [("set_v", "2t", 0)]),
                ]),
            ],
            ("eq", "eq"): [
                ("t==3", [
                    ("set_e", "1", "2", 0), ("set_e", "1", "3", 6),
                    ("set_v", "2", 5), ("set_e", "6", "7", 6),
                    ("set_e", "5", "7", 0), ("set_e", "1", "7", 5),
                ]),
                ("t>=5", [
                    ("set_e", "1", "2", 5), ("set_e", "1", "3", 6),
                    ("set_v", "2t-2", 0), ("set_v", "2t-1", 1),
                    ("set_v", "2t", 0),
                    ("set_e", "2t-2", "2t-1", 4),
                    ("set_e", "2t-1", "2t", 3), ("set_e", "2t", "2t+1", 6),
                    ("set_e", "2t-1", "2t+1", 5), ("set_e", "1", "2t+1", 0),
                ]),
            ],
        },
    },
}

# shared instruction lists referenced by name in the tables above
_SHARED_OPS = {
    "OPS_2E_PLAIN_T2": [
        ("choose_e", "1", "5", (3, 5, 6), ("A", "B")),
        ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
        ("choose_e", "4", "5", (3, 5, 6), ("B", _CLOSING)),
        ("if_e", "4", "5", (5, 6), [("set_v", "4", 3)]),
    ],
    "OPS_2E_PLAIN_T4": [
        ("choose_e", "1", "2t+1", (4, 5, 6), ("A", "B")),
        ("choose_e", "1", "2", (4, 5, 6), ("A", _CLOSING)),
        ("choose_e", "2t", "2t+1", (4, 5, 6), ("B", _CLOSING)),
        ("if_e", "2t", "2t+1", (6,), [("set_e", "2t-1", "2t", 4)]),
    ],
    "OPS_2E_LOW_T2": [
        ("set_e", "1", "3", 3),
        ("choose_e", "1", "5", (5, 6), ("B",)),
        ("choose_e", "1", "2", (4, 5, 6), (_CLOSING,)),
        ("choose_e", "4", "5", (3, 5, 6), ("B", _CLOSING)),
        ("if_e", "4", "5", (5, 6), [("set_v", "4", 3)]),
    ],
    "OPS_2E_LOW_T4": [
        ("set_e", "1", "3", 3),
        ("choose_e", "1", "2t+1", (4, 5, 6), ("B",)),
        ("choose_e", "1", "2", (4, 5, 6), (_CLOSING,)),
        ("choose_e", "2t", "2t+1", (4, 5, 6), ("B", _CLOSING)),
        ("if_e", "2t", "2t+1", (6,), [("set_e", "2t-1", "2t", 4)]),
    ],
}

_IDX_RE = re.compile(r"^(?:(\d*)([it]))?([+-]?\d+)?$")


def _idx(expr: str | int, t: int, i: int | None = None) -> int:
    if isinstance(expr, int):
        return expr
    m = _IDX_RE.match(expr.replace(" ", ""))
    if not m or (m.group(1) is None and m.group(3) is None):
        raise ValueError(f"bad index pattern {expr!r}")
    coef, var, off = m.groups()
    val = 0
    if var:
        base = t if var == "t" else i
        if base is None:
            raise ValueError(f"pattern {expr!r} needs a block index")
        val = (int(coef) if coef else 1) * base
    if off:
        val += int(off)
    return val


def _subcase_key(case_id: int, parity: str, alpha: int, beta: int) -> tuple[str, str]:
    specials = {1: 6, 2: 2, 3: 3, 4: 4}
    a = "eq" if alpha == specials[case_id] else "ne"
    if case_id == 2 and parity == "even":
        b = {3: "b3", 4: "b4"}.get(beta, "nb")
    else:
        b_special = {1: 0, 2: 5, 3: 0, 4: 1}[case_id]
        b = "eq" if beta == b_special else "ne"
    return a, b


def chain_template(
    case_id: int,
    t: int,
    host_context: tuple[int, int, int, int],
) -> dict[tuple, int]:
    """Labels for a closed fan of ``t`` triangles, canonical frame.

    ``host_context`` is (left attachment label, left stub edge label, right
    attachment label, right stub edge label).  Keys of the result are
    ``("v", index)`` and ``("e", i, j)`` over 1-based spine indices,
    including the closing edge (1, 2t+1).  The endpoint vertex labels are
    the case's canonical pair.
    """
    if case_id not in CASE_TARGETS:
        raise ValueError(f"unknown case {case_id}")
    if t < 2:
        raise ValueError("chains need at least two triangles")
    fw1, alpha, fw2, beta = host_context
    a_lab, b_lab = CASE_TARGETS[case_id]
    if a_lab not in availability_set(fw1, alpha) or b_lab not in availability_set(
        fw2, beta
    ):
        raise ValueError("host context does not admit the case's endpoint labels")
    parity = "even" if t % 2 == 0 else "odd"
    spec = TEMPLATES[(case_id, parity)]

    def key(*pats: str, i: int | None = None) -> tuple:
        ids = sorted(_idx(pat, t, i) for pat in pats)
        return ("v" if len(ids) == 1 else "e", *ids)

    lab: dict[tuple, int] = {key("1"): a_lab, key("2t+1"): b_lab}
    for pat, value in spec["base_v"].items():
        lab[key(pat)] = value
    for pats, value in spec["base_e"].items():
        lab[key(*pats)] = value
    k_blocks = t // 2 if parity == "even" else (t - 1) // 2
    for i in range(2, k_blocks + 1):
        for pat, value in spec["block_v"].items():
            lab[key(pat, i=i)] = value
        for pats, value in spec["block_e"].items():
            lab[key(*pats, i=i)] = value

    branches = spec["subcases"][_subcase_key(case_id, parity, alpha, beta)]
    ops = None
    for guard, body in branches:
        if guard == "any":
            ops = body
        elif guard.startswith("t==") and t == int(guard[3:]):
            ops = body
        elif guard.startswith("t>=") and t >= int(guard[3:]):
            ops = body
        if ops is not None:
            break
    if ops is None:
        raise CaseFault(f"no branch for case {case_id} parity {parity} t={t}")
    if isinstance(ops, str):
        ops = _SHARED_OPS[ops]
    run_ops(ops, lab, key, {"A": alpha, "B": beta})
    return lab


def apply_template(
    tmpl: dict[tuple, int], spine: tuple[int, ...]
) -> dict[Element, int]:
    """Map canonical spine indices onto actual vertex ids."""
    out: dict[Element, int] = {}
    for key, value in tmpl.items():
        if key[0] == "v":
            out[spine[key[1] - 1]] = value
        else:
            out[norm_edge(spine[key[1] - 1], spine[key[2] - 1])] = value
    return out


# -- reductions and the driver -----------------------------------------------

def label_delta4(g: Graph, diag: Diagnostics | None = None) -> TotalLabeling:
    """Verified span <= 6 labeling of an outerplanar graph with max degree 4.

    Raises NotOuterplanar, before any labeling, if some component is not
    outerplanar.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if g.max_degree() != 4:
        raise NotDelta(4, g.max_degree())
    out = reduce_and_extend(recognize_embed(g), partial(_step6, diag=diag))
    bad = verify(out, 2)
    if bad:
        raise InfeasibleTrace(f"driver produced an invalid labeling: {bad[:3]}")
    return out


def _step6(emb: OuterplanarEmbedding, diag: Diagnostics | None):
    """Label a connected host of maximum degree <= 4, or reduce it: a host
    of maximum degree <= 3 or with a pendant takes the degree-3 step."""
    g = emb.graph
    top, low = g.max_degree(), g.min_degree()
    if top <= 3 or low == 1:
        return degree3_step(emb, top, low, diag)
    work = emb.worklists()
    for kind in ("C1", "C2"):
        witnesses = work.first(kind)
        if witnesses is not None:
            if diag is not None:
                diag.step(f"degree-4 dispatch: {kind} at {witnesses}")
            return vertex_step(emb, witnesses[0], kind, diag)
    chain = find_closed_chain(emb)
    if diag is not None:
        diag.step(f"degree-4 dispatch: closed chain {chain.spine}")
    undo = emb.remove(chain.interior(), [chain.closing_inner_edge])
    return undo, partial(_chain_surgery, chain, diag)


def _chain_surgery(chain, diag: Diagnostics | None, fh: TotalLabeling) -> TotalLabeling:
    spine = chain.spine
    w1, w2 = chain.attachments

    l1 = availability(fh, spine[0], w1)
    l2 = availability(fh, spine[-1], w2)
    pair = claim_pair(l1, l2)
    cc = canonicalize(pair)
    if diag is not None:
        diag.step(
            f"chain t={chain.t} pair={pair} case={cc.case_id} "
            f"reverse={cc.reverse} complement={cc.complement}"
        )

    sp = spine[::-1] if cc.reverse else spine
    wl, wr = (w2, w1) if cc.reverse else (w1, w2)
    ctx = tuple(6 - fh.get(z) if cc.complement else fh.get(z) for z in (
        wl, norm_edge(sp[0], wl), wr, norm_edge(sp[-1], wr)))
    if diag is not None:
        parity = "even" if chain.t % 2 == 0 else "odd"
        diag.step(
            f"subcase {_subcase_key(cc.case_id, parity, ctx[1], ctx[3])} "
            f"stub edges ({ctx[1]}, {ctx[3]})"
        )
    # the template is written in the canonical frame: only its own labels
    # are complemented back, the rest of the host keeps fh's
    ext = apply_template(chain_template(cc.case_id, chain.t, ctx), sp)
    fh.assignment.pop(sp[0], None)
    fh.assignment.pop(sp[-1], None)
    fh.update({z: 6 - lab for z, lab in ext.items()} if cc.complement else ext)
    # the template labels exactly what was cut out with the chain (the
    # acceptance test's template sweep checks it), so outside its keys the
    # labeling is fh
    return check(fh, ext, f"chain template case {cc.case_id} t={chain.t}")

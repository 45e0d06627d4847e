"""Seeded workload generator: the six named inputs of the ruler.

The program under test receives only the Estelle *text* built here (plus the
cluster/mapping/backend settings a caller of the public API would pass); the
``--seed`` decides how the fixed amount of work is spread over the input:

* ``osi`` specs: which of the 8 connections gets which ``to_send`` — a
  permutation of a fixed multiset, so total firings and the round count are
  the same for every seed and ``run_wall_ms`` is comparable across seeds;
* ``mcam_sessions``: how 300 calls split between the two participants;
* ``xmovie_stream``: ``frames_total`` within +-1 % of 200;
* ``serve_calls``: the order in which each connection submits the two call
  specs.

Base texts are frozen copies under ``specs/`` so a later edit of
``examples/specs`` cannot move the ruler.  Every substitution is anchored and
asserts it replaced exactly one site: a prototype's ``calls_wanted := 1``
pattern also matched inside ``:= 10`` and silently produced a 100x workload.

``osi_transfer`` is widened by *connections*, never lengthened through
``to_send`` alone: its ``exist/forall i : 1..to_send`` guards cost
O(``to_send``) per evaluation and would turn the workload into a quantifier
micro-benchmark.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

SPEC_DIR = Path(__file__).resolve().parent / "specs"

OSI_MACHINES = ("ksr1", "client-ws-1")
MCAM_MACHINES = ("ksr1", "client-ws-1", "client-ws-2")
XMOVIE_MACHINES = ("ksr1", "client-ws-1")

#: per-connection ``to_send`` multisets (sum fixed, max fixed => firings and
#: rounds are seed-invariant).
STATIC_TO_SEND = (21, 22, 23, 24, 24, 25, 26, 27)
BULK_TO_SEND = (93, 94, 95, 96, 96, 97, 98, 99)
QUICK_TO_SEND = (2, 3, 3, 4)

CHURN_CALLS_TOTAL = 300
STRICT_FRAMES = 200


@dataclass(frozen=True)
class Workload:
    """One named input plus the settings its driver passes to the public API."""

    name: str
    kind: str  # "inproc" | "mesh" | "serve"
    why: str
    #: generated Estelle texts; ``texts[0]`` is the input of the layer probes.
    texts: Tuple[str, ...]
    machines: Tuple[str, ...]
    #: closed-form firing count of each text (None where no closed form exists).
    expected_firings: Tuple[Optional[int], ...]
    #: mesh settings (the workload's own for ``mesh_*``; for the others, what
    #: the traced pass's backend probe runs the same input under).
    transport: str = "tcp"
    relax_barrier: bool = True
    #: serve settings.
    step_rounds: int = 20
    #: read the firing cursor after every step (bulk traffic) or once, after
    #: quiescence (call control).
    stream_each_step: bool = True
    #: serve_calls: indexes into ``texts``, the order sessions are submitted in.
    order: Tuple[int, ...] = (0,)


WHY = {
    "inproc_static": "static 48-module osi stack, ~26 firings/round: fire, IP enqueue and "
    "trace dominate, the planner does little",
    "inproc_churn": "mcam_sessions with ~150 calls per participant: an init/release epoch and "
    "a delay jump every few rounds, so plan and planner rebuild dominate",
    "mesh_relaxed": "the osi stack on the tcp mesh with barrier relaxation: the lookahead "
    "loop, with spawn/teardown about half of an op",
    "mesh_strict": "delay-paced xmovie on the mp-queue mesh: a barrier every round and almost "
    "no firing work, so coordination cost per round dominates",
    "serve_calls": "short mcam sessions with 7-round steps over HTTP: front end, registry hit "
    "and instantiate dominate, engine stepping is a sliver",
    "serve_bulk": "long osi sessions with 20-round steps and ~160 KB cursor reads over HTTP: "
    "engine step and firing-stream JSON encode dominate",
}

NAMES = tuple(WHY)


def _base(name: str) -> str:
    return (SPEC_DIR / f"{name}.estelle").read_text()


def substitute_once(text: str, pattern: str, replacement: str) -> str:
    """Replace the single site ``pattern`` matches; anything else is a bug."""
    result, count = re.subn(pattern, replacement, text)
    if count != 1:
        raise ValueError(
            f"pattern {pattern!r} matched {count} sites, expected exactly 1"
        )
    return result


def osi_text(to_send: Tuple[int, ...]) -> str:
    """``osi_transfer`` with one six-module connection per ``to_send`` entry."""
    base = _base("osi_transfer")
    head, marker, _ = base.partition("modvar s_app_c1")
    if not marker or base.count("modvar s_app_c1") != 1:
        raise ValueError("osi_transfer: placement block anchor not found exactly once")
    lines = []
    for index, count in enumerate(to_send, start=1):
        c = f"c{index}"
        lines += [
            f'modvar s_app_{c}  : SendingAppBody    at "ksr1" with to_send := {count} ;',
            f'modvar s_pres_{c} : SendingPresBody   at "ksr1" ;',
            f'modvar s_sess_{c} : SendingSessBody   at "ksr1" ;',
            f'modvar r_sess_{c} : ReceivingSessBody at "client-ws-1" ;',
            f'modvar r_pres_{c} : ReceivingPresBody at "client-ws-1" ;',
            f'modvar r_app_{c}  : ReceivingAppBody  at "client-ws-1" with expected := {count} ;',
            "",
        ]
    for index in range(1, len(to_send) + 1):
        c = f"c{index}"
        lines += [
            f"connect s_app_{c}.pres  to s_pres_{c}.up ;",
            f"connect s_pres_{c}.down to s_sess_{c}.up ;",
            f"connect s_sess_{c}.wire to r_sess_{c}.wire ;",
            f"connect r_sess_{c}.up   to r_pres_{c}.down ;",
            f"connect r_pres_{c}.up   to r_app_{c}.pres ;",
            "",
        ]
    return head + "\n".join(lines) + "\nend.\n"


def osi_firings(to_send: Tuple[int, ...]) -> int:
    """Closed form: 18 connect/release firings + 9 per data unit, per connection."""
    return sum(18 + 9 * count for count in to_send)


def mcam_text(alice_calls: int, bob_calls: int) -> str:
    text = _base("mcam_sessions")
    text = substitute_once(
        text,
        r'(modvar alice : ParticipantBody at "client-ws-1" with calls_wanted := )\d+( ;)',
        rf"\g<1>{alice_calls}\g<2>",
    )
    return substitute_once(
        text,
        r'(modvar bob : ParticipantBody at "client-ws-2" with calls_wanted := )\d+( ;)',
        rf"\g<1>{bob_calls}\g<2>",
    )


def xmovie_text(frames_total: int) -> str:
    return substitute_once(
        _base("xmovie_stream"),
        r"(\n    frames_total := )\d+(;\n)",
        rf"\g<1>{frames_total}\g<2>",
    )


def xmovie_firings(frames_total: int) -> int:
    """Closed form: 4 set-up/tear-down firings + 4 per frame."""
    return 4 + 4 * frames_total


def _permuted(rng: random.Random, values: Tuple[int, ...]) -> Tuple[int, ...]:
    shuffled = list(values)
    rng.shuffle(shuffled)
    return tuple(shuffled)


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``quick`` shrinks it to one short op."""
    # Every workload draws from its own stream, so adding a draw to one
    # cannot shift another's inputs.
    rng = random.Random(f"{name}:{seed}")
    if name == "inproc_static":
        to_send = _permuted(rng, QUICK_TO_SEND if quick else STATIC_TO_SEND)
        return Workload(
            name, "inproc", WHY[name], (osi_text(to_send),), OSI_MACHINES,
            (osi_firings(to_send),),
        )
    if name in ("mesh_relaxed", "serve_bulk"):
        to_send = _permuted(rng, QUICK_TO_SEND if quick else BULK_TO_SEND)
        return Workload(
            name, "mesh" if name == "mesh_relaxed" else "serve", WHY[name],
            (osi_text(to_send),), OSI_MACHINES, (osi_firings(to_send),),
            transport="tcp", relax_barrier=True, step_rounds=20,
        )
    if name == "inproc_churn":
        total = 6 if quick else CHURN_CALLS_TOTAL
        skew = rng.randint(-1, 1) if quick else rng.randint(-5, 5)
        alice = total // 2 + skew
        return Workload(
            name, "inproc", WHY[name], (mcam_text(alice, total - alice),),
            MCAM_MACHINES, (None,),
            # delay-bearing and dynamic: the backend probe falls back to the
            # strict loop whatever relax_barrier says.
            transport="tcp", relax_barrier=True,
        )
    if name == "mesh_strict":
        frames = 6 if quick else STRICT_FRAMES + rng.randint(-2, 2)
        return Workload(
            name, "mesh", WHY[name], (xmovie_text(frames),), XMOVIE_MACHINES,
            (xmovie_firings(frames),), transport="mp-queue", relax_barrier=False,
        )
    if name == "serve_calls":
        # Two call specs with the same request count per lifecycle (18 and 19
        # rounds: three 7-round steps each), submitted in a seeded order.
        order = tuple(rng.randint(0, 1) for _ in range(64))
        return Workload(
            name, "serve", WHY[name], (mcam_text(2, 1), mcam_text(1, 2)),
            MCAM_MACHINES, (None, None), step_rounds=7, stream_each_step=False,
            order=order,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

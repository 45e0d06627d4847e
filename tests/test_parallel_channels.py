"""Unit tests for the batch protocol's pure functions.

The wire itself — round tags, one batch per peer per round, timeouts, which
units get links — is pinned over every transport by
``tests/test_transport_conformance.py``; cross-process behaviour by
``tests/test_parallel_backend.py``.
"""

from repro.runtime.parallel import Batch, RoutedMessage, merge_batches


def message(plan_index, seq, target="a/b", ip="port", name="Msg", **params):
    return RoutedMessage(
        plan_index=plan_index,
        seq=seq,
        target_path=target,
        ip_name=ip,
        interaction_name=name,
        params=tuple(sorted(params.items())),
    )


class TestMergeBatches:
    def test_merge_restores_global_plan_order(self):
        batch_a = Batch(1, (message(2, 0, x=1), message(2, 1, x=2)))
        batch_b = Batch(1, (message(0, 0, x=3),))
        batch_c = Batch(1, (message(1, 0, x=4),))
        merged = merge_batches([batch_a, batch_b, batch_c])
        assert [(m.plan_index, m.seq) for m in merged] == [(0, 0), (1, 0), (2, 0), (2, 1)]

    def test_merge_of_empty_batches(self):
        assert merge_batches([Batch(1, ()), Batch(1, ())]) == []

"""Admission control is invisible to admitted queries.

The controlled surge run sheds work and rescales four layers mid-spike;
the ablation runs the identical workload unthrottled and unscaled.  For
every request the control plane *admitted*, its result digest must equal
the digest the ablation computed for the same request — shedding and
scaling may drop or speed up work, but can never change an answer.

Also pins the determinism contract the CI gate relies on: same seed,
same params -> byte-identical decision log and report check.
"""

from __future__ import annotations

from tests.controlplane.surge_fixtures import (
    ablation_run,
    controlled_rerun,
    controlled_run,
)


class TestAdmissionEquivalence:
    def test_admitted_results_match_unthrottled_run(self):
        control = controlled_run()
        ablation = ablation_run()
        assert control.query_digests  # the surge admitted real work
        mismatched = {
            rid
            for rid, digest in control.query_digests.items()
            if ablation.query_digests.get(rid) != digest
        }
        assert not mismatched, (
            f"{len(mismatched)} admitted queries returned different rows "
            f"than the unthrottled run, e.g. {sorted(mismatched)[:5]}"
        )

    def test_admitted_is_a_subset_of_the_ablation(self):
        control = controlled_run()
        ablation = ablation_run()
        assert set(control.query_digests) <= set(ablation.query_digests)
        assert ablation.shed == 0
        assert ablation.requests == control.requests

    def test_the_control_plane_actually_intervened(self):
        control = controlled_run()
        assert control.shed > 0  # load shedding fired ...
        assert control.scale_actions > 0  # ... and so did the autoscalers
        assert control.admitted + control.shed == control.requests


class TestDeterminism:
    def test_same_seed_identical_decision_log(self):
        assert controlled_run().decision_log == controlled_rerun().decision_log

    def test_same_seed_identical_check(self):
        assert controlled_run().check == controlled_rerun().check
        assert controlled_run().query_digests == controlled_rerun().query_digests
        assert (controlled_run().requests, controlled_run().scale_actions) == (
            controlled_rerun().requests,
            controlled_rerun().scale_actions,
        )

    def test_different_seed_diverges(self):
        assert controlled_run(7).check != controlled_run().check

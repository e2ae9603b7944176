"""The abstract's load-sharing claims, pinned across load.

Sharing relieves the central server only below saturation: at x1 load it
more than halves the CMS links' utilization, while at x16 the CMS links
stay full either way and sharing adds neighbor capacity instead.  Either
way the rejection ratio is lower with sharing.  Default config, seed 1,
``horizon=1000``, where CMS utilization with / without sharing reads
0.387 / 0.888 at x1 and 0.976 / 0.991 at x16, and the rejection ratio
0.000 / 0.130, 0.185 / 0.750 and 0.751 / 0.934 at x1, x4 and x16.
"""

from __future__ import annotations

import dataclasses

import pytest

from vodsim.allocation import PS_CMS
from vodsim.config import SimConfig
from vodsim.metrics import Replay
from vodsim.sim import baseline_no_psg, run

BASE = SimConfig(seed=1, horizon=1000.0)


@pytest.fixture(scope="module")
def paired_runs():
    """(CMS utilization, rejection ratio) with and without sharing, by load."""
    pairs = {}
    for scale in (1, 4, 16):
        config = dataclasses.replace(BASE, total_arrival_rate=BASE.total_arrival_rate * scale)
        pairs[scale] = [
            (Replay(result.ledgers, config.horizon).utilization()[PS_CMS],
             result.counters.rejection_ratio)
            for result in (run(config), baseline_no_psg(config))
        ]
    return pairs


def test_sharing_more_than_halves_cms_utilization_below_saturation(paired_runs):
    (shared, _), (central, _) = paired_runs[1]
    assert shared < central / 2


def test_cms_utilization_is_the_same_at_saturation(paired_runs):
    (shared, _), (central, _) = paired_runs[16]
    assert abs(shared - central) < 0.02


def test_sharing_lowers_the_rejection_ratio_at_every_load(paired_runs):
    for scale, ((_, shared), (_, central)) in paired_runs.items():
        assert shared < central, scale

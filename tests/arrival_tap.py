"""A test-side record of every request a run hands to routing.

The tap wraps ``vodsim.sim.handle_request``, the call the event loop makes
once per handled arrival, so tests can compare the exact arrival
sequences of two runs without any hook in the package.
"""

from __future__ import annotations

import pytest

from vodsim import sim


def with_arrivals(call, *args):
    """Return ``call(*args)`` and the exact ``(time, proxy, video, class)``
    of every request handled during the call, in handling order."""
    arrivals = []
    handle_request = sim.handle_request

    def tapped(world, time, proxy_id, video_id, user_class, *rest):
        arrivals.append((time, proxy_id, video_id, user_class))
        return handle_request(world, time, proxy_id, video_id, user_class, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "handle_request", tapped)
        return call(*args), arrivals

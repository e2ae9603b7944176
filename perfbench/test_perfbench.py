"""Checks of the benchmark itself: its gate, and that tracing is transparent."""

from __future__ import annotations

import pytest

import harness
import spans
from vodsim.config import SimConfig

# Small enough to run in well under a second, loaded enough to reclaim.
TINY = SimConfig(seed=3, total_arrival_rate=4.0, horizon=400.0)


def expected_of(run) -> dict:
    return {"digest": run.digest, "fingerprint": run.fingerprint}


def flip_csv_byte(out_dir):
    path = out_dir / "util_ps_cms.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))


def fail_summary_check(out_dir):
    path = out_dir / "summary.txt"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("CHECK:ledger_bounds=PASS", "CHECK:ledger_bounds=FAIL"),
                    encoding="utf-8")


@pytest.mark.parametrize("perturb, failures", [(flip_csv_byte, 1), (fail_summary_check, 2)])
def test_perturbed_report_fails_gate(tmp_path, perturb, failures):
    run = harness.run_pipeline(TINY, tmp_path, keep_result=True)
    assert run.failures == []
    perturb(tmp_path)
    digest, found = harness.check_reports(run.result, tmp_path, expected_of(run))
    assert digest != run.digest
    assert len(found) == failures


def test_tracing_leaves_report_digest_unchanged(tmp_path):
    plain = harness.run_pipeline(TINY, tmp_path / "plain")
    with spans.Tracer() as tracer:
        traced = harness.run_pipeline(TINY, tmp_path / "traced", expected_of(plain))
    assert traced.failures == []
    assert traced.digest == plain.digest
    self_times = tracer.self_times()
    assert tracer.nesting_violations(self_times) == 0
    layers = tracer.layers(self_times)
    assert layers["topology.handle_request"]["calls"] == plain.fingerprint["requested"]
    assert layers["sim.run"]["calls"] == 1


def test_tracer_restores_every_patched_attribute(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _name, _ok in spans.PATCHES]
    with spans.Tracer():
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
        harness.run_pipeline(TINY, tmp_path)
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    with pytest.raises(RuntimeError), spans.Tracer():
        raise RuntimeError("interrupted run")
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)

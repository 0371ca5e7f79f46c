"""The correctness checks are live: break what they compare against and
the run reports failed operations."""

from bench.harness import Sizes, _Run, run
from bench.oracle import Oracle


def test_a_missing_forced_entry_is_reported(monkeypatch):
    """Drop one acknowledged, forced entry from the expected list: the
    store now holds an entry the model does not, and the read-back says so."""
    original = _Run.setup

    def setup_then_forget_one(self):
        out = original(self)
        path = self.workload.paths[1]
        assert self.oracle.durable[path] > 3
        for column in (
            self.oracle.prints, self.oracle.stamps, self.oracle.seqs, self.oracle.sizes,
        ):
            del column[path][2]
        self.oracle.durable[path] -= 1
        return out

    monkeypatch.setattr(_Run, "setup", setup_then_forget_one)
    result = run("commit-forced", 2, 1, False, sizes=Sizes.smoke())
    assert result.failed > 0
    assert not result.correct
    assert any("/bench/f01" in message for message in result.failures)


def test_a_flipped_payload_byte_in_a_scan_is_reported(monkeypatch):
    """Flip one byte of one payload on its way into the scan digest."""
    original = Oracle.check_scan
    flipped = []

    def check_scan_with_one_bad_byte(self, path, start, payloads):
        if payloads and not flipped:
            flipped.append(path)
            damaged = bytes([payloads[0][0] ^ 0x01]) + payloads[0][1:]
            payloads = [damaged, *payloads[1:]]
        return original(self, path, start, payloads)

    monkeypatch.setattr(Oracle, "check_scan", check_scan_with_one_bad_byte)
    result = run("history-scan", 2, 1, False, sizes=Sizes.smoke())
    assert flipped
    assert result.failed >= 2  # the slice, and the whole-run digest
    assert not result.correct
    assert any("scan digest" in message for message in result.failures)


def test_the_same_runs_pass_when_nothing_is_broken():
    for workload in ("commit-forced", "history-scan"):
        result = run(workload, 2, 1, False, sizes=Sizes.smoke())
        assert result.correct, result.failures

#!/usr/bin/env python3
"""Security audit trails on write-once storage (paper Section 1).

Audit records go to a log file on media that physically cannot be
rewritten — "the write-once restriction ... improves the integrity of
logged data".  Monitors scan the history incrementally for suspicious
patterns (brute-force logins, after-hours privileged activity).

Run:  python examples/audit_monitor.py
"""

from repro import LogService
from repro.apps import AfterHoursMonitor, AuditTrail, FailedLoginMonitor
from repro.worm.corruption import corrupt_block


def main() -> None:
    service = LogService.create(
        block_size=512, degree_n=8, volume_capacity_blocks=4096
    )
    trail = AuditTrail(service)
    brute_force = FailedLoginMonitor(trail, threshold=3, window_us=120_000_000)
    after_hours = AfterHoursMonitor(trail)  # allowed window 07:00-19:00

    print("== normal daytime activity ==")
    service.clock.advance_ms(9 * 3_600_000)  # 09:00
    trail.record("login_ok", "alice", "console")
    trail.record("file_access", "alice", "/etc/motd")
    trail.record("logout", "alice")
    print(f"  brute-force alerts: {brute_force.scan()}")
    print(f"  after-hours alerts: {len(after_hours.scan())}")

    print("== an attacker guesses passwords ==")
    for attempt in range(4):
        trail.record("login_failed", "root", f"bad password #{attempt}")
        service.clock.advance_ms(10_000)
    alerts = brute_force.scan()
    for subject, count in alerts:
        print(f"  ALERT: {count} failed logins for {subject!r}")

    print("== privileged activity at 03:00 ==")
    hours_until_3am = (24 + 3 - 9) % 24
    service.clock.advance_ms(hours_until_3am * 3_600_000)
    trail.record("privilege_change", "backup-operator", "su to root")
    for event in after_hours.scan():
        hour = (event.time_us // 3_600_000_000) % 24
        print(f"  ALERT: {event.kind} by {event.subject!r} at {hour:02d}:00")

    print("== the trail survives tampering attempts ==")
    device = service.devices[0]
    try:
        device.write_block(1, b"\x00" * device.block_size)
    except Exception as exc:
        print(f"  overwrite rejected by the device: {type(exc).__name__}")
    # Even deliberate sabotage of a block only invalidates that block; the
    # CRC catches it and the rest of the trail remains readable.
    corrupt_block(device, 2)
    service.store.cache.clear()
    readable = sum(1 for _ in trail.events())
    print(f"  audit events still readable after media damage: {readable}")


if __name__ == "__main__":
    main()

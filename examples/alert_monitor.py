#!/usr/bin/env python3
"""SLO alerting dogfooded onto log files (paper Sections 1 and 3.4).

A login log is written normally, the server crashes with a corrupted
tail, and the recovery model-delta rule catches the remount examining
more blocks than Section 3.4's N*log_N(b) worst case allows.  The fired
alert is appended to the /alerts sublog — the alert history is itself a
log file — and read back.

Run:  python examples/alert_monitor.py
"""

from repro import LogService
from repro.obs import AlertLog, SloEngine, default_ruleset
from repro.worm.corruption import corrupt_range


def main() -> None:
    service = LogService.create(
        degree_n=4, volume_capacity_blocks=4096, observability=True
    )
    login = service.create_log_file("/login")
    for i in range(2000):
        login.append(f"user{i % 97} logged in".encode())
    service.sync()

    print("== healthy service ==")
    engine = SloEngine(service, rules=default_ruleset())
    fired = engine.evaluate()
    print(f"  rules: {len(engine.rules)}, alerts fired: {len(fired)}")

    print("== crash with a corrupted tail ==")
    remains = service.crash()
    device = remains.devices[0]
    tail = device.query_tail()
    corrupted = corrupt_range(device, max(0, tail - 12), 12)
    print(f"  corrupted {len(corrupted)} blocks before block {tail}")

    recovered, report = LogService.mount(
        remains.devices, remains.nvram, observability=True
    )
    print(
        f"  remounted: {report.total_blocks_examined} blocks examined, "
        f"{len(report.flight_recorder)} flight-recorder events"
    )

    print("== SLO evaluation on the recovered service ==")
    alert_log = AlertLog(recovered)  # creates the /alerts sublog
    engine = SloEngine(recovered, alert_log=alert_log)
    fired = engine.evaluate()
    for alert in fired:
        print(
            f"  ALERT {alert.rule} [{alert.severity}]: "
            f"value={alert.value:g} exceeds bound={alert.bound:g}"
        )
    assert any(a.rule == "recovery_blocks_vs_model" for a in fired)

    print("== alert history read back from the /alerts log file ==")
    for alert in alert_log.read_back():
        print(f"  [{alert.ts_us}us] {alert.rule}: {alert.message}")
    journalled = recovered.journal.by_kind("alert.fired")
    print(f"  (and {len(journalled)} alert.fired events in the journal)")


if __name__ == "__main__":
    main()

"""Reproduction of Finlayson & Cheriton, "Log Files: An Extended File
Service Exploiting Write-Once Storage" (SOSP 1987) — the Clio log service.

The public API surface:

* :mod:`repro.core` — the Clio log service itself (`LogService`, `LogFile`).
* :mod:`repro.worm` — write-once devices, volumes and volume sequences.
* :mod:`repro.cache` — the shared block cache (buffer pool).
* :mod:`repro.fs` — the conventional file system substrate and UIO layer.
* :mod:`repro.apps` — the history file server and transaction log (Section 4).
* :mod:`repro.baselines` — comparators from Sections 1 and 5.
* :mod:`repro.analysis` — the paper's closed-form cost models.
* :mod:`repro.vsystem` — simulated clock / V-System cost model.

Quickstart::

    from repro import LogService

    service = LogService.create(block_size=1024, degree_n=16,
                                volume_capacity_blocks=4096)
    mail = service.create_log_file("/mail")
    eid = service.append(mail, b"message one", force=True)
    for entry in service.read_entries(mail):
        print(entry.data)
"""

__version__ = "1.0.0"

__all__ = ["LogService", "__version__"]


def __getattr__(name):
    # Lazy import keeps `import repro.worm` usable without pulling the whole
    # service stack (and its import cost) into every process.
    if name == "LogService":
        from repro.core.service import LogService

        return LogService
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

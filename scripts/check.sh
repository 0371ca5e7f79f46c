#!/bin/sh
# Pre-commit gate for the Clio reproduction: the clio-lint invariant
# analyzer, the tier-1 test suite, and (when installed) mypy --strict over
# the typed packages.  Run from the repository root:  ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== clio lint src/repro =="
PYTHONPATH=src python -m repro lint src/repro

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== benchmark self-tests (counts repeat, checks fire, every trace wrap point resolves) =="
python -m pytest bench/tests -q

echo "== trace determinism =="
PYTHONPATH=src python scripts/trace_determinism.py

echo "== fault campaign (silent-miss gate + artifact determinism) =="
PYTHONPATH=src python -m repro campaign run --menu small --check-determinism \
    --out /tmp/clio_campaign_small.json > /dev/null
echo "campaign ok: no silent misses, artifact deterministic"

echo "== workload smoke (long-horizon replay + under-load campaign + determinism) =="
PYTHONPATH=src python -m repro workload run --profile smoke \
    --campaign small --check-determinism \
    --out /tmp/clio_workload_smoke.json > /dev/null
PYTHONPATH=src python -m repro workload index benchmarks/runs > /dev/null
echo "workload ok: gates pass, artifact deterministic, catalog verified"

echo "== cross-process determinism (PYTHONHASHSEED=1 vs =2: string-set order differs) =="
# The gates above repeat each run inside one process, where string hashing
# and so set order never change; these pairs change it.
seeds=$(mktemp -d)
for seed in 1 2; do
    PYTHONHASHSEED=$seed PYTHONPATH=src python -m repro campaign run \
        --menu small --out "$seeds/campaign_$seed.json" > /dev/null
    PYTHONHASHSEED=$seed PYTHONPATH=src python -m repro workload run \
        --profile smoke --campaign small --out "$seeds/workload_$seed.json" > /dev/null
done
cmp "$seeds/campaign_1.json" "$seeds/campaign_2.json"
cmp "$seeds/workload_1.json" "$seeds/workload_2.json"
rm -rf "$seeds"
echo "cross-seed ok: campaign and workload artifacts byte-identical across hash seeds"

echo "== benchmark records (BENCH_*.json regenerate byte-identically from benchmarks/) =="
records=$(mktemp -d)
CLIO_BENCH_RECORD_DIR="$records" PYTHONPATH=src python -m pytest benchmarks/ -q \
    -p no:cacheprovider > /dev/null
for record in BENCH_*.json; do
    cmp "$record" "$records/$record"
done
rm -rf "$records"
echo "records ok: every checked-in BENCH_*.json equals its regeneration"

echo "== benchmark of record, one run per path (every count + the sim fingerprint vs bench/expected.json, exactly) =="
# run.py exits 0 even on a mismatch, so the grep is the gate.  These are the
# runs of the CI job: commit-forced holds the forced append's counts,
# history-scan the read path's, ingest-batched the group commit's (at seeds
# 1 and 7, both recorded in bench/expected.json, so two payload streams
# cross its block and volume boundaries), and tail-follow those of reads of
# a tail block that appends rewrite between them.
for run in commit-forced:1 history-scan:1 ingest-batched:1 ingest-batched:7 \
        tail-follow:1; do
    python3 bench/run.py --workload "${run%:*}" --seed "${run#*:}" --seconds 15 \
        --trace 0 | tail -n 1 | grep -q '"correct": true'
done
echo "bench ok: counts and fingerprint equal bench/expected.json"

if python -c "import mypy" >/dev/null 2>&1; then
    echo "== mypy --strict (worm + vsystem + obs + workloads + annotated core) =="
    PYTHONPATH=src python -m mypy --strict \
        src/repro/worm src/repro/vsystem src/repro/obs \
        src/repro/workloads \
        src/repro/core/ids.py src/repro/core/naming.py \
        src/repro/core/entry.py src/repro/core/block.py \
        src/repro/core/catalog.py src/repro/core/sublog.py \
        src/repro/core/timeindex.py src/repro/core/recovery.py \
        src/repro/core/reader.py src/repro/core/entrymap.py
else
    echo "== mypy not installed; skipping type check =="
fi

echo "== size (the wc -l totals ROADMAP quotes; regenerate, do not type) =="
count() { find "$@" -name '*.py' -print0 | xargs -0 cat | wc -l; }
echo "engine  (core worm cache vsystem): $(count src/repro/core src/repro/worm src/repro/cache src/repro/vsystem)"
echo "tooling (obs lint cli.py):         $(count src/repro/obs src/repro/lint src/repro/cli.py)"
echo "  obs/:                            $(count src/repro/obs)"
echo "  lint/:                           $(count src/repro/lint)"
echo "  cli.py:                          $(count src/repro/cli.py)"
echo "src/repro:                         $(count src/repro)"
echo "apps group (apps fs baselines workloads analysis combined.py): $(count src/repro/apps src/repro/fs src/repro/baselines src/repro/workloads src/repro/analysis src/repro/combined.py)"
echo "bench:                             $(count bench)"
echo "import repro.cli loads:            $(PYTHONPATH=src python -c '
import sys, repro.cli
files = [m.__file__ for name, m in sys.modules.items() if name.split(".")[0] == "repro"]
print(len(files), "modules,", sum(len(open(f).readlines()) for f in files), "lines")')"
echo "docs/OBSERVABILITY.md:             $(wc -l < docs/OBSERVABILITY.md)"
echo "operator verbs (and arguments):    $(PYTHONPATH=src python -c '
from repro.cli import operator_verbs
verbs = operator_verbs()
print(len(verbs), "(" + str(sum(map(len, verbs.values()))) + ")", ", ".join(verbs))')"

echo "All checks passed."

#!/usr/bin/env bash
# Reruns both rounds of H1. Run from the repository root.
set -euo pipefail
for n in 0 25 100 400; do
  go run -C bench . -workload restart-cold -rounds "$n" | grep -E 'recover_(seq|par)_records_per_s'
done
for n in 0 5 10 25 100 400; do
  go run ./cmd/redobench -rounds "$n" -out /dev/null -tolerance 100 -obs.tolerance 100 -trace.tolerance 100 | grep -E 'sequential:|workers=2' || true
done

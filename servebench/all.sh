#!/bin/sh
# all.sh — run every servebench workload with tracing off and on, printing
# each run's full report (every metric by name, with run metadata). Run
# from the repository root:
#
#	sh servebench/all.sh [seed] [seconds]
set -eu
SEED=${1:-1}
SECONDS_PER_RUN=${2:-15}
for w in plan-sweep what-if-sim durable-repeat; do
	for t in 0 1; do
		echo "== $w seed $SEED trace $t"
		sh servebench/run.sh --workload "$w" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace "$t"
	done
done

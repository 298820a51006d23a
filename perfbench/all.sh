#!/bin/sh
# Every workload, untraced then traced, from the repository root:
#   sh perfbench/all.sh [SEED] [SECONDS]
set -e
seed=${1:-1}
seconds=${2:-35}
for workload in discover-match compare-k22 context-slices; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done

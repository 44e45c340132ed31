#!/usr/bin/env bash
# Run TPC-H on a real out-of-process hsqp cluster over loopback TCP.
#
# Spawns NODES `hsqp-node` server processes on OS-assigned ports, points
# the `hsqp` coordinator at them, and tears everything down afterwards.
# Any extra arguments are passed through to the coordinator:
#
#   examples/process_cluster.sh                       # 4 nodes, SF 0.01, all 22
#   NODES=2 SF=0.1 examples/process_cluster.sh --queries 1,3,6 --metrics
#   examples/process_cluster.sh --clients 4 --rounds 2 # concurrent clients
set -euo pipefail
cd "$(dirname "$0")/.."

NODES=${NODES:-4}
SF=${SF:-0.01}

cargo build --release --bin hsqp --bin hsqp-node

logdir=$(mktemp -d)
pids=()
cleanup() {
    kill "${pids[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$logdir"
}
trap cleanup EXIT

addrs=()
for i in $(seq 0 $((NODES - 1))); do
    ./target/release/hsqp-node --listen 127.0.0.1:0 \
        > "$logdir/node$i.out" 2> "$logdir/node$i.err" &
    pids+=($!)
done
for i in $(seq 0 $((NODES - 1))); do
    for _ in $(seq 1 100); do
        grep -q "listening on" "$logdir/node$i.out" 2>/dev/null && break
        sleep 0.1
    done
    addrs+=("$(awk '{print $NF}' "$logdir/node$i.out")")
done

cluster=$(IFS=,; echo "${addrs[*]}")
echo "cluster: $cluster" >&2
./target/release/hsqp --cluster "$cluster" --sf "$SF" "$@"

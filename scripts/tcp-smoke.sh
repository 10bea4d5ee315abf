#!/usr/bin/env bash
# Multi-process smoke test over loopback TCP: builds ./cmd/..., starts the six
# paris-server processes of a 3-DC × 3-partition × RF-2 deployment, commits
# one transaction that writes two keys on two partitions through a
# paris-client in DC 0, reads both back in one transaction through one in
# DC 2 (with a bounded retry while replication and the UST catch up, failing
# at once on a fractured read), then sends SIGTERM to every server and
# requires each to exit, cleanly, within 5 s.
#
# Usage: bash scripts/tcp-smoke.sh   (TCP_SMOKE_PORT sets the first of the six
# consecutive ports, default 7100)
set -euo pipefail

cd "$(dirname "$0")/.."
port=${TCP_SMOKE_PORT:-7100}
dir=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do
		kill -9 "$pid" 2>/dev/null || true
	done
	rm -rf "$dir"
}
trap cleanup EXIT
fail() {
	echo "tcp-smoke: $*" >&2
	for log in "$dir"/server-*.log; do
		echo "--- $log" >&2
		cat "$log" >&2
	done
	exit 1
}

go build -o "$dir" ./cmd/...

# Replica i of partition p lives in DC (p+i) mod 3.
replicas=("0 0" "1 0" "1 1" "2 1" "2 2" "0 2")
for i in "${!replicas[@]}"; do
	echo "${replicas[$i]} 127.0.0.1:$((port + i))"
done >"$dir/peers.txt"

flags=(-dcs 3 -partitions 3 -rf 2 -peers "$dir/peers.txt")
for i in "${!replicas[@]}"; do
	read -r dc p <<<"${replicas[$i]}"
	"$dir/paris-server" "${flags[@]}" -dc "$dc" -partition "$p" \
		-listen "127.0.0.1:$((port + i))" >"$dir/server-$i.log" 2>&1 &
	pids+=("$!")
done
for i in "${!replicas[@]}"; do
	for _ in $(seq 50); do
		grep -q listening "$dir/server-$i.log" && break
		kill -0 "${pids[$i]}" 2>/dev/null || fail "server $i exited at start"
		sleep 0.1
	done
	grep -q listening "$dir/server-$i.log" || fail "server $i is not listening after 5 s"
done

client() { # dc coordinator command
	printf '%s\nquit\n' "$3" |
		timeout 30 "$dir/paris-client" "${flags[@]}" -dc "$1" -coordinator "$2"
}

# With -partitions 3, topology.PartitionOf puts smoke:a on partition 0, whose
# DC-0 replica is the coordinator s0.0, and smoke:c on partition 1, replicated
# in DC 1 and DC 2 only: the commit prepares locally and on another process,
# the PrepareReq → CohortCommit path of a multi-cohort 2PC over TCP.
value="v$$"
out=$(client 0 0 "$(printf 'begin\nput smoke:a %s\nput smoke:c %s\ncommit' "$value" "$value")") ||
	fail "commit failed: $out"
grep -q "committed at" <<<"$out" || fail "the two-partition transaction did not commit: $out"

for attempt in $(seq 50); do
	out=$(client 2 1 "get smoke:a smoke:c") || fail "get failed: $out"
	seen=0
	for k in smoke:a smoke:c; do
		if grep -qF "$k = \"$value\"" <<<"$out"; then
			seen=$((seen + 1))
		fi
	done
	[ "$seen" -ne 1 ] || fail "fractured read: DC 2 saw one write of the transaction but not the other: $out"
	if [ "$seen" -eq 2 ]; then
		echo "tcp-smoke: read back both writes in DC 2 (attempt $attempt)"
		break
	fi
	[ "$attempt" -lt 50 ] || fail "DC 2 never read $value: $out"
	sleep 0.2
done

for i in "${!pids[@]}"; do
	kill -TERM "${pids[$i]}"
done
for i in "${!pids[@]}"; do
	for _ in $(seq 50); do
		kill -0 "${pids[$i]}" 2>/dev/null || break
		sleep 0.1
	done
	kill -0 "${pids[$i]}" 2>/dev/null && fail "server $i still running 5 s after SIGTERM"
	wait "${pids[$i]}" || fail "server $i exited with status $?"
done
pids=()
echo "tcp-smoke: ok"

#!/bin/sh
# Repo verification, in increasing order of cost:
#
#   gofmt      formatting drift
#   go vet     stock static analysis
#   iolint     the repo's own go/analysis suite (cmd/iolint): no panic on
#              the durability path, no engine bypass, consistent atomics,
#              virtual time in sim code, no discarded durable-write errors,
#              no leaked MVCC snapshots, lock acquisition in lockrank
#              order, no blocking under an exclusive lock, goroutine exit
#              signals, typed protocol-error handling
#   go build   everything compiles, including cmd/ and examples/
#   go test    tier-1 correctness
#   smoke      kvserve + loadgen + kvtop end to end: boot the server binary,
#              drive it over TCP, poll the live topology with the aggregator,
#              verify clean SIGINT shutdown
#   go test -race   the concurrent engine path: k sim processes and
#                   host-parallel detached clients through the sharded pager,
#                   plus an explicit pass over the crash/recovery suite
#
# The race pass skips the full-scale single-client experiment harnesses
# (see skipUnderRace in internal/experiments) — they have no goroutine
# concurrency to check and would push the package past its timeout.
#
# CI runs this script verbatim (.github/workflows/ci.yml); run it locally
# before pushing.
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

go vet ./...

# iolint: the custom analyzer suite (see DESIGN.md "Static analysis"). It
# subsumes the old grep-based panic lint — nopanic understands scope and the
# //lint:allowpanic escape hatch instead of pattern-matching source text —
# and adds the engine-bypass, atomic-field, virtual-time, wal-error, and
# snapshot-release checks, plus the concurrency invariants: lockorder
# (//lint:lockrank acquisition order, cross-package via facts),
# blockunderlock (no channel/IO/wait ops under an exclusive mutex),
# goroutinelife (serving goroutines must have a provable exit signal), and
# statuscheck (typed protocol sentinels handled via errors.Is, never
# discarded or text-matched). Exits non-zero on any diagnostic.
go run ./cmd/iolint ./...

# One node constructor: every kvserve node is built by cluster.Node
# (internal/cluster/node.go), so a server or a shipper is constructed
# nowhere else. perfbench keeps its own copy of the wiring as the
# benchmark's fixed reference, and the server package's tests build bare
# servers (cluster imports server, so they cannot use the node).
wiring=$(grep -rn --include='*.go' -E 'server\.New\(|NewShipper\(' . |
	grep -v -e '^\./vendor/' -e '^\./perfbench/' -e '^\./internal/cluster/node\.go:' \
		-e '^\./internal/server/[^/]*_test\.go:' -e 'func NewShipper(' || true)
if [ -n "$wiring" ]; then
	echo "server.New/NewShipper called outside internal/cluster/node.go; build the node with cluster.NewNode:" >&2
	echo "$wiring" >&2
	exit 1
fi

go build ./...
go test ./...

# Server smoke test: boot kvserve on the in-memory PDAM device, wait for
# the listening line, fire a loadgen burst at it, and verify a clean
# SIGINT shutdown (exit 0). This exercises the real binaries end to end —
# TCP framing, the batch read scheduler, group commit, graceful close —
# that unit tests only reach in-process.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"; kill $kvpid $clpids 2>/dev/null || true' EXIT
kvpid=""
clpids=""

# waitaddr LOGFILE: echo the address a kvserve instance reported, or fail.
waitaddr() {
	wa_addr=""
	wa_i=0
	while [ $wa_i -lt 100 ]; do
		wa_addr=$(sed -n 's/^kvserve: listening on //p' "$1" 2>/dev/null | head -n 1)
		[ -n "$wa_addr" ] && break
		sleep 0.1
		wa_i=$((wa_i + 1))
	done
	if [ -z "$wa_addr" ]; then
		echo "kvserve never reported its address:" >&2
		cat "$1" >&2
		return 1
	fi
	echo "$wa_addr"
}
go build -o "$smoke" ./cmd/kvserve ./cmd/loadgen ./cmd/kvtop
"$smoke/kvserve" -addr 127.0.0.1:0 -items 2000 -durable >"$smoke/kvserve.log" 2>&1 &
kvpid=$!
addr=$(waitaddr "$smoke/kvserve.log")
"$smoke/loadgen" -addr "$addr" -clients 4 -ops 200 -ycsb b -keys 2000 >"$smoke/loadgen.log" 2>&1 || {
	echo "loadgen failed:" >&2
	cat "$smoke/loadgen.log" >&2
	exit 1
}
grep -q "ops/s" "$smoke/loadgen.log" || {
	echo "loadgen printed no throughput:" >&2
	cat "$smoke/loadgen.log" >&2
	exit 1
}
# MVCC smoke on the same live server: open a snapshot, write past it, and
# require the pinned read to return the pre-write value (loadgen -snapcheck
# prints "snapcheck: ok" only if the stale read came back byte-identical).
"$smoke/loadgen" -addr "$addr" -snapcheck >"$smoke/snapcheck.log" 2>&1 || {
	echo "snapcheck failed:" >&2
	cat "$smoke/snapcheck.log" >&2
	exit 1
}
grep -q "snapcheck: ok" "$smoke/snapcheck.log" || {
	echo "snapcheck printed no verdict:" >&2
	cat "$smoke/snapcheck.log" >&2
	exit 1
}
kill -INT "$kvpid"
wait "$kvpid" || {
	echo "kvserve did not shut down cleanly:" >&2
	cat "$smoke/kvserve.log" >&2
	exit 1
}
kvpid=""

# Cluster smoke: a 2-shard cluster (shard 0 with a sync-ship primary and a
# WAL-shipping replica, shard 1 solo) under loadgen's acked-write audit.
# The shard-0 primary is SIGKILLed mid-run; the router must fail over and
# promote the replica, and every write the cluster acknowledged — including
# those acked just before the kill — must read back afterwards. loadgen
# prints "0 lost acks" only if the audit is clean.
"$smoke/kvserve" -addr 127.0.0.1:0 -durable -shard 0 -shards 2 -sync-ship >"$smoke/cl-p0.log" 2>&1 &
clpids=$!
p0addr=$(waitaddr "$smoke/cl-p0.log")
"$smoke/kvserve" -addr 127.0.0.1:0 -durable -shard 0 -shards 2 -replica-of "$p0addr" >"$smoke/cl-r0.log" 2>&1 &
clpids="$clpids $!"
"$smoke/kvserve" -addr 127.0.0.1:0 -durable -shard 1 -shards 2 >"$smoke/cl-p1.log" 2>&1 &
clpids="$clpids $!"
r0addr=$(waitaddr "$smoke/cl-r0.log")
p1addr=$(waitaddr "$smoke/cl-p1.log")
"$smoke/loadgen" -cluster "$p0addr/$r0addr;$p1addr" -verify -clients 4 -ops 300 >"$smoke/cl-verify.log" 2>&1 &
lgpid=$!
sleep 2
# kvtop smoke against the live topology, before the primary is killed:
# -once -json must report every node reachable with the replica's lag
# estimator populated, and -watch with a generous lag bound must agree the
# cluster is healthy (exit 0). Both run the real aggregator end to end —
# topology parsing, the wire Stats op, the alarm evaluation.
"$smoke/kvtop" -cluster "$p0addr/$r0addr;$p1addr" -once -json >"$smoke/kvtop.json" 2>&1 || {
	echo "kvtop -once failed:" >&2
	cat "$smoke/kvtop.json" >&2
	exit 1
}
grep -q '"healthy": true' "$smoke/kvtop.json" || {
	echo "kvtop reported an unhealthy cluster:" >&2
	cat "$smoke/kvtop.json" >&2
	exit 1
}
grep -q '"ship_lag"' "$smoke/kvtop.json" || {
	echo "kvtop document carries no replication-lag block:" >&2
	cat "$smoke/kvtop.json" >&2
	exit 1
}
"$smoke/kvtop" -cluster "$p0addr/$r0addr;$p1addr" -watch -max-lag-seconds 30 >"$smoke/kvtop-watch.log" 2>&1 || {
	echo "kvtop -watch alarmed on a healthy cluster:" >&2
	cat "$smoke/kvtop-watch.log" >&2
	exit 1
}
p0pid=$(echo "$clpids" | cut -d' ' -f1)
kill -9 "$p0pid" 2>/dev/null || true
wait "$lgpid" || {
	echo "cluster failover audit failed:" >&2
	cat "$smoke/cl-verify.log" >&2
	echo "--- replica log:" >&2
	cat "$smoke/cl-r0.log" >&2
	exit 1
}
grep -q "0 lost acks" "$smoke/cl-verify.log" || {
	echo "cluster audit printed no clean verdict:" >&2
	cat "$smoke/cl-verify.log" >&2
	exit 1
}
grep -q "acked" "$smoke/cl-verify.log"
kill $clpids 2>/dev/null || true
for pid in $clpids; do
	wait "$pid" 2>/dev/null || true
done
clpids=""

# iotrace smoke: the end-to-end tracing pipeline as a CLI — load a B-tree
# on the simulated disk, trace queries under the span tracer, and require
# (a) the live residual table renders and (b) the affine refinement beats
# the DAM on read residuals (-assert exits non-zero otherwise): the paper's
# §4.2 prediction-error ordering, recomputed on every CI run.
go run ./cmd/iotrace -tree b -device hdd -items 30000 -cache 1048576 -ops 150 -assert >"$smoke/iotrace.log" 2>&1 || {
	echo "iotrace smoke failed:" >&2
	cat "$smoke/iotrace.log" >&2
	exit 1
}
grep -q "model residuals" "$smoke/iotrace.log" || {
	echo "iotrace printed no residual table:" >&2
	cat "$smoke/iotrace.log" >&2
	exit 1
}

# The same smoke on the multi-queue device: the residual table must carry
# the mq model's row (the fourth model, E23) and -assert requires the mq
# prediction to beat the DAM on read residuals.
go run ./cmd/iotrace -tree b -device mq -node 4096 -items 30000 -cache 1048576 -ops 300 -clients 32 -assert >"$smoke/iotrace-mq.log" 2>&1 || {
	echo "iotrace mq smoke failed:" >&2
	cat "$smoke/iotrace-mq.log" >&2
	exit 1
}
grep -q "^  mq " "$smoke/iotrace-mq.log" || {
	echo "iotrace mq residual row missing:" >&2
	cat "$smoke/iotrace-mq.log" >&2
	exit 1
}

# Fuzz smoke (not run here — fuzzing is open-ended and CI is budgeted; the
# seed corpora run as ordinary tests in the go test pass above). To shake the
# decoders locally:
#
#   go test ./internal/kv  -run '^$' -fuzz=FuzzDec    -fuzztime=30s
#   go test ./internal/wal -run '^$' -fuzz=FuzzReplay -fuzztime=30s

# The crash-consistency, MVCC snapshot and ship-ring suites under the race
# detector, named explicitly so a future -short or skip in the full pass
# cannot silently drop them (the snapshot tests race concurrent pinned
# readers against the mutation bracket; the ship-ring tests race a
# ShipSince puller against a writer wrapping the ring).
go test -race -run 'Crash|Fault|Replay|Durab|Recover|Torn|LogFull|NoSteal|Stats|Snapshot|MVCC|Ship' \
	./internal/wal ./internal/storage ./internal/engine

# The server package entire under the race detector: real TCP handlers, the
# batch scheduler, the group-commit writer, and the snapshot read path are
# the most goroutine-dense code in the repo, so it gets an explicit pass a
# future -short cannot drop.
go test -race ./internal/server

# The cluster package entire under the race detector: the router's failover
# path, the WAL shipper, and the kill-primary-mid-load acceptance test all
# race real goroutines over real TCP, so it too gets a named pass.
go test -race ./internal/cluster

# The multi-queue device and the lane scheduler under the race detector,
# named explicitly: the lane scheduler's per-lane launch/complete path and
# the E23 serving round are the queue-aware additions (the mqssd package
# itself is single-goroutine behind the engine, but its tests assert the
# degeneracy contract the lanes rely on).
go test -race ./internal/mqssd
go test -race -run 'Lane|Scheduler|Batch' ./internal/server

# The span tracer's and trace ring's concurrency regressions, named
# explicitly for the same reason (the full -race pass below also covers the
# end-to-end residual tests).
go test -race -run 'TracerConcurrent|TraceConcurrentSetCap' ./internal/obs ./internal/storage

# The cluster-observability chain under the race detector, named explicitly:
# the merged-trace test races a traced client against the primary's writer
# and the replica's shipper while asserting the cross-process span links;
# the interop and ext-decode tests pin the wire trace-context contract; and
# E24's sync round holds real acks on the shipper's pull position while the
# lag estimator and gate histogram are read from another goroutine.
go test -race -run 'MergedTraceSpans|Interop|Ext|TraceContext' \
	./internal/cluster ./internal/server ./internal/kv
go test -race -run 'E24ShipLag' ./internal/experiments

# The analyzer suite's own tests under the race detector, plus the iolint
# roster test: the atest harness type-checks packages concurrently, and the
# roster test re-runs the full suite over the repo (a regression if a new
# analyzer is written but never registered, or the tree stops being clean
# under its own gate).
go test -race ./internal/analysis/... ./cmd/iolint

go test -race -timeout 20m ./...
echo "all checks passed"

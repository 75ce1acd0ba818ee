#!/bin/sh
# serve-smoke: end-to-end exercise of the `dlbench serve` daemon contract.
#
#   1. start the daemon on port 0 (kernel-assigned) with a journal,
#   2. parse the printed address line to learn the binding,
#   3. drive a small loadgen burst through it and require the accounting
#      invariant (every submission completed/failed/explicitly rejected),
#   4. run one inference job, render one `dlbench top` frame, and check
#      the per-job trace/profile and the /metrics stage summaries,
#   5. SIGTERM the daemon and require a clean drain within the budget.
#
# Exits non-zero on any violated step; `make serve-smoke` runs it and
# `make check` folds it into the tier-1 gate.
set -eu

GO="${GO:-go}"
bin="$(mktemp -d)"
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$bin"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building dlbench + loadgen"
$GO build -o "$bin/dlbench" ./cmd/dlbench
$GO build -o "$bin/loadgen" ./cmd/loadgen

log="$bin/serve.log"
"$bin/dlbench" serve -addr localhost:0 -workers 2 -journal "$bin/journal.jsonl" 2>"$log" &
pid=$!

# The daemon prints its resolved address before accepting traffic; that
# line is the automation contract for port-0 bindings.
addr=""
i=0
while [ $i -lt 100 ]; do
	addr="$(sed -n 's#.*listening on http://\([^ ]*\).*#\1#p' "$log" | head -n 1)"
	[ -n "$addr" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "serve-smoke: FAIL: daemon exited before printing its address" >&2
		cat "$log" >&2
		exit 1
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "serve-smoke: FAIL: daemon never printed its address line" >&2
	cat "$log" >&2
	exit 1
fi
echo "serve-smoke: daemon up on $addr"

# A tiny burst: enough concurrency to queue behind 2 workers, small
# enough to finish fast. loadgen exits non-zero if any accepted job is
# lost, the accounting does not balance, or (-stream-every 1) any
# terminal job's event stream has a seq gap — i.e. silently lost events.
"$bin/loadgen" -addr "$addr" -clients 4 -jobs 1 -deadline 3m -stream-every 1

# One inference job end-to-end: submit a batch-1 int8 serving job, then
# stream its JSONL event log — the stream stays open until the job is
# terminal, so a single GET captures the whole log — and require that it
# terminates with the latency summary the worker emits for infer jobs.
echo "serve-smoke: inference job"
http_post() {
	if command -v curl >/dev/null 2>&1; then
		curl -sS -X POST -H 'Content-Type: application/json' \
			-H 'X-DLBench-Client: smoke-infer' -d "$2" "$1"
	else
		wget -qO- --header='Content-Type: application/json' \
			--header='X-DLBench-Client: smoke-infer' --post-data="$2" "$1"
	fi
}
http_get() {
	if command -v curl >/dev/null 2>&1; then
		curl -sS --max-time 180 "$1"
	else
		wget -qO- -T 180 "$1"
	fi
}
reply="$(http_post "http://$addr/jobs" \
	'{"framework":"int8","dataset":"mnist","scale":"test","mode":"infer","batch":1,"requests":10}')"
jid="$(printf '%s' "$reply" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$jid" ]; then
	echo "serve-smoke: FAIL: inference job not accepted: $reply" >&2
	exit 1
fi
events="$bin/infer_events.jsonl"
http_get "http://$addr/jobs/$jid/events" >"$events" || true
if ! grep -q '"type":"infer.summary"' "$events"; then
	echo "serve-smoke: FAIL: inference event stream has no infer.summary" >&2
	cat "$events" >&2
	exit 1
fi
if ! grep '"type":"infer.summary"' "$events" | grep -q 'latency_p50_ms'; then
	echo "serve-smoke: FAIL: inference summary carries no latency percentiles" >&2
	grep '"type":"infer.summary"' "$events" >&2
	exit 1
fi
if ! tail -n 1 "$events" | grep '"type":"job.done"' | grep -q '"state":"completed"'; then
	echo "serve-smoke: FAIL: inference event stream did not terminate with completion" >&2
	tail -n 3 "$events" >&2
	exit 1
fi
echo "serve-smoke: inference summary OK ($jid)"

# The live dashboard against the real daemon: `dlbench top` reads only
# /status, so one frame must show the exec stage with the jobs run so far.
echo "serve-smoke: dlbench top"
topout="$bin/top.txt"
"$bin/dlbench" top -addr "$addr" -n 1 >"$topout"
execcount="$(awk '$1 == "exec" { print $NF }' "$topout")"
if [ -z "$execcount" ] || [ "$execcount" -eq 0 ]; then
	echo "serve-smoke: FAIL: dlbench top shows no exec stage row with a non-zero count" >&2
	cat "$topout" >&2
	exit 1
fi
echo "serve-smoke: top OK (exec count $execcount)"

# Per-job observability: the completed job must serve a well-formed
# Chrome trace (its span tree, including the execution span) and a
# non-empty attribution profile, and /metrics must carry the per-stage
# latency summaries the job's lifecycle fed.
echo "serve-smoke: per-job trace + profile"
trace="$bin/trace.json"
http_get "http://$addr/jobs/$jid/trace" >"$trace"
if ! grep -q '"traceEvents"' "$trace"; then
	echo "serve-smoke: FAIL: /trace is not a Chrome trace_event document" >&2
	head -c 500 "$trace" >&2
	exit 1
fi
if ! grep -q '"job.exec"' "$trace"; then
	echo "serve-smoke: FAIL: /trace has no job.exec span" >&2
	head -c 500 "$trace" >&2
	exit 1
fi
prof="$bin/profile.txt"
http_get "http://$addr/jobs/$jid/profile" >"$prof"
if ! grep -q 'Attribution profile' "$prof"; then
	echo "serve-smoke: FAIL: /profile has no attribution table" >&2
	head -c 500 "$prof" >&2
	exit 1
fi
metricsdump="$bin/metrics.txt"
http_get "http://$addr/metrics" >"$metricsdump"
for fam in dlbench_server_queue_wait_seconds dlbench_server_exec_seconds dlbench_server_e2e_seconds; do
	if ! grep -q "$fam" "$metricsdump"; then
		echo "serve-smoke: FAIL: /metrics missing $fam" >&2
		grep '^dlbench_server' "$metricsdump" >&2 || true
		exit 1
	fi
done
echo "serve-smoke: trace/profile/metrics OK"

echo "serve-smoke: SIGTERM drain"
kill -TERM "$pid"
i=0
while [ $i -lt 600 ]; do
	kill -0 "$pid" 2>/dev/null || break
	sleep 0.1
	i=$((i + 1))
done
if kill -0 "$pid" 2>/dev/null; then
	echo "serve-smoke: FAIL: daemon still running 60s after SIGTERM" >&2
	cat "$log" >&2
	exit 1
fi
wait "$pid" || {
	echo "serve-smoke: FAIL: daemon exited non-zero" >&2
	cat "$log" >&2
	exit 1
}
pid=""
if ! grep -q "dlbench serve: drained" "$log"; then
	echo "serve-smoke: FAIL: no drain confirmation in daemon log" >&2
	cat "$log" >&2
	exit 1
fi
echo "serve-smoke: OK"

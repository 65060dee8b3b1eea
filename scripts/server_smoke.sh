#!/usr/bin/env bash
# Black-box smoke test of the credoserved daemon — the CI server-smoke
# job and `make server-smoke` both run exactly this script.
#
# It builds the binary, boots it on ephemeral ports with the sprinkler
# network and a JSONL trace, then drives the public surface with curl:
# liveness, the registry listing, a cold posterior query (validated for
# shape and normalization with jq), a warm-start second query, the error
# body contract, a graph-delta round-trip through POST /v1/update (the
# prior drift must advance the generation and re-converge the warm
# snapshot in place, so the query after it still warm-starts), and the
# Prometheus counters, latency histograms and flight recorder on the
# ops sidecar (-flight-slow-ms 0 forces every traced query into the
# recorder, so the dump is deterministic). Finally it shuts the daemon
# down gracefully and checks the telemetry trace is well-formed JSONL
# covering the load, the queries, the update and the flight records.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${BIN:-./credoserved.smoke}
LOG=${LOG:-server-smoke.log}
TRACE=${TRACE:-server-smoke.jsonl}
FLIGHT=${FLIGHT:-server-smoke-flight.json}
rm -f "$LOG" "$TRACE" "$FLIGHT"

go build -o "$BIN" ./cmd/credoserved

"$BIN" -listen 127.0.0.1:0 -ops 127.0.0.1:0 \
  -load sprinkler=bif:internal/bif/testdata/sprinkler.bif \
  -flight-slow-ms 0 \
  -trace-out "$TRACE" >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# The daemon prints its bound addresses once each plane is listening.
ADDR= OPS=
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's#^serving .* on http://\([0-9.:]*\)/v1/query$#\1#p' "$LOG")
  OPS=$(sed -n 's#^ops plane on http://\([0-9.:]*\)/metrics.*$#\1#p' "$LOG")
  [ -n "$ADDR" ] && [ -n "$OPS" ] && break
  sleep 0.1
done
if [ -z "$ADDR" ] || [ -z "$OPS" ]; then
  echo "daemon did not become ready; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "query plane on $ADDR, ops plane on $OPS"

curl -fsS "http://$ADDR/healthz" >/dev/null

curl -fsS "http://$ADDR/v1/graphs" \
  | jq -e '.[0].name == "sprinkler" and .[0].nodes == 4 and .[0].warm == false' >/dev/null

# Cold query: converged, not warm, answered by a solo engine (the
# daemon does not batch), posterior is a 2-state distribution.
curl -fsS -X POST "http://$ADDR/v1/query" \
  -H 'Content-Type: application/json' \
  -d '{"evidence":[{"node":"wetgrass","state":1}],"nodes":["rain"]}' \
  | jq -e '.converged == true and .warm == false
      and (.engine | length) > 0 and .engine != "batch"
      and (.beliefs.rain | length) == 2
      and ((.beliefs.rain | add) > 0.999) and ((.beliefs.rain | add) < 1.001)' >/dev/null
echo "cold query OK"

# Second query with extra evidence: must take the warm-start path.
curl -fsS -X POST "http://$ADDR/v1/query?engine=residual" \
  -H 'Content-Type: application/json' \
  -d '{"evidence":[{"node":"wetgrass","state":1},{"node":"cloudy","state":0}],"nodes":["rain"]}' \
  | jq -e '.converged == true and .warm == true' >/dev/null
echo "warm query OK"

# Error contract: bad requests come back as {"error": ...}.
curl -s -X POST "http://$ADDR/v1/query?engine=bogus" -d '{}' \
  | jq -e '.error | length > 0' >/dev/null
curl -s -X POST "http://$ADDR/v1/query" \
  -d '{"evidence":[{"node":"nope","state":0}]}' \
  | jq -e '.error | length > 0' >/dev/null
echo "error contract OK"

# Dynamic-graph update round-trip: a prior drift lands through
# POST /v1/update, advances the graph generation, and re-converges the
# warm snapshot in place (non-structural, small frontier). The update
# is visible in the registry listing, and the query after it — same
# evidence as the warm query — still takes the warm path, now against
# the mutated world.
GEN0=$(curl -fsS "http://$ADDR/v1/graphs" | jq '.[0].generation')
curl -fsS -X POST "http://$ADDR/v1/update" \
  -H 'Content-Type: application/json' \
  -d '{"updates":[{"op":"prior","node":"sprinkler","prior":[0.8,0.2]}]}' \
  | jq -e '.applied == 1 and .structural == false
      and .converged == true and .warm == true
      and .generation > '"$GEN0" >/dev/null
curl -fsS "http://$ADDR/v1/graphs" \
  | jq -e '.[0].warm == true and .[0].generation > '"$GEN0" >/dev/null
curl -fsS -X POST "http://$ADDR/v1/query?engine=residual" \
  -H 'Content-Type: application/json' \
  -d '{"evidence":[{"node":"wetgrass","state":1},{"node":"cloudy","state":0}],"nodes":["rain"]}' \
  | jq -e '.converged == true and .warm == true' >/dev/null
# A malformed update is rejected at decode time: bare error body,
# nothing applied.
curl -s -X POST "http://$ADDR/v1/update" \
  -d '{"updates":[{"op":"evidence","node":"rain","state":9}]}' \
  | jq -e '.error | length > 0' >/dev/null
# An operation rejected at apply time mid-batch (retracting a clamp the
# update path never placed) leaves the applied prefix committed, and
# the error comes back alongside the structured response — applied and
# generation let the client resync without parsing the error string.
curl -s -X POST "http://$ADDR/v1/update" \
  -d '{"updates":[{"op":"prior","node":"rain","prior":[0.5,0.5]},{"op":"retract","node":"wetgrass"}]}' \
  | jq -e '(.error | length > 0) and .applied == 1 and .generation > '"$GEN0" >/dev/null
echo "update round-trip OK"

# Ops sidecar: the serve counters reflect the three successful queries
# (two of them warm) and the one applied delta batch. Every query took
# the solo path, so no batched flush executed.
METRICS=$(curl -fsS "http://$OPS/metrics")
echo "$METRICS" | grep -q '^credo_serve_queries_total 3$'
echo "$METRICS" | grep -q '^credo_serve_warm_total 2$'
echo "$METRICS" | grep -q '^credo_serve_loads_total 1$'
echo "$METRICS" | grep -q '^credo_serve_updates_total 1$'
echo "$METRICS" | grep -q '^credo_serve_mutations_total 1$'
echo "$METRICS" | grep -q '^credo_serve_batch_flushes 0$'
echo "ops sidecar OK"

# Latency histograms: all three queries land in the labelled log
# buckets (one cold, two warm — the per-family counts sum to 3), the
# quantile gauges render, and the span stages fed their histograms.
# The count is the last field: engine labels may hold a space ("C Edge").
echo "$METRICS" | grep -q '^credo_serve_latency_seconds_bucket{'
[ "$(echo "$METRICS" | awk '/^credo_serve_latency_seconds_count\{/ {sum += $NF} END {print sum+0}')" = 3 ]
echo "$METRICS" | grep -q 'credo_serve_latency_quantile_seconds{.*q="0.99"}'
echo "$METRICS" | grep -q '^credo_serve_stage_seconds_bucket{stage="decode"'
# The engine's own stage: the residual run span that the request trace
# derives from the engine's run_start/run_end probe events.
echo "$METRICS" | grep -q '^credo_serve_stage_seconds_bucket{stage="bp.residual"'
curl -fsS "http://$OPS/debug/vars" \
  | jq -e '.["credo.telemetry"]
      | .serve_latency_count == 3
        and .serve_updates == 1
        and .serve_latency_p50 > 0
        and .serve_latency_p95 >= .serve_latency_p50
        and .serve_latency_p99 >= .serve_latency_p95' >/dev/null
echo "latency histograms OK"

# Flight recorder: -flight-slow-ms 0 flags every traced request, so
# four traces were captured with their span trees — the cold query,
# both warm queries, and the bad-evidence request (its trace ends at
# the decode error; the engine=bogus request fails before a trace
# starts, and the update path is untraced). Each warm query's trace
# holds the residual engine's run span, derived from its probe events.
# The dump is kept as a CI artifact.
curl -fsS "http://$OPS/debug/flight" >"$FLIGHT"
jq -e '.captured == 4
    and (.records | length) == 4
    and all(.records[]; .reasons | index("slow") != null)
    and all(.records[]; (.spans | length) > 0)
    and any(.records[].spans[]; .name == "decode")
    and ([.records[] | select(.warm)] | length) == 2
    and all(.records[] | select(.warm); any(.spans[]; .name == "bp.residual"))
    and all(.records[].spans[]; .end_ns >= .start_ns)' "$FLIGHT" >/dev/null
echo "flight recorder OK"

# Graceful shutdown on SIGTERM.
kill "$PID"
wait "$PID"
trap - EXIT

# The trace is valid JSONL and frames the session: the startup load,
# the three queries (two warm, all labelled with their impl), the
# delta batch, no batched flush, and the flight records interleaved as
# kind=flight lines.
jq -es 'length > 0
    and any(.[]; .engine == "serve.load")
    and ([.[] | select(.engine == "serve.query")] | length) == 3
    and any(.[]; .engine == "serve.query" and .warm == true)
    and all(.[] | select(.engine == "serve.query"); .impl | length > 0)
    and ([.[] | select(.engine == "serve.update")] | length) == 1
    and all(.[] | select(.engine == "serve.update"); .warm == true and .converged == true)
    and ([.[] | select(.engine == "serve.batch")] | length) == 0
    and ([.[] | select(.kind == "flight")] | length) == 4
    and all(.[] | select(.kind == "flight"); .spans | length > 0)' "$TRACE" >/dev/null
echo "telemetry trace OK"

echo "server smoke OK"

#!/bin/sh
# sweep_smoke.sh
#
# End-to-end smoke test of the fleet-observability pipeline (`make
# sweep-smoke`): a tiny two-point channel-latency sweep runs with the task
# journal, per-permutation run manifests and the live dashboard all enabled,
# then every downstream consumer is driven over the artifacts it produced:
#
#   1. sssweep -journal/-manifest-dir/-serve runs the campaign while the
#      script polls the live /sweep endpoint and checks it serves valid
#      progress JSON and /metrics exposes the sweep_* Prometheus series;
#   2. the run manifests must parse and carry the sweep-point labels;
#   3. ssparse -tasks renders the journal summary and the per-task CSV;
#   4. ssplot -plot taskgantt renders the timeline with the resource
#      utilization row.
#
# The observability additions must also keep the disabled hot path free; that
# is TestSteadyStateAllocations and TestFigure5AllocationBudget, which `make
# cover` runs beside this target in `make ci`.
set -eu

go=${GO:-go}
tmp=$(mktemp -d)
sweep_pid=
trap 'test -z "$sweep_pid" || kill "$sweep_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

echo "sweep-smoke: building tools"
"$go" build -o "$tmp/bin/" ./cmd/sssweep ./cmd/ssparse ./cmd/ssplot

cat > "$tmp/config.json" <<'EOF'
{
  "simulation": {"seed": 7},
  "network": {
    "topology": "torus",
    "dimensions": [4, 4],
    "concentration": 1,
    "channel": {"latency": 2, "period": 1},
    "injection": {"latency": 1},
    "router": {
      "architecture": "input_queued",
      "num_vcs": 2,
      "input_buffer_depth": 64,
      "crossbar_latency": 2
    }
  },
  "workload": {
    "applications": [{
      "type": "blast",
      "injection_rate": 0.3,
      "message_size": 1,
      "warmup_duration": 1000,
      "sample_duration": 60000,
      "traffic": {"type": "uniform_random"}
    }]
  }
}
EOF

addr=127.0.0.1:${SWEEP_SMOKE_PORT:-18327}
echo "sweep-smoke: running two-point sweep with journal, manifests and dashboard on $addr"
"$tmp/bin/sssweep" -cpus 1 \
    -var Lat=CL=network.channel.latency=uint=2,4 \
    -journal "$tmp/tasks.jsonl" \
    -manifest-dir "$tmp/manifests" \
    -serve "$addr" \
    "$tmp/config.json" > "$tmp/sweep.csv" 2> "$tmp/sweep.log" &
sweep_pid=$!

# Probe the live dashboard while the campaign runs. /sweep must serve valid
# JSON with the expected task counters; /metrics must expose sweep_* series.
live_json= live_prom=
i=0
while [ $i -lt 150 ]; do
    if [ -z "$live_json" ] && curl -fsS "http://$addr/sweep" > "$tmp/sweep.json" 2>/dev/null; then
        live_json=1
    fi
    if [ -z "$live_prom" ] && curl -fsS "http://$addr/metrics" 2>/dev/null | grep -q '^supersim_sweep_tasks_total'; then
        live_prom=1
    fi
    if [ -n "$live_json" ] && [ -n "$live_prom" ]; then
        break
    fi
    if ! kill -0 "$sweep_pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
    i=$((i + 1))
done

wait "$sweep_pid"
sweep_pid=
if [ -z "$live_json" ] || [ -z "$live_prom" ]; then
    echo "sweep-smoke: FAIL — dashboard on $addr never answered while the sweep ran (sweep log follows)" >&2
    cat "$tmp/sweep.log" >&2
    exit 1
fi
python3 - "$tmp/sweep.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["tasks"]["total"] != 2:
    raise SystemExit(f"sweep-smoke: /sweep reported {doc['tasks']['total']} tasks, want 2")
EOF
echo "sweep-smoke: live /sweep JSON and /metrics Prometheus exposition OK"

# The sweep CSV itself: a header and one row per permutation.
rows=$(wc -l < "$tmp/sweep.csv")
if [ "$rows" -ne 3 ]; then
    echo "sweep-smoke: FAIL — sweep CSV has $rows lines, want 3" >&2
    cat "$tmp/sweep.csv" >&2
    exit 1
fi

# Run manifests: one valid JSON document per permutation, labeled with its
# sweep point.
for id in "CL=2" "CL=4"; do
    python3 - "$tmp/manifests/$id.manifest.json" "$id" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["schema"] == "supersim-manifest", m["schema"]
assert m["labels"]["point"] == sys.argv[2], m["labels"]
assert m["sim_ticks"] > 0 and m["events"] > 0
EOF
done
echo "sweep-smoke: run manifests OK"

echo "sweep-smoke: ssparse -tasks over the journal"
"$tmp/bin/ssparse" -tasks "$tmp/tasks.jsonl" -csv "$tmp/tasks.csv" | grep -E '^tasks: +2 \(2 succeeded'
task_rows=$(wc -l < "$tmp/tasks.csv")
if [ "$task_rows" -ne 3 ]; then
    echo "sweep-smoke: FAIL — task CSV has $task_rows lines, want 3" >&2
    exit 1
fi

echo "sweep-smoke: ssplot -plot taskgantt over the journal"
"$tmp/bin/ssplot" -plot taskgantt "$tmp/tasks.jsonl" | grep '^task gantt: 2 tasks'

echo "sweep-smoke: OK"

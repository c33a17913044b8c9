package main

import (
	"io"
	"path/filepath"
	"testing"
)

// tinyScale keeps every code path of every workload but little data, so the
// whole benchmark runs in seconds.
var tinyScale = scale{
	customers: 200, orders: 400, itemsPerOrder: 2, replOrders: 300, browsePool: 4,
	minSamples: 0, setups: 1,
	browseRound: 5, serveRound: 10, ingestRound: 50, prefixRounds: 2,
	verifyOrders: 50,
}

func runTiny(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.3, trace: trace, out: t.TempDir(), scale: tinyScale}
	cfg.dir = filepath.Join(cfg.out, "data")
	res, err := run(workloads[workload], cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// healthyZero names, per workload, the per-layer metrics it measures whose
// healthy value is 0; every other metric it does not bypass must be
// non-zero.
var healthyZero = map[string][]string{
	// Each window prepares its statements once, when it opens: the
	// engine's plan cache is never consulted again.
	"browse": {"engine.prepares_per_op", "engine.plan_hit_ratio"},
	// The data fits the buffer pool, statements are prepared during
	// warm-up and one client writes.
	"serve": {"storage.pool_miss_per_op", "storage.evictions_per_op", "engine.prepares_per_op",
		"txn.write_conflicts"},
	// The data fits the buffer pool, inserts stream no rows and the two
	// sessions insert disjoint keys.
	"ingest": {"storage.pool_miss_per_op", "storage.evictions_per_op", "engine.rows_streamed_per_op",
		"txn.write_conflicts"},
	// As serve, but one connection per node prepares each statement once,
	// so the plan cache is never hit; and a replica that keeps up is never
	// skipped, never makes reads fall back to the primary, and lags by 0
	// bytes most of the time.
	"replicate": {"storage.pool_miss_per_op", "storage.evictions_per_op", "engine.prepares_per_op",
		"engine.plan_hit_ratio", "txn.write_conflicts", "client.fallbacks", "client.stale_skips", "replica.lag_bytes_p50",
		"replica.stream_errors"},
}

// TestMetricsNamedAndDeterministic runs every workload twice per mode with
// the same seed. Every end-to-end and per-layer metric must appear with its
// unit; a per-layer metric must read 0 exactly where its workload bypasses
// the layer or 0 is its healthy value; and the counts that depend only on
// the seed must repeat exactly.
func TestMetricsNamedAndDeterministic(t *testing.T) {
	exact := map[string][]string{
		"browse":    {"core.rows_per_pgdn", "core.count_queries_per_refresh"},
		"serve":     {"server.msgs_per_op", "server.rows_sent_per_op"},
		"ingest":    {"txn.recovery_records"},
		"replicate": {},
	}
	for _, name := range []string{"browse", "serve", "ingest", "replicate"} {
		t.Run(name, func(t *testing.T) {
			a, b := runTiny(t, name, false), runTiny(t, name, false)
			for _, n := range endToEnd {
				if m, ok := a.Metrics[n]; !ok || m.Unit == "" {
					t.Errorf("end-to-end metric %s missing or without unit: %+v", n, m)
				}
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reported %d metrics, want %d", len(a.Metrics), len(endToEnd))
			}
			if x, y := a.Metrics["disk_bytes_per_row"].Value, b.Metrics["disk_bytes_per_row"].Value; x != y {
				t.Errorf("disk_bytes_per_row differs between runs: %v vs %v", x, y)
			}

			ta, tb := runTiny(t, name, true), runTiny(t, name, true)
			zeroOK := map[string]bool{}
			for _, n := range healthyZero[name] {
				zeroOK[n] = true
			}
			for _, pl := range perLayer {
				m, ok := ta.Metrics[pl.name]
				switch {
				case !ok || m.Unit != pl.unit:
					t.Errorf("per-layer metric %s missing or with the wrong unit: %+v", pl.name, m)
				case bypasses(name, pl.name) && m.Value != 0:
					t.Errorf("%s is bypassed but reads %v", pl.name, m.Value)
				case !bypasses(name, pl.name) && !zeroOK[pl.name] && m.Value == 0:
					t.Errorf("%s is measured but reads 0", pl.name)
				}
			}
			if len(ta.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(ta.Metrics), len(perLayer))
			}
			for _, n := range exact[name] {
				if x, y := ta.Metrics[n].Value, tb.Metrics[n].Value; x != y || x == 0 {
					t.Errorf("%s: %v vs %v, want equal and non-zero", n, x, y)
				}
			}
		})
	}
}

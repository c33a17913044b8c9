package main

import (
	"runtime"
	"time"

	"repro/internal/engine"
)

// engineCounters snapshots the engine and buffer-pool counters of db.
func engineCounters(db *engine.Database) map[string]float64 {
	st := db.Stats()
	return map[string]float64{
		"engine.prepared":      float64(st.StatementsPrepared),
		"engine.plan_hits":     float64(st.PlanCacheHits),
		"engine.plan_misses":   float64(st.PlanCacheMisses),
		"engine.rows_streamed": float64(st.RowsStreamed),
		"storage.misses":       float64(st.BufferPool.Misses),
		"storage.evictions":    float64(st.BufferPool.Evictions),
		"storage.flushed":      float64(st.BufferPool.FlushedPages),
		"txn.committed":        float64(st.Committed),
		"txn.fsyncs":           float64(st.GroupCommitBatches),
		"txn.conflicts":        float64(st.WriteConflicts),
	}
}

// engineLayers sets the engine and buffer-pool metrics from the counted
// window's engineCounters differences d over d["ops"] operations; after is
// the window's closing snapshot.
func engineLayers(d, after map[string]float64, m metrics) {
	ops := d["ops"]
	// Statements are prepared once per window or connection, mostly during
	// set-up, so the hit ratio is taken over everything since the database
	// was opened; prepares_per_op shows any re-preparing in the window.
	m.set("engine.plan_hit_ratio", "ratio", ratio(after["engine.plan_hits"], after["engine.plan_hits"]+after["engine.plan_misses"]))
	m.set("engine.prepares_per_op", "1/op", ratio(d["engine.prepared"], ops))
	m.set("engine.rows_streamed_per_op", "rows", ratio(d["engine.rows_streamed"], ops))
	m.set("storage.pool_miss_per_op", "1/op", ratio(d["storage.misses"], ops))
	m.set("storage.evictions_per_op", "1/op", ratio(d["storage.evictions"], ops))
}

// walLayers sets the durable-commit metrics of a workload with a WAL file
// from the counted window's differences d, which include "txn.wal_bytes".
func walLayers(d map[string]float64, m metrics) {
	m.set("txn.commits_per_fsync", "ratio", ratio(d["txn.committed"], d["txn.fsyncs"]))
	m.set("txn.wal_bytes_per_commit", "B", ratio(d["txn.wal_bytes"], d["txn.committed"]))
	m.set("txn.write_conflicts", "count", d["txn.conflicts"])
}

// reopen times engine.Open on a closed database's files n times, after a
// garbage collection so every run starts the series from the same heap, and
// returns the median in seconds, with the last opened database left open
// for the caller's checks.
func reopen(n int, opts engine.Options) (float64, *engine.Database, error) {
	var times []float64
	var db *engine.Database
	runtime.GC()
	for i := 0; i < n; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return 0, nil, err
			}
		}
		start := time.Now()
		var err error
		db, err = engine.Open(opts)
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), db, nil
}

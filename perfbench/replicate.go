package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
)

// replicate is fleet reads under a write stream: a primary server with a
// file-backed WAL and one server.Replica server applying its streamed WAL,
// both in-process. One writer runs an open loop at a fixed rate well below
// saturation, sending single-row UPDATEs through client.Fleet.GetWrite and
// timed from each write's due time. One reader runs a closed loop
// alternating point reads and 200-row range sums through Fleet.GetRead,
// auditing the staleness bound on every read. It is the only workload that
// exercises WAL streaming, replica apply and fleet routing.

const (
	// writePace is the writer's schedule: 125 updates per second.
	writePace = 8 * time.Millisecond
	// maxLagBytes is the fleet's staleness bound in WAL bytes.
	maxLagBytes = 64 << 10
	// probeEvery is how many reads pass between the reader's pings of the
	// replica. The fleet's timed prober is off, and the replica pool's LSN
	// view only moves when one of its connections is released: once the
	// replica fell behind the bound, reads would skip it, and its view
	// would never move again.
	probeEvery = 64
)

type replicateBench struct {
	cfg     config
	data    *dataset
	walPath string
	primary *engine.Database
	replDB  *engine.Database
	psrv    *server.Server
	pdone   chan error
	rsrv    *server.Server
	rdone   chan error
	replica *server.Replica
	fleet   *client.Fleet
	reads   int
	// diskBytesPerRow is measured right after the load.
	diskBytesPerRow float64
}

func setupReplicate(cfg config, dir string) (bench, error) {
	b := &replicateBench{cfg: cfg, walPath: filepath.Join(dir, "primary.wal")}
	db, err := engine.Open(engine.Options{WALPath: b.walPath})
	if err != nil {
		return nil, err
	}
	b.primary = db
	sc := cfg.scale
	if b.data, err = populate(db, cfg.seed, sc.customers, sc.replOrders, sc.itemsPerOrder); err != nil {
		b.abort()
		return nil, err
	}
	b.diskBytesPerRow = float64(fileSize(b.walPath)) / float64(b.data.rows())
	var paddr, raddr string
	if b.psrv, b.pdone, paddr, err = serveOn(db); err != nil {
		b.abort()
		return nil, err
	}
	if b.replDB, err = engine.Open(engine.Options{}); err != nil {
		b.abort()
		return nil, err
	}
	b.replica = server.NewReplica(b.replDB, paddr)
	if b.rsrv, b.rdone, raddr, err = serveOn(b.replDB); err != nil {
		b.abort()
		return nil, err
	}
	b.rsrv.SetReadOnly(true)
	b.rsrv.SetLSNSource(b.replica.AppliedLSN)
	b.replica.Start()
	if err := b.catchUp(); err != nil {
		b.abort()
		return nil, err
	}
	// One connection per pool; no background prober (freshness comes from
	// the LSNs every response carries).
	b.fleet = client.NewFleet(paddr, []string{raddr}, client.FleetConfig{
		Pool:          client.PoolConfig{Size: 1, FetchSize: serveFetch, HealthCheckAfter: time.Minute},
		MaxLagBytes:   maxLagBytes,
		ProbeInterval: -1,
	})
	b.fleet.Probe()
	for i := 0; i < 2; i++ {
		w := newWorker(-1-i, cfg.seed, nil)
		w.due = time.Now()
		if err := b.block(w); err != nil || w.failed > 0 {
			b.abort()
			return nil, fmt.Errorf("warm-up: %v %v", err, w.errs)
		}
	}
	return b, nil
}

// catchUp waits until the replica has applied everything the primary made
// durable.
func (b *replicateBench) catchUp() error {
	target := uint64(b.primary.Transactions().WAL().DurableLSN())
	deadline := time.Now().Add(60 * time.Second)
	for b.replica.AppliedLSN() < target {
		if time.Now().After(deadline) {
			st := b.replica.Stats()
			return fmt.Errorf("replica stuck at LSN %d of %d (%s)", st.AppliedLSN, target, st.LastError)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (b *replicateBench) layout() layout {
	return layout{workers: 2, pace: []time.Duration{writePace, 0}}
}

func (b *replicateBench) facts() string {
	return fmt.Sprintf("flush=group-commit fsync per batch (primary WAL) replicas=1 writer=%d/s open loop max_lag=%dB",
		time.Second/writePace, maxLagBytes)
}

// block is one write for the writer (worker 0) and a point read plus a
// range sum for the reader (worker 1, or any negative warm-up worker id).
func (b *replicateBench) block(w *worker) error {
	if w.id == 0 || w.id == -1 {
		id := 1 + w.rng.Intn(b.data.customers)
		credit := randomCredit(w.rng)
		w.opFrom(w.due, classWrite, "write", func() error {
			h, err := checkout(w, b.fleet.GetWrite)
			if err != nil {
				return err
			}
			defer h.Release()
			return updateCredit(w, h, id, credit)
		})
		return nil
	}
	id := 1 + w.rng.Intn(b.data.customers)
	lo := 1 + w.rng.Intn(b.data.items-rangeRows+1)
	w.op(classRead, "point", func() error {
		return b.read(w, func(h *client.PooledConn) error { return pointRead(w, h, id) })
	})
	w.op(classQuery, "range", func() error {
		return b.read(w, func(h *client.PooledConn) error { return rangeRead(w, h, b.data, lo) })
	})
	if b.reads%probeEvery == 0 {
		return b.probeReplica()
	}
	return nil
}

// probeReplica pings the replica through its own pool, which refreshes the
// fleet's view of the replica's applied LSN.
func (b *replicateBench) probeReplica() error {
	h, err := b.fleet.Replicas()[0].Get()
	if err != nil {
		return err
	}
	defer h.Release()
	return h.Conn().Ping()
}

// read routes one read through the fleet and audits the staleness bound:
// the serving node's LSN must be within maxLagBytes of the primary frontier
// the fleet knew when it routed the read.
func (b *replicateBench) read(w *worker, fn func(h *client.PooledConn) error) error {
	required := b.fleet.PrimaryLSN()
	h, err := checkout(w, func() (*client.PooledConn, error) {
		h, _, err := b.fleet.GetRead()
		return h, err
	})
	if err != nil {
		return err
	}
	err = fn(h)
	served := h.Conn().LastLSN()
	h.Release()
	if err != nil {
		return err
	}
	if b.reads++; b.reads%16 == 0 {
		st := b.fleet.Stats()
		w.sample("lag_bytes", float64(st.PrimaryLSN-min(st.PrimaryLSN, st.ReplicaLSNs[0])))
	}
	if served+maxLagBytes < required {
		return fmt.Errorf("stale read: served at LSN %d, primary frontier %d, bound %d", served, required, maxLagBytes)
	}
	return nil
}

func (b *replicateBench) barrier() (time.Duration, error) { return 0, nil }

func (b *replicateBench) counters() map[string]float64 {
	c := engineCounters(b.primary)
	// Reads run on the replica: its statement and buffer-pool counters add
	// to the primary's. Its commits are applied, not logged, so the txn
	// counters are the primary's alone.
	for k, v := range engineCounters(b.replDB) {
		if !strings.HasPrefix(k, "txn.") {
			c[k] += v
		}
	}
	c["txn.wal_bytes"] = float64(fileSize(b.walPath))
	addServerCounters(c, b.psrv, b.fleet.Primary())
	rs := b.rsrv.Stats()
	c["server.msgs"] += float64(rs.MessagesServed)
	c["server.rows_sent"] += float64(rs.RowsSent)
	c["client.stmt_hits"] += float64(b.fleet.Replicas()[0].Stats().StmtCacheHits)
	fs := b.fleet.Stats()
	c["client.read_checkouts"] = float64(fs.ReadCheckouts)
	c["client.replica_reads"] = float64(fs.ReplicaReads)
	c["client.fallbacks"] = float64(fs.PrimaryFallbacks)
	c["client.stale_skips"] = float64(fs.StaleSkips)
	st := b.replica.Stats()
	c["replica.txns"] = float64(st.TxnsApplied)
	c["replica.stream_errors"] = float64(st.StreamErrors)
	return c
}

func (b *replicateBench) layers(d map[string]float64, ph *phaseResult, m metrics) {
	engineLayers(d, ph.after, m)
	walLayers(d, m)
	serverLayers(d, ph, m)
	m.set("client.replica_share", "ratio", ratio(d["client.replica_reads"], d["client.read_checkouts"]))
	m.set("client.fallbacks", "count", d["client.fallbacks"])
	m.set("client.stale_skips", "count", d["client.stale_skips"])
	m.set("replica.apply_txns_s", "1/s", d["replica.txns"]/ph.elapsed.Seconds())
	m.set("replica.lag_bytes_p50", "B", median(ph.samples["lag_bytes"]))
	m.set("replica.stream_errors", "count", d["replica.stream_errors"])
	m.set("load.late_us_p99", "us", percentile(ph.samples["late_us"], 0.99))
}

// finish checks the replica converges with the primary once the writes
// stop, then closes everything and times recovery of the primary's WAL.
func (b *replicateBench) finish(w *worker, m metrics) error {
	w.check(b.converged())
	b.fleet.Close()
	b.fleet = nil
	b.replica.Stop()
	b.replica = nil
	b.stopServers()
	err := b.replDB.Close()
	b.replDB = nil
	if err == nil {
		err = b.primary.Close()
	}
	b.primary = nil
	if err != nil {
		return err
	}
	m.set("disk_bytes_per_row", "B", b.diskBytesPerRow)
	rec, db, err := reopen(1, engine.Options{WALPath: b.walPath})
	if err != nil {
		return err
	}
	m.set("recover_s", "s", rec)
	return db.Close()
}

// converged waits for the replica to apply the primary's durable log and
// compares the row counts and every customer's credit on both.
func (b *replicateBench) converged() error {
	if err := b.catchUp(); err != nil {
		return err
	}
	for _, q := range []string{"SELECT COUNT(*) FROM order_items", "SELECT id, credit FROM customers ORDER BY id"} {
		p, err := queryAll(b.primary, q)
		if err != nil {
			return err
		}
		r, err := queryAll(b.replDB, q)
		if err != nil {
			return err
		}
		if len(p) != len(r) {
			return fmt.Errorf("%s: primary has %d rows, replica %d", q, len(p), len(r))
		}
		for i := range p {
			if !p[i].Equal(r[i]) {
				return fmt.Errorf("%s: row %d is %v on the primary, %v on the replica", q, i, p[i], r[i])
			}
		}
	}
	return nil
}

func (b *replicateBench) stopServers() {
	if b.psrv != nil {
		b.psrv.Close()
		<-b.pdone
		b.psrv = nil
	}
	if b.rsrv != nil {
		b.rsrv.Close()
		<-b.rdone
		b.rsrv = nil
	}
}

func (b *replicateBench) abort() {
	if b.fleet != nil {
		b.fleet.Close()
		b.fleet = nil
	}
	if b.replica != nil {
		b.replica.Stop()
		b.replica = nil
	}
	b.stopServers()
	for _, db := range []*engine.Database{b.replDB, b.primary} {
		if db != nil {
			db.Close()
		}
	}
	b.replDB, b.primary = nil, nil
}

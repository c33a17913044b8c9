package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// ingest is durable order entry: two sessions each repeatedly commit an
// explicit transaction inserting one order and two order_items rows, on a
// file-backed WAL with group commit and an fsync per batch, on the
// filesystem of the checkout. The load runs in epochs of a fixed number of
// commits, so the database's size, and with it the heap and the recovery
// time, does not depend on how fast commits are. At the end of an epoch
// both sessions wait at a barrier and the benchmark calls
// Database.Checkpoint() (CheckpointInterval is 0, so nothing runs on a
// timer); then, outside the measured time, a fixed tail of commits lands
// past the checkpoint, the database is closed and reopened (recover_s), a
// sample of acknowledged orders is read back, and the next epoch starts on
// a fresh database. The load exercises WAL append, group commit,
// checkpointing and recovery, and bypasses the read paths, core and the
// wire.

const (
	ingestWorkers = 2
	ingestPoint   = "SELECT id, customer_id FROM orders WHERE id = ?"
	ingestItems   = "SELECT id FROM order_items WHERE order_id = ?"
)

type ingestBench struct {
	cfg       config
	dir       string
	epoch     int
	customers int
	db        *engine.Database
	walPath   string
	dbPath    string
	sess      [ingestWorkers]*engine.Session
	order     [ingestWorkers]*engine.Stmt
	item      [ingestWorkers]*engine.Stmt
	// next counts each worker's orders in the epoch: worker g's j'th order
	// has id 2j+g+1 and items 2id-1 and 2id. acked counts those committed.
	next, acked [ingestWorkers]int
	// base accumulates the counters of finished epochs; initial holds the
	// current database's counters after its set-up. counters reports
	// base plus what the current epoch added, so differences span epochs.
	base, initial map[string]float64
	ckptMs        []float64
	recoverS      []float64
	// recoveryRecords is the log records the last reopen scanned past its
	// checkpoint: the tail, the same for every epoch.
	recoveryRecords float64
	// diskBytesPerRow is measured in the first epoch right after its
	// checkpoint, before the tail, so it repeats exactly for a seed.
	diskBytesPerRow float64
	// verifier collects the end-of-epoch checks and their read latencies.
	verifier *worker
}

func setupIngest(cfg config, dir string) (bench, error) {
	b := &ingestBench{
		cfg: cfg, dir: dir, customers: cfg.scale.customers,
		base: map[string]float64{}, verifier: newWorker(98, cfg.seed, nil),
	}
	if err := b.openEpoch(); err != nil {
		b.abort()
		return nil, err
	}
	return b, nil
}

func (b *ingestBench) opts() engine.Options {
	return engine.Options{DataPath: b.dbPath, WALPath: b.walPath}
}

// openEpoch creates the next epoch's database: the customers, a prepared
// insert pair per session and a few warm-up commits.
func (b *ingestBench) openEpoch() error {
	b.epoch++
	dir := filepath.Join(b.dir, fmt.Sprintf("epoch%d", b.epoch))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.walPath, b.dbPath = filepath.Join(dir, "ingest.wal"), filepath.Join(dir, "ingest.db")
	db, err := engine.Open(b.opts())
	if err != nil {
		return err
	}
	b.db = db
	if _, err := populate(db, b.cfg.seed, b.customers, 0, 1); err != nil {
		return err
	}
	b.next, b.acked = [ingestWorkers]int{}, [ingestWorkers]int{}
	for g := range b.sess {
		b.sess[g] = db.Session()
		if b.order[g], err = b.sess[g].Prepare(insertOrder); err == nil {
			b.item[g], err = b.sess[g].Prepare(insertItem)
		}
		if err != nil {
			return err
		}
	}
	for g := range b.sess {
		w := newWorker(g, b.cfg.seed-1, nil)
		for i := 0; i < 8; i++ {
			if err := b.commit(w, g); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	b.initial = b.rawCounters()
	return nil
}

func (b *ingestBench) layout() layout {
	return layout{workers: ingestWorkers, round: b.cfg.scale.ingestRound}
}

func (b *ingestBench) facts() string {
	return fmt.Sprintf("flush=group-commit fsync per batch checkpoint=every %d commits (at a barrier) pool=8.0MB",
		ingestWorkers*b.cfg.scale.ingestRound)
}

func (b *ingestBench) block(w *worker) error {
	w.op(classWrite, "commit", func() error { return b.commit(w, w.id) })
	return nil
}

// commit runs worker g's next order-entry transaction.
func (b *ingestBench) commit(w *worker, g int) error {
	id := 2*b.next[g] + g + 1
	b.next[g]++
	s := b.sess[g]
	w.tr.begin(layerEngine, "engine.begin", 0)
	_, err := s.Execute("BEGIN")
	w.tr.end()
	if err != nil {
		return err
	}
	w.tr.begin(layerEngine, "engine.insert", 0)
	_, err = b.order[g].Exec(orderRow(w.rng, id, b.customers)...)
	for k := 1; k <= 2 && err == nil; k++ {
		_, err = b.item[g].Exec(itemRow(w.rng, 2*id-2+k, id)...)
	}
	w.tr.end()
	if err != nil {
		_, rerr := s.Execute("ROLLBACK")
		return fmt.Errorf("order %d: %w (rollback: %v)", id, err, rerr)
	}
	w.tr.begin(layerTxn, "txn.commit", 0)
	_, err = s.Execute("COMMIT")
	w.tr.end()
	if err != nil {
		return fmt.Errorf("commit of order %d: %w", id, err)
	}
	b.acked[g]++
	return nil
}

// barrier ends an epoch: every worker has committed the same transactions
// and none is in flight. The checkpoint is part of the load; what follows
// it is paused time.
func (b *ingestBench) barrier() (time.Duration, error) {
	start := time.Now()
	if _, err := b.db.Checkpoint(); err != nil {
		return 0, err
	}
	b.ckptMs = append(b.ckptMs, float64(time.Since(start).Nanoseconds())/1e6)
	if b.epoch == 1 {
		rows := b.customers + 3*(b.acked[0]+b.acked[1])
		b.diskBytesPerRow = float64(fileSize(b.walPath)+fileSize(b.dbPath)) / float64(rows)
	}
	pause := time.Now()
	if err := b.closeEpoch(); err != nil {
		return time.Since(pause), err
	}
	err := b.openEpoch()
	return time.Since(pause), err
}

// closeEpoch commits the tail, closes the database, times its reopen and
// checks every acknowledged order survived.
func (b *ingestBench) closeEpoch() error {
	tail := newWorker(0, b.cfg.seed-2, nil)
	for i := 0; i < b.cfg.scale.ingestRound/10; i++ {
		if err := b.commit(tail, i%ingestWorkers); err != nil {
			b.verifier.fail(err)
		}
	}
	final := b.rawCounters()
	for k, v := range final {
		b.base[k] += v - b.initial[k]
	}
	if err := b.closeDB(); err != nil {
		return err
	}
	rec, db, err := reopen(1, b.opts())
	if err != nil {
		return err
	}
	b.recoverS = append(b.recoverS, rec)
	b.recoveryRecords = float64(db.Recovery().TailRecords)
	// Collect the replay's garbage first, so no GC cycle runs under the
	// timed reads.
	runtime.GC()
	err = b.verify(b.verifier, db)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.RemoveAll(filepath.Dir(b.walPath))
}

func (b *ingestBench) closeDB() error {
	for g := range b.sess {
		if b.sess[g] != nil {
			b.order[g].Close()
			b.item[g].Close()
			b.sess[g].Close()
			b.sess[g] = nil
		}
	}
	if b.db == nil {
		return nil
	}
	err := b.db.Close()
	b.db = nil
	return err
}

func (b *ingestBench) rawCounters() map[string]float64 {
	c := engineCounters(b.db)
	c["txn.wal_bytes"] = float64(fileSize(b.walPath))
	c["txn.checkpoints"] = float64(b.db.Stats().CheckpointsTaken)
	return c
}

func (b *ingestBench) counters() map[string]float64 {
	c := map[string]float64{}
	for k, v := range b.base {
		c[k] = v
	}
	if b.db != nil {
		for k, v := range b.rawCounters() {
			c[k] += v - b.initial[k]
		}
	}
	return c
}

func (b *ingestBench) layers(d map[string]float64, ph *phaseResult, m metrics) {
	engineLayers(d, ph.after, m)
	walLayers(d, m)
	m.set("storage.pages_flushed_per_ckpt", "pages", ratio(d["storage.flushed"], d["txn.checkpoints"]))
	m.set("txn.checkpoint_ms", "ms", median(b.ckptMs))
	m.set("txn.recovery_records", "count", b.recoveryRecords)
}

// finish closes the epoch the last barrier opened, which holds only its
// set-up, and reports what the epochs measured.
func (b *ingestBench) finish(w *worker, m metrics) error {
	w.absorb(b.verifier)
	if err := b.closeDB(); err != nil {
		return err
	}
	if len(b.recoverS) == 0 {
		return fmt.Errorf("no epoch completed")
	}
	m.set("disk_bytes_per_row", "B", b.diskBytesPerRow)
	m.set("recover_s", "s", median(b.recoverS))
	return nil
}

// verify checks that every acknowledged order survived the reopen: the
// table counts match, and a sample of orders reads back with their items.
// The sample's reads give ingest its read and query latencies.
func (b *ingestBench) verify(w *worker, db *engine.Database) error {
	acked := b.acked[0] + b.acked[1]
	w.check(func() error {
		n, err := scalar(db, "SELECT COUNT(*) FROM orders")
		if err == nil && int(n.Int()) != acked {
			err = fmt.Errorf("recovered %d orders, %d were acknowledged", n.Int(), acked)
		}
		return err
	}())
	w.check(func() error {
		n, err := scalar(db, "SELECT COUNT(*) FROM order_items")
		if err == nil && int(n.Int()) != 2*acked {
			err = fmt.Errorf("recovered %d order_items, %d were acknowledged", n.Int(), 2*acked)
		}
		return err
	}())

	s := db.Session()
	defer s.Close()
	point, err := s.Prepare(ingestPoint)
	if err != nil {
		return err
	}
	defer point.Close()
	items, err := s.Prepare(ingestItems)
	if err != nil {
		return err
	}
	defer items.Close()
	for i := 0; i < b.cfg.scale.verifyOrders; i++ {
		g := w.rng.Intn(ingestWorkers)
		id := 2*w.rng.Intn(b.acked[g]) + g + 1
		w.op(classRead, "verify.order", func() error {
			ids, err := queryInts(point, id)
			if err == nil && (len(ids) != 1 || ids[0] != int64(id)) {
				err = fmt.Errorf("order %d read back as %v", id, ids)
			}
			return err
		})
		w.op(classQuery, "verify.items", func() error {
			ids, err := queryInts(items, id)
			if err == nil && (len(ids) != 2 || ids[0]+ids[1] != int64(4*id-1)) {
				err = fmt.Errorf("order %d has items %v, want %d and %d", id, ids, 2*id-1, 2*id)
			}
			return err
		})
	}
	return nil
}

// queryInts runs a prepared one-parameter query and returns the first
// column of every row.
func queryInts(st *engine.Stmt, arg int) ([]int64, error) {
	rows, err := st.Query(types.NewInt(int64(arg)))
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []int64
	for rows.Next() {
		out = append(out, rows.Row()[0].Int())
	}
	return out, rows.Err()
}

func (b *ingestBench) abort() { b.closeDB() }

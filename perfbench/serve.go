package main

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// serve is remote clients of wowserver: two goroutines in a closed loop
// share a two-connection client.Pool against an in-process server.Server
// on loopback. Across the two clients, every twenty operations are sixteen
// prepared point SELECTs by primary key (uniform over the customers), two
// 200-row order_items range reads streamed through cursor Fetch, and two
// durable autocommit point UPDATEs. The database has a file-backed, group-committed
// WAL and data that fits the default 1024-page buffer pool. The load
// exercises the wire server, dispatch, the pool and the shared plan cache,
// with a few durable writes beside the reads, and bypasses core.

const (
	servePoint  = "SELECT id, name, city, credit FROM customers WHERE id = ?"
	serveRange  = "SELECT id, qty FROM order_items WHERE id >= ? AND id <= ?"
	serveUpdate = "UPDATE customers SET credit = ? WHERE id = ?"
	// rangeRows is how many rows one range read returns; serveFetch is the
	// cursor fetch size, so a range read streams over several Fetches.
	rangeRows  = 200
	serveFetch = 64
	// serveWorkers is the number of request-issuing goroutines and pooled
	// connections.
	serveWorkers = 2
)

type serveBench struct {
	cfg     config
	db      *engine.Database
	data    *dataset
	walPath string
	dbPath  string
	srv     *server.Server
	done    chan error
	pool    *client.Pool
	// diskBytesPerRow is measured right after the load.
	diskBytesPerRow float64
}

func setupServe(cfg config, dir string) (bench, error) {
	b := &serveBench{cfg: cfg, walPath: filepath.Join(dir, "serve.wal"), dbPath: filepath.Join(dir, "serve.db")}
	db, err := engine.Open(b.opts())
	if err != nil {
		return nil, err
	}
	b.db = db
	sc := cfg.scale
	if b.data, err = populate(db, cfg.seed, sc.customers, sc.orders, sc.itemsPerOrder); err != nil {
		b.abort()
		return nil, err
	}
	b.diskBytesPerRow = float64(fileSize(b.walPath)+fileSize(b.dbPath)) / float64(b.data.rows())
	var addr string
	if b.srv, b.done, addr, err = serveOn(db); err != nil {
		b.abort()
		return nil, err
	}
	b.pool = client.NewPool(addr, client.PoolConfig{
		Size: serveWorkers, FetchSize: serveFetch, HealthCheckAfter: time.Minute,
	})
	// Warm up: dial both connections, prepare every statement on each and
	// run one block per connection.
	var hs []*client.PooledConn
	for i := 0; i < serveWorkers; i++ {
		h, err := b.pool.Get()
		if err != nil {
			b.abort()
			return nil, err
		}
		hs = append(hs, h)
		for _, q := range []string{servePoint, serveRange, serveUpdate} {
			if _, err := h.Prepare(q); err != nil {
				b.abort()
				return nil, err
			}
		}
	}
	for _, h := range hs {
		h.Release()
	}
	for i := 0; i < serveWorkers; i++ {
		w := newWorker(-1-i, cfg.seed, nil)
		if err := b.block(w); err != nil || w.failed > 0 {
			b.abort()
			return nil, fmt.Errorf("warm-up: %v %v", err, w.errs)
		}
	}
	return b, nil
}

func (b *serveBench) opts() engine.Options {
	return engine.Options{DataPath: b.dbPath, WALPath: b.walPath}
}

// serveOn starts srv on a loopback port; done receives Serve's result.
func serveOn(db *engine.Database) (srv *server.Server, done chan error, addr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	srv = server.New(db)
	done = make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, done, ln.Addr().String(), nil
}

func (b *serveBench) layout() layout {
	return layout{workers: serveWorkers, round: b.cfg.scale.serveRound}
}

func (b *serveBench) facts() string {
	data := fileSize(b.dbPath)
	return fmt.Sprintf("flush=group-commit fsync per batch data=%.1fMB pool=8.0MB data/pool=%.2fx (fits)", float64(data)/(1<<20), float64(data)/(8<<20))
}

// serveBlocks are the two clients' operation mixes, shuffled per block.
// Only the first client writes: while two transactions update one table
// concurrently, the engine loses rows (later point reads of some customers
// return no row), which would fail every run.
var serveBlocks = [2][]string{
	{"point", "point", "point", "point", "point", "point", "point", "range", "update", "update"},
	{"point", "point", "point", "point", "point", "point", "point", "point", "point", "range"},
}

func (b *serveBench) block(w *worker) error {
	ops := append([]string(nil), serveBlocks[w.id&1]...)
	w.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, name := range ops {
		switch name {
		case "point":
			id := 1 + w.rng.Intn(b.data.customers)
			w.op(classRead, name, func() error { return b.point(w, id) })
		case "range":
			lo := 1 + w.rng.Intn(b.data.items-rangeRows+1)
			w.op(classQuery, name, func() error { return b.rangeSum(w, lo) })
		case "update":
			id := 1 + w.rng.Intn(b.data.customers)
			credit := randomCredit(w.rng)
			w.op(classWrite, name, func() error { return b.update(w, id, credit) })
		}
	}
	return nil
}

// checkout times Pool.Get.
func checkout(w *worker, get func() (*client.PooledConn, error)) (*client.PooledConn, error) {
	var h *client.PooledConn
	us, err := w.timed(layerClient, "client.checkout", func() error {
		var err error
		h, err = get()
		return err
	})
	w.sample("checkout_us", us)
	return h, err
}

func (b *serveBench) point(w *worker, id int) error {
	h, err := checkout(w, b.pool.Get)
	if err != nil {
		return err
	}
	defer h.Release()
	return pointRead(w, h, id)
}

// pointRead reads one customer and checks the row is the one asked for.
func pointRead(w *worker, h *client.PooledConn, id int) error {
	n := 0
	var got int64
	err := drain(w, "point", h, servePoint, func(row types.Tuple) {
		got = row[0].Int()
		n++
	}, types.NewInt(int64(id)))
	if err != nil {
		return err
	}
	if n != 1 || got != int64(id) {
		return fmt.Errorf("customer %d: got %d rows, id %d", id, n, got)
	}
	return nil
}

// drain runs a query through a pooled connection and hands each row to fn,
// with spans around the round trip that executes it (wire.<name>.query),
// the row loop with its further Fetch round trips (wire.<name>.fetch) and
// the cursor close (wire.<name>.close).
func drain(w *worker, name string, h *client.PooledConn, query string, fn func(types.Tuple), args ...types.Value) error {
	w.tr.begin(layerWire, "wire."+name+".query", 0)
	rows, err := h.Query(query, args...)
	w.tr.end()
	if err != nil {
		return err
	}
	w.tr.begin(layerWire, "wire."+name+".fetch", 0)
	for rows.Next() {
		fn(rows.Row())
	}
	w.tr.end()
	err = rows.Err()
	w.tr.begin(layerWire, "wire."+name+".close", 0)
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	w.tr.end()
	return err
}

func (b *serveBench) rangeSum(w *worker, lo int) error {
	h, err := checkout(w, b.pool.Get)
	if err != nil {
		return err
	}
	defer h.Release()
	return rangeRead(w, h, b.data, lo)
}

// rangeRead streams rangeRows order_items and checks their qty sum against
// the load.
func rangeRead(w *worker, h *client.PooledConn, data *dataset, lo int) error {
	hi := lo + rangeRows - 1
	n := 0
	var sum int64
	err := drain(w, "range", h, serveRange, func(row types.Tuple) {
		sum += row[1].Int()
		n++
	}, types.NewInt(int64(lo)), types.NewInt(int64(hi)))
	if err != nil {
		return err
	}
	if want := data.qtySum(lo, hi); n != rangeRows || sum != want {
		return fmt.Errorf("items %d..%d: %d rows summing to %d, want %d summing to %d", lo, hi, n, sum, rangeRows, want)
	}
	return nil
}

func (b *serveBench) update(w *worker, id int, credit float64) error {
	h, err := checkout(w, b.pool.Get)
	if err != nil {
		return err
	}
	defer h.Release()
	return updateCredit(w, h, id, credit)
}

// updateCredit runs one durable autocommit UPDATE and checks it hit one row.
func updateCredit(w *worker, h *client.PooledConn, id int, credit float64) error {
	w.tr.begin(layerWire, "wire.update", 0)
	res, err := h.Exec(serveUpdate, types.NewFloat(credit), types.NewInt(int64(id)))
	w.tr.end()
	if err != nil {
		return err
	}
	if res.RowsAffected != 1 {
		return fmt.Errorf("update of customer %d affected %d rows", id, res.RowsAffected)
	}
	return nil
}

func (b *serveBench) barrier() (time.Duration, error) { return 0, nil }

func (b *serveBench) counters() map[string]float64 {
	c := engineCounters(b.db)
	c["txn.wal_bytes"] = float64(fileSize(b.walPath))
	addServerCounters(c, b.srv, b.pool)
	return c
}

// addServerCounters adds the server's and a pool's counters to c.
func addServerCounters(c map[string]float64, srv *server.Server, pool *client.Pool) {
	st := srv.Stats()
	c["server.msgs"] = float64(st.MessagesServed)
	c["server.rows_sent"] = float64(st.RowsSent)
	ps := pool.Stats()
	c["client.stmt_hits"] = float64(ps.StmtCacheHits)
}

// serverLayers sets the server and client metrics shared by serve and
// replicate.
func serverLayers(d map[string]float64, ph *phaseResult, m metrics) {
	ops := d["ops"]
	m.set("server.msgs_per_op", "1/op", ratio(d["server.msgs"], ops))
	m.set("server.rows_sent_per_op", "rows", ratio(d["server.rows_sent"], ops))
	m.set("client.checkout_wait_us", "us", median(ph.samples["checkout_us"]))
	// Every statement an operation runs either hits a connection's
	// statement cache or is prepared on the server.
	m.set("client.stmt_cache_hit_ratio", "ratio", ratio(d["client.stmt_hits"], d["client.stmt_hits"]+d["engine.prepared"]))
}

func (b *serveBench) layers(d map[string]float64, ph *phaseResult, m metrics) {
	engineLayers(d, ph.after, m)
	walLayers(d, m)
	serverLayers(d, ph, m)
}

// serveReopens is how many times recover_s times engine.Open.
const serveReopens = 3

// finish shuts the server down with a checkpoint before closing, so
// recover_s is a restart from the checkpoint image. Without it recovery
// would replay every UPDATE of the run, each of which scans the table
// (replicate's recover_s keeps that replay in).
func (b *serveBench) finish(w *worker, m metrics) error {
	b.stopServing()
	_, err := b.db.Checkpoint()
	if cerr := b.db.Close(); err == nil {
		err = cerr
	}
	b.db = nil
	if err != nil {
		return err
	}
	m.set("disk_bytes_per_row", "B", b.diskBytesPerRow)
	rec, db, err := reopen(serveReopens, b.opts())
	if err != nil {
		return err
	}
	m.set("recover_s", "s", rec)
	n, err := scalar(db, "SELECT COUNT(*) FROM order_items")
	if err == nil && int(n.Int()) != b.data.items {
		err = fmt.Errorf("recovered %d order_items, want %d", n.Int(), b.data.items)
	}
	w.check(err)
	return db.Close()
}

func (b *serveBench) stopServing() {
	if b.pool != nil {
		b.pool.Close()
		b.pool = nil
	}
	if b.srv != nil {
		b.srv.Close()
		<-b.done
		b.srv = nil
	}
}

func (b *serveBench) abort() {
	b.stopServing()
	if b.db != nil {
		b.db.Close()
		b.db = nil
	}
}

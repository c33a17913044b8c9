package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// browse is the paper's own workload: one operator at a terminal pages
// through order_items in item_form, runs query-by-form city queries in
// customer_form (whose order detail block follows the cursor) and edits
// credits, while a good_customer_form window stays open so every save
// propagates. The database is file-backed with a 256-page (2 MiB) buffer
// pool, about a third of the data, and has no WAL file: the load exercises
// the forms runtime, the executor and the buffer pool past its capacity,
// and bypasses the wire, the client and durable logging.

type browseBench struct {
	cfg      config
	db       *engine.Database
	data     *dataset
	dataPath string
	wm       *core.Manager
	items    *core.Window
	cust     *core.Window
	good     *core.Window
	// cur is the worker whose operation is running; the traced source
	// records engine spans on its tracer.
	cur *worker
	// goodCount tracks how many customers the good_customers view should
	// show.
	goodCount int
	// Cumulative counts the per-layer metrics are taken from.
	pgdns, pgdnRows, countQueries, saves float64
	diskBytesPerRow                      float64
}

func setupBrowse(cfg config, dir string) (bench, error) {
	b := &browseBench{cfg: cfg, dataPath: filepath.Join(dir, "browse.db")}
	db, err := engine.Open(engine.Options{DataPath: b.dataPath, BufferPoolPages: cfg.scale.browsePool})
	if err != nil {
		return nil, err
	}
	b.db = db
	sc := cfg.scale
	if b.data, err = populate(db, cfg.seed, sc.customers, sc.orders, sc.itemsPerOrder); err != nil {
		b.abort()
		return nil, err
	}
	b.goodCount = b.data.goodCustomers()
	b.diskBytesPerRow = float64(fileSize(b.dataPath)) / float64(b.data.rows())

	forms, err := core.NewCompiler(db).CompileSource(workload.StandardForms)
	if err != nil {
		b.abort()
		return nil, err
	}
	byName := map[string]*core.Form{}
	for _, f := range forms {
		byName[f.Def.Name] = f
	}
	b.wm = core.NewManager(db, 100, 30)
	open := func(form string) (*core.Window, error) {
		src := tracedSource{src: core.NewEngineSource(db.Session()), b: b}
		return b.wm.OpenOn(byName[form], src, 0, 0)
	}
	if b.items, err = open("item_form"); err == nil {
		if b.cust, err = open("customer_form"); err == nil {
			b.good, err = open("good_customer_form")
		}
	}
	if err != nil {
		b.abort()
		return nil, err
	}
	// Warm up: one block of every operation fills the plan cache and the
	// buffer pool.
	w := newWorker(-1, cfg.seed, nil)
	if err := b.block(w); err != nil {
		b.abort()
		return nil, err
	}
	if w.failed > 0 {
		b.abort()
		return nil, fmt.Errorf("warm-up: %s", strings.Join(w.errs, "; "))
	}
	return b, nil
}

func (b *browseBench) layout() layout { return layout{workers: 1, round: b.cfg.scale.browseRound} }

func (b *browseBench) facts() string {
	data := fileSize(b.dataPath)
	pool := int64(b.cfg.scale.browsePool) * 8192
	return fmt.Sprintf("flush=none(no WAL file) data=%.1fMB pool=%.1fMB data/pool=%.1fx", float64(data)/(1<<20), float64(pool)/(1<<20), float64(data)/float64(pool))
}

// browseBlock is one block's operation mix, shuffled per block: 16 page
// moves (PgDn, PgUp, Home, End), 3 query-by-form queries and 1 credit edit.
// No source gives an operator's real mix; this one is mostly paging, as an
// operator browsing a large table pages more often than they query and
// queries more often than they edit. A save costs as much as thousands of
// page moves, so the phase is extended until it has timed enough saves for
// a p99 (see drive).
var browseBlock = []string{
	"pgdn", "pgdn", "pgdn", "pgdn", "pgdn", "pgdn", "pgdn", "pgdn",
	"pgdn", "pgdn", "pgdn", "pgdn", "pgup", "pgup", "home", "end",
	"qbf", "qbf", "qbf",
	"save",
}

// browseReopens is how many times recover_s times reopening the data file:
// one open takes microseconds, so the median needs many.
const browseReopens = 301

func (b *browseBench) block(w *worker) error {
	b.cur = w
	ops := append([]string(nil), browseBlock...)
	w.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, name := range ops {
		switch name {
		case "qbf":
			city := cities[w.rng.Intn(len(cities))]
			move := w.rng.Intn(12)
			w.op(classQuery, name, func() error { return b.query(w, city, move) })
		case "save":
			credit := randomCredit(w.rng)
			w.op(classWrite, name, func() error { return b.save(w, credit) })
		default:
			w.op(classRead, name, func() error { return b.page(w, name) })
		}
	}
	return nil
}

// page moves item_form's cursor and checks it landed on the row ORDER BY id
// puts there, having fetched at most one buffer page.
func (b *browseBench) page(w *worker, key string) error {
	win := b.items
	total := win.RowCount()
	want := win.Cursor()
	before := win.Stats().RowsFetched
	var err error
	w.tr.begin(layerCore, "core."+key, 0)
	switch key {
	case "pgdn":
		want = min(want+win.PageSize(), total-1)
		err = win.MoveCursor(win.PageSize())
	case "pgup":
		want = max(want-win.PageSize(), 0)
		err = win.MoveCursor(-win.PageSize())
	case "home":
		want = 0
		err = win.FirstRow()
	case "end":
		want = total - 1
		err = win.LastRow()
	}
	w.tr.end()
	if err != nil {
		return err
	}
	fetched := win.Stats().RowsFetched - before
	if key == "pgdn" {
		b.pgdns++
		b.pgdnRows += float64(fetched)
	}
	if fetched > uint64(win.BufferPage()) {
		return fmt.Errorf("fetched %d rows, over the %d-row buffer page", fetched, win.BufferPage())
	}
	if total != b.data.items {
		return fmt.Errorf("item_form shows %d rows, want %d", total, b.data.items)
	}
	row, ok := win.CurrentRow()
	if win.Cursor() != want || !ok || row[0].Int() != int64(want+1) {
		return fmt.Errorf("cursor at %d (row %v), want %d with id %d", win.Cursor(), row, want, want+1)
	}
	return nil
}

// query runs a query-by-form city query in customer_form, checks the row
// count against the load, and moves the cursor into the result so the order
// detail block follows.
func (b *browseBench) query(w *worker, city string, move int) error {
	win := b.cust
	w.tr.begin(layerCore, "core.qbf", 0)
	err := win.Query(map[string]string{"city": city})
	if err == nil {
		err = win.MoveCursor(min(move, win.RowCount()-1))
	}
	w.tr.end()
	if err != nil {
		return err
	}
	if n := win.RowCount(); n != b.data.cityCount[city] {
		return fmt.Errorf("city %s selected %d customers, want %d", city, n, b.data.cityCount[city])
	}
	if row, ok := win.CurrentRow(); !ok || row[2].Str() != city {
		return fmt.Errorf("current row %v is not in %s", row, city)
	}
	return nil
}

// save edits the current customer's credit and saves, which refreshes the
// window and propagates to good_customer_form.
func (b *browseBench) save(w *worker, credit float64) error {
	win := b.cust
	row, ok := win.CurrentRow()
	if !ok {
		return fmt.Errorf("no current customer")
	}
	id := int(row[0].Int())
	text := strconv.FormatFloat(credit, 'f', 1, 64)
	w.tr.begin(layerCore, "core.save", 0)
	err := win.SetFieldText("credit", text)
	if err == nil {
		err = win.Save()
	}
	w.tr.end()
	if err != nil {
		return err
	}
	b.saves++
	old := b.data.credit[id-1]
	b.data.credit[id-1] = credit
	if old >= goodCredit {
		b.goodCount--
	}
	if credit >= goodCredit {
		b.goodCount++
	}
	if row, ok := win.CurrentRow(); !ok || int(row[0].Int()) != id || row[3].Float() != credit {
		return fmt.Errorf("after save the current row is %v, want customer %d with credit %s", row, id, text)
	}
	if n := b.good.RowCount(); n != b.goodCount {
		return fmt.Errorf("good_customer_form shows %d rows after the save, want %d", n, b.goodCount)
	}
	return nil
}

func (b *browseBench) barrier() (time.Duration, error) { return 0, nil }

func (b *browseBench) counters() map[string]float64 {
	c := engineCounters(b.db)
	var refreshes float64
	for _, win := range []*core.Window{b.items, b.cust, b.cust.Detail(0), b.good} {
		refreshes += float64(win.Stats().Refreshes)
	}
	c["core.refreshes"] = refreshes
	c["core.count_queries"] = b.countQueries
	c["core.pgdns"] = b.pgdns
	c["core.pgdn_rows"] = b.pgdnRows
	c["core.saves"] = b.saves
	c["core.windows_refreshed"] = float64(b.wm.WindowsRefreshed())
	return c
}

func (b *browseBench) layers(d map[string]float64, ph *phaseResult, m metrics) {
	engineLayers(d, ph.after, m)
	m.set("core.rows_per_pgdn", "rows", ratio(d["core.pgdn_rows"], d["core.pgdns"]))
	m.set("core.count_queries_per_refresh", "queries", ratio(d["core.count_queries"], d["core.refreshes"]))
	m.set("core.windows_refreshed_per_save", "windows", ratio(d["core.windows_refreshed"], d["core.saves"]))
}

func (b *browseBench) finish(w *worker, m metrics) error {
	err := b.db.Close()
	b.db = nil
	if err != nil {
		return err
	}
	m.set("disk_bytes_per_row", "B", b.diskBytesPerRow)
	// With no WAL there is nothing to replay: recover_s is what reopening
	// the data file costs.
	rec, db, err := reopen(browseReopens, engine.Options{DataPath: b.dataPath, BufferPoolPages: b.cfg.scale.browsePool})
	if err != nil {
		return err
	}
	m.set("recover_s", "s", rec)
	return db.Close()
}

func (b *browseBench) abort() {
	if b.db != nil {
		b.db.Close()
		b.db = nil
	}
}

// tracedSource wraps the forms runtime's engine source so the benchmark can
// time each statement the windows run and count their COUNT(*) queries.
type tracedSource struct {
	src core.Source
	b   *browseBench
}

func (s tracedSource) Prepare(text string) (core.Statement, error) {
	st, err := s.src.Prepare(text)
	if err != nil {
		return nil, err
	}
	return &tracedStmt{Statement: st, b: s.b, count: strings.HasPrefix(text, "SELECT COUNT(*)")}, nil
}

func (s tracedSource) NewSource() core.Source { return tracedSource{src: s.src.NewSource(), b: s.b} }

type tracedStmt struct {
	core.Statement
	b     *browseBench
	count bool
}

func (t *tracedStmt) tracer() *tracer {
	if t.b.cur == nil {
		return nil
	}
	return t.b.cur.tr
}

func (t *tracedStmt) Query() (core.RowStream, error) {
	if t.count {
		t.b.countQueries++
	}
	tr := t.tracer()
	tr.begin(layerEngine, "engine.query", 0)
	rows, err := t.Statement.Query()
	if err != nil {
		tr.end()
		return nil, err
	}
	return &tracedRows{RowStream: rows, tr: tr}, nil
}

func (t *tracedStmt) Exec() (core.ExecSummary, error) {
	tr := t.tracer()
	tr.begin(layerEngine, "engine.exec", 0)
	res, err := t.Statement.Exec()
	tr.end()
	return res, err
}

// tracedRows ends the statement's span when the window closes the cursor.
type tracedRows struct {
	core.RowStream
	tr *tracer
}

func (r *tracedRows) Close() error {
	err := r.RowStream.Close()
	r.tr.end()
	return err
}

package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// dir holds the workload's database files; it is emptied before and
	// removed after the run.
	dir   string
	scale scale
}

// scale sizes the workloads. The benchmark runs fullScale; the determinism
// test runs tinyScale, which keeps every code path but little data.
type scale struct {
	// customers, orders and itemsPerOrder size browse and serve; replicate
	// loads replOrders orders over the same customers.
	customers, orders, itemsPerOrder, replOrders int
	// browsePool is browse's buffer pool in pages, about a third of its
	// data.
	browsePool int
	// minSamples is the fewest samples a latency class may end a measured
	// phase with: 1000 leaves 10 beyond the p99.
	minSamples int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// rounds: blocks per worker between barriers (for ingest, one epoch),
	// and how many rounds the counted window spans (see drive).
	browseRound, serveRound, ingestRound, prefixRounds int
	// verifyOrders is how many acknowledged ingest orders are read back
	// after each epoch's recovery.
	verifyOrders int
}

var fullScale = scale{
	customers: 5000, orders: 40000, itemsPerOrder: 2, replOrders: 10000, browsePool: 256,
	minSamples: 1000, setups: 3,
	browseRound: 25, serveRound: 100, ingestRound: 10000, prefixRounds: 2,
	verifyOrders: 1000,
}

// workloadSpec builds one workload's environment in dir.
type workloadSpec func(cfg config, dir string) (bench, error)

var workloads = map[string]workloadSpec{
	"browse":    setupBrowse,
	"serve":     setupServe,
	"ingest":    setupIngest,
	"replicate": setupReplicate,
}

// bench is a workload whose set-up is done.
type bench interface {
	// layout says how the load is generated.
	layout() layout
	// block runs one block of worker w's operations.
	block(w *worker) error
	// barrier runs alone at every round barrier, with every worker waiting.
	// It returns how long it spent on work that is not part of the load
	// (such as replacing the database), which the phase does not measure.
	barrier() (time.Duration, error)
	// counters snapshots the cumulative counters the layers export; the
	// per-layer metrics are differences of two snapshots.
	counters() map[string]float64
	// layers turns the counted window's counter differences into per-layer
	// metrics.
	layers(d map[string]float64, ph *phaseResult, m metrics)
	// finish closes the workload, runs its end-of-run checks through w and
	// sets the end-of-run metrics (recover_s, disk_bytes_per_row).
	finish(w *worker, m metrics) error
	// facts describes the data size and flush policy for the host line.
	facts() string
	// abort releases everything after a failed run or a discarded set-up.
	abort()
}

// layout describes how a workload's load is generated.
type layout struct {
	// workers is the number of request-issuing goroutines (at most nproc).
	workers int
	// round, when positive, puts a barrier after every round blocks of
	// every worker; the stop decision is then taken at barriers only, so
	// every worker has run the same number of blocks.
	round int
	// pace, per worker, makes that worker an open loop issuing one block
	// every pace; zero is a closed loop.
	pace []time.Duration
}

// latency classes, each reported as p50 (and p99 where it has the samples).
const (
	classRead  = "read"
	classQuery = "query"
	classWrite = "write"
)

// worker is one request-issuing goroutine's state.
type worker struct {
	id  int
	rng *rand.Rand
	tr  *tracer
	// clock gives the phase's measured time, for stamping operations.
	clock  func() time.Duration
	opEnds []time.Duration
	// due is when a paced worker's current block was due.
	due     time.Time
	ops     int64
	failed  int64
	samples map[string][]float64
	seq     uint64
	// heapPeak is the highest heap sample this worker took.
	heapPeak uint64
	errs     []string
}

func newWorker(id int, seed int64, tr *tracer) *worker {
	return &worker{id: id, rng: rand.New(rand.NewSource(seed*7919 + int64(id))), tr: tr, samples: map[string][]float64{}}
}

// op runs one operation, timed from now.
func (w *worker) op(class, name string, fn func() error) { w.opFrom(time.Now(), class, name, fn) }

// opFrom runs one operation timed from start (an open loop's due time). A
// returned error — a failed call or a failed correctness check — counts the
// operation as failed.
func (w *worker) opFrom(start time.Time, class, name string, fn func() error) {
	w.seq++
	w.tr.begin(layerBench, name, uint64(w.id)<<48|w.seq)
	err := fn()
	w.tr.end()
	w.sample(class, float64(time.Since(start).Nanoseconds())/1e3)
	if w.clock != nil {
		w.opEnds = append(w.opEnds, w.clock())
	}
	w.ops++
	if err != nil {
		w.fail(fmt.Errorf("%s: %w", name, err))
	}
}

// check counts an end-of-run correctness check as an operation, failed
// when err is not nil.
func (w *worker) check(err error) {
	w.ops++
	if err != nil {
		w.fail(err)
	}
}

// absorb adds v's operations, failures and samples to w.
func (w *worker) absorb(v *worker) {
	w.ops += v.ops
	w.failed += v.failed
	for k, s := range v.samples {
		w.samples[k] = append(w.samples[k], s...)
	}
	w.errs = append(w.errs, v.errs...)
}

func (w *worker) sample(name string, v float64) { w.samples[name] = append(w.samples[name], v) }

func (w *worker) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// timed runs fn inside a span of the given layer and returns its duration
// in microseconds.
func (w *worker) timed(layer int, name string, fn func() error) (float64, error) {
	start := time.Now()
	w.tr.begin(layer, name, 0)
	err := fn()
	w.tr.end()
	return float64(time.Since(start).Nanoseconds()) / 1e3, err
}

// sampleHeap records the heap the last GC cycle found live: unlike the heap
// including garbage, it does not depend on where GC cycles happen to fall.
func (w *worker) sampleHeap() {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 && s[0].Value.Uint64() > w.heapPeak {
		w.heapPeak = s[0].Value.Uint64()
	}
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	ops, failed int64
	// elapsed is the measured time: wall time minus barrier pauses.
	elapsed time.Duration
	// opEnds stamps every operation's end in measured time.
	opEnds   []time.Duration
	samples  map[string][]float64
	heapPeak uint64
	// before and after bracket the counted window: the first prefixRounds
	// rounds of a round-based load, the whole phase otherwise.
	before, after map[string]float64
	self          [numLayers]int64
	spans         []span
	tracers       int
	errs          []string
}

// drive runs one measured phase of the load for d. counted phases snapshot
// the counters; minimums extend the phase until every latency class it
// records has enough samples for a p99.
func drive(b bench, cfg config, d time.Duration, traced, counted bool, salt int64) (*phaseResult, error) {
	lay := b.layout()
	ws := make([]*worker, lay.workers)
	epoch := time.Now()
	for i := range ws {
		var tr *tracer
		if traced {
			tr = newTracer(epoch)
		}
		ws[i] = newWorker(i, cfg.seed+salt, tr)
	}
	// Only a traced run reports p99s, from its untraced half, so only that
	// half is extended.
	minSamples := 0
	if cfg.trace && !traced {
		minSamples = cfg.scale.minSamples
	}
	enough := func(ws ...*worker) bool {
		classes := map[string]int{}
		for _, w := range ws {
			for _, c := range []string{classRead, classWrite} {
				if s, ok := w.samples[c]; ok {
					classes[c] += len(s)
				}
			}
		}
		for _, n := range classes {
			if n < minSamples {
				return false
			}
		}
		return true
	}

	// snapshot is safe while no worker runs: before the phase, at a
	// barrier, and after every worker has returned.
	snapshot := func() map[string]float64 {
		c := b.counters()
		for _, w := range ws {
			c["ops"] += float64(w.ops)
		}
		return c
	}
	res := &phaseResult{samples: map[string][]float64{}}
	if counted {
		res.before = snapshot()
	}
	start := time.Now()
	// paused only changes at a barrier, while every worker waits.
	var paused time.Duration
	clock := func() time.Duration { return time.Since(start) - paused }
	for _, w := range ws {
		w.clock = clock
	}
	var bar *roundBarrier
	if lay.round > 0 {
		rounds := 0
		bar = newRoundBarrier(lay.workers, func() (bool, error) {
			rounds++
			pause, err := b.barrier()
			paused += pause
			if err != nil {
				return true, err
			}
			if counted && rounds == cfg.scale.prefixRounds {
				res.after = snapshot()
			}
			done := clock() >= d && enough(ws...) && (!counted || rounds >= cfg.scale.prefixRounds)
			return done, nil
		})
	}

	var wg sync.WaitGroup
	errs := make([]error, lay.workers)
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			var pace time.Duration
			if i < len(lay.pace) {
				pace = lay.pace[i]
			}
			w.due = time.Now()
			for n := 1; ; n++ {
				if pace > 0 {
					if wait := time.Until(w.due); wait > 0 {
						time.Sleep(wait)
					}
					w.sample("late_us", float64(time.Since(w.due).Nanoseconds())/1e3)
				}
				if err := b.block(w); err != nil {
					errs[i] = err
					if bar != nil {
						bar.abort()
					}
					return
				}
				w.due = w.due.Add(pace)
				if i == 0 && n%4 == 0 {
					w.sampleHeap()
				}
				if bar != nil {
					if n%lay.round == 0 {
						stop, err := bar.wait()
						if err != nil {
							errs[i] = err
							return
						}
						if stop {
							return
						}
					}
				} else if clock() >= d && enough(w) {
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	res.elapsed = clock()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if bar != nil && bar.err != nil {
		return nil, bar.err
	}
	if counted && res.after == nil {
		res.after = snapshot()
	}
	for _, w := range ws {
		res.merge(w)
	}
	return res, nil
}

// segments is how many equal slices of measured time rate divides a phase
// into.
const segments = 5

// rate is the median over the phase's segments of the operations completed
// per second in each: a burst of interference from outside the benchmark
// moves one segment, not the result.
func (r *phaseResult) rate() float64 {
	seg := r.elapsed / segments
	if seg <= 0 {
		return 0
	}
	counts := make([]float64, segments)
	for _, t := range r.opEnds {
		counts[min(int(t/seg), segments-1)]++
	}
	for i := range counts {
		counts[i] /= seg.Seconds()
	}
	return median(counts)
}

func (r *phaseResult) merge(w *worker) {
	r.ops += w.ops
	r.failed += w.failed
	r.opEnds = append(r.opEnds, w.opEnds...)
	for k, v := range w.samples {
		r.samples[k] = append(r.samples[k], v...)
	}
	r.heapPeak = max(r.heapPeak, w.heapPeak)
	if w.tr != nil {
		for l, ns := range w.tr.self {
			r.self[l] += ns
		}
		offset := int32(len(r.spans))
		for _, sp := range w.tr.spans {
			if sp.Parent >= 0 {
				sp.Parent += offset
			}
			r.spans = append(r.spans, sp)
		}
		r.tracers++
	}
	r.errs = append(r.errs, w.errs...)
}

// roundBarrier holds workers at the end of every round. The last worker to
// arrive runs last, which decides whether the phase stops.
type roundBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	stop    bool
	err     error
	last    func() (bool, error)
}

func newRoundBarrier(n int, last func() (bool, error)) *roundBarrier {
	b := &roundBarrier{n: n, last: last}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *roundBarrier) wait() (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stop {
		return true, b.err
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.stop, b.err = b.last()
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return b.stop, b.err
	}
	for gen == b.gen && !b.stop {
		b.cond.Wait()
	}
	return b.stop, b.err
}

// abort releases the other workers after one failed.
func (b *roundBarrier) abort() {
	b.mu.Lock()
	b.stop = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// run sets the workload up cfg.scale.setups times, drives it and returns the
// result. Host facts and, for a traced run, the self-time table are written
// to out before the result.
func run(spec workloadSpec, cfg config, out io.Writer) (*result, error) {
	if err := os.RemoveAll(cfg.dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)

	var b bench
	var setups []float64
	for i := 0; i < cfg.scale.setups; i++ {
		if b != nil {
			b.abort()
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		b, err = spec(cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s fs=%s %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(cfg.dir), b.facts())

	m := metrics{}
	total := &phaseResult{samples: map[string][]float64{}}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var main *phaseResult
	if !cfg.trace {
		ph, err := drive(b, cfg, d, false, true, 0)
		if err != nil {
			b.abort()
			return nil, err
		}
		main = ph
	} else {
		plain, err := drive(b, cfg, d/2, false, true, 0)
		if err != nil {
			b.abort()
			return nil, err
		}
		traced, err := drive(b, cfg, d/2, true, false, 1)
		if err != nil {
			b.abort()
			return nil, err
		}
		b.layers(diffCounters(plain.before, plain.after), plain, m)
		reportTrace(out, cfg, plain, traced, m)
		total.ops += traced.ops
		total.failed += traced.failed
		total.errs = append(total.errs, traced.errs...)
		main = plain
	}
	total.ops += main.ops
	total.failed += main.failed
	total.errs = append(total.errs, main.errs...)
	for k, v := range main.samples {
		total.samples[k] = v
	}

	fw := newWorker(99, cfg.seed, nil)
	if err := b.finish(fw, m); err != nil {
		return nil, err
	}
	total.merge(fw)

	// The untraced phase gives the latency and throughput numbers in both
	// modes; each mode then reports its own list.
	m.set("setup_s", "s", median(setups))
	m.set("mem_peak_mb", "MB", float64(main.heapPeak)/(1<<20))
	m.set("ops_s", "1/s", main.rate())
	for _, c := range []struct{ class, name string }{
		{classRead, "read"}, {classQuery, "query"}, {classWrite, "write"},
	} {
		s := total.samples[c.class]
		if len(s) == 0 {
			return nil, fmt.Errorf("no %s samples", c.class)
		}
		m.set(c.name+"_p50_us", "us", percentile(s, 0.50))
		if c.class != classQuery && len(s) >= cfg.scale.minSamples {
			m.set(c.name+"_p99_us", "us", percentile(s, 0.99))
		}
	}
	if err := keep(m, cfg); err != nil {
		return nil, err
	}
	for _, e := range total.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", cfg.workload, e)
	}
	return &result{
		Correct:   total.failed == 0,
		Attempted: total.ops,
		Failed:    total.failed,
		Metrics:   m,
	}, nil
}

// keep reduces m to the metrics the run's mode reports. A traced run must
// have measured every per-layer metric except those its workload bypasses,
// which it reports as 0.
func keep(m metrics, cfg config) error {
	if !cfg.trace {
		want := map[string]bool{}
		for _, n := range endToEnd {
			want[n] = true
			if _, ok := m[n]; !ok {
				return fmt.Errorf("metric %s was not measured", n)
			}
		}
		for _, n := range m.names() {
			if !want[n] {
				delete(m, n)
			}
		}
		return nil
	}
	for _, n := range endToEnd {
		delete(m, n)
	}
	want := map[string]bool{}
	for _, pl := range perLayer {
		want[pl.name] = true
		v, ok := m[pl.name]
		switch {
		case bypasses(cfg.workload, pl.name):
			if ok && v.Value != 0 {
				return fmt.Errorf("%s bypasses %s but measured %v", cfg.workload, pl.name, v.Value)
			}
			m.set(pl.name, pl.unit, 0)
		case !ok:
			return fmt.Errorf("metric %s was not measured", pl.name)
		case v.Unit != pl.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", pl.name, v.Unit, pl.unit)
		}
	}
	for _, n := range m.names() {
		if !want[n] {
			return fmt.Errorf("metric %s is not a per-layer metric", n)
		}
	}
	return nil
}

// bypassed names, per workload, the per-layer metrics of layers the
// workload does not exercise; a name ending in "." covers every metric
// with that prefix.
var bypassed = map[string][]string{
	// No WAL file, no wire, no client, no replica, no open-loop writer.
	"browse": {"txn.", "server.", "client.", "replica.", "load.",
		"storage.pages_flushed_per_ckpt", "self.txn_us", "self.client_us", "self.wire_us"},
	// No forms runtime or local session, no checkpoints, no fleet.
	"serve": {"core.", "replica.", "load.", "storage.pages_flushed_per_ckpt", "txn.checkpoint_ms",
		"txn.recovery_records", "client.replica_share", "client.fallbacks", "client.stale_skips",
		"self.core_us", "self.engine_us", "self.txn_us"},
	// No forms runtime, no wire, no client, no replica, no open-loop writer.
	"ingest": {"core.", "server.", "client.", "replica.", "load.",
		"self.core_us", "self.client_us", "self.wire_us"},
	// No forms runtime or local session, no checkpoints.
	"replicate": {"core.", "storage.pages_flushed_per_ckpt", "txn.checkpoint_ms", "txn.recovery_records",
		"self.core_us", "self.engine_us", "self.txn_us"},
}

func bypasses(workload, name string) bool {
	for _, b := range bypassed[workload] {
		if name == b || strings.HasSuffix(b, ".") && strings.HasPrefix(name, b) {
			return true
		}
	}
	return false
}

// endToEnd names the metrics a --trace 0 run reports. The throughput and
// latency metrics and recover_s are per-layer instead: across ten runs on a
// 2-CPU VM each spread by more than a tenth of its median on at least one
// workload (see README.md).
var endToEnd = []string{"setup_s", "mem_peak_mb", "disk_bytes_per_row"}

// perLayer names the metrics a --trace 1 run reports. A workload reports 0
// for the metrics it bypasses.
var perLayer = []struct{ name, unit string }{
	{"ops_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"query_p50_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"recover_s", "s"},
	{"core.rows_per_pgdn", "rows"},
	{"core.count_queries_per_refresh", "queries"},
	{"core.windows_refreshed_per_save", "windows"},
	{"engine.plan_hit_ratio", "ratio"},
	{"engine.prepares_per_op", "1/op"},
	{"engine.rows_streamed_per_op", "rows"},
	{"storage.pool_miss_per_op", "1/op"},
	{"storage.evictions_per_op", "1/op"},
	{"storage.pages_flushed_per_ckpt", "pages"},
	{"txn.commits_per_fsync", "ratio"},
	{"txn.wal_bytes_per_commit", "B"},
	{"txn.write_conflicts", "count"},
	{"txn.checkpoint_ms", "ms"},
	{"txn.recovery_records", "count"},
	{"server.msgs_per_op", "1/op"},
	{"server.rows_sent_per_op", "rows"},
	{"client.checkout_wait_us", "us"},
	{"client.stmt_cache_hit_ratio", "ratio"},
	{"client.replica_share", "ratio"},
	{"client.fallbacks", "count"},
	{"client.stale_skips", "count"},
	{"replica.apply_txns_s", "1/s"},
	{"replica.lag_bytes_p50", "B"},
	{"replica.stream_errors", "count"},
	{"load.late_us_p99", "us"},
	{"self.bench_us", "us"},
	{"self.core_us", "us"},
	{"self.engine_us", "us"},
	{"self.txn_us", "us"},
	{"self.client_us", "us"},
	{"self.wire_us", "us"},
	{"trace.overhead_pct", "%"},
}

func diffCounters(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the nearest-rank q-quantile of v.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// fsType names the filesystem holding path, from /proc/self/mountinfo.
func fsType(path string) string {
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		sep := -1
		for i, f := range fields {
			if f == "-" {
				sep = i
				break
			}
		}
		if len(fields) < 5 || sep < 0 || sep+1 >= len(fields) {
			continue
		}
		mnt := fields[4]
		if strings.HasPrefix(path, mnt) && len(mnt) > len(best) {
			best, fs = mnt, fields[sep+1]
		}
	}
	return fs
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

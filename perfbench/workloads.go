package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gps/internal/graph"
)

// Workload parameters. The ingest workload runs a triangle-weighted default
// stream (m = streamCap, shards = the server's GOMAXPROCS); the window
// workload a uniform windowed turnstile stream of windowCap per pane.
//
// streamCap is a fifth of gps-serve's default m = 100000. At the default the
// server's sample took ~300 MiB, and the query, checkpoint and restore
// timings on it spread by 0.25-0.40 (IQR/median) between runs of the same
// code on a shared 2-vCPU VM, whose random access to a 64 MiB array changed
// speed 2.4x from one second to the next while a 1 MiB one changed 1.15x.
//
// A run alternates load phases (segments of them) with settle phases. Each
// settle phase runs settleRounds rounds of a write that dirties every shard
// (of the live pane on window) and a read that must see it, so it
// takes the whole refresh path; these reads are the query side of both
// workloads. It downloads a checkpoint every other round and restarts a
// second server from the last one settleRestores times; then it times
// settleSetups more set-ups, whose servers are stopped at once.
// Interleaving them with the load spreads every measurement over the whole
// run, so one slow moment of the host cannot decide a metric (on a shared
// 2-vCPU VM a CPU-bound loop varied by ±20% from second to second).
const (
	streamCap      = 20000
	setupReps      = 3               // set-ups before the first load phase
	settleSetups   = 2               // and in each settle phase; setup_s is the median of all
	settleRestores = 2               // restarts from the checkpoint per settle phase
	segments       = 6               // load phases per run, each seconds/segments long
	settleRounds   = 10              // write-then-read rounds per settle phase
	probeCopies    = 4               // ingest: copies ingested and checked before the first load phase (m/edges = 5%)
	probeRecords   = 2 * windowWidth // window: records ingested and checked before it
	kSE            = 6               // an estimate further than kSE standard errors from the truth fails
	restoreTimeout = 60 * time.Second
)

// run holds one benchmark run: its inputs, the server under test and what
// the load generator measured.
type run struct {
	o      options
	tr     *tracer // nil unless --trace 1
	b      *base
	pr     *probe // the probe's input, until it has been sent
	srv    *server
	conns  []*conn // the generator's connections: one per producer (2 on ingest, 1 on window); the first also carries control calls and queries
	args   []string
	shards int // the server's effective shard count

	mu        sync.Mutex
	attempted int
	failed    int

	setupS       []float64
	setupParts   [3]samples // base graph and counts, probe input and counts, boot (ms)
	next         int        // ingest: next global edge of the copies stream
	window       *turnstile // window: the record generator
	marks        []mark     // window: the generator as each load phase began
	records      uint64     // records the server has acknowledged, all phases
	loadRecords  int        // records sent in the load phases
	rates        []float64  // records/s of each load phase, through its flush
	acks         samples    // ingest operation latency in the load phases
	ackSegs      []samples  // the same, by load phase
	acksTraced   samples    // on traced runs: acks of traced operations
	acksUntraced samples    // and of untraced ones
	queries      samples    // query latency: reads that took the whole refresh path
	late         samples    // how long the generator itself delayed each operation
	ingestCallMS float64    // mean client time of an ingest attempt over the run
	queryCallMS  float64    // and of an estimate attempt
	refusals     int
	batches      int
	wireBytes    int
	flushMS      samples // the flush that ends each load phase
	checkpointS  []float64
	restoreS     []float64
	rssMB        float64
	ckpt         []byte
	queueMax     float64
	s0, s1       scrape // /metrics before the first load phase (traced runs) and at the end
	layers       map[string]metric
	calls        *callStats
	steal0       uint64 // /proc/stat steal and total ticks when the run began
	total0       uint64
}

func newRun(o options) *run {
	r := &run{o: o, layers: make(map[string]metric), calls: newCallStats()}
	r.steal0, r.total0 = cpuTicks()
	if o.trace {
		r.tr = newTracer()
	}
	switch o.workload {
	case "window":
		r.args = []string{"-m", strconv.Itoa(windowCap), "-weight", "uniform",
			"-window", strconv.Itoa(windowWidth), "-pane", strconv.Itoa(windowWidth / windowPanes)}
	default:
		r.args = []string{"-m", strconv.Itoa(streamCap), "-weight", "triangle"}
	}
	r.args = append(r.args, "-seed", strconv.FormatUint(o.seed, 10))
	return r
}

func (r *run) close() {
	r.srv.stop()
	for _, c := range r.conns {
		c.close()
	}
}

// fail records a failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", fmt.Sprintf(format, args...))
}

// check counts one correctness check as an operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.count()
	if !ok {
		r.fail(format, args...)
	}
}

// count counts one attempted operation.
func (r *run) count() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// opTracer returns the tracer for an operation starting now: traced runs
// trace operations in every other second, so the traced and untraced
// operations of one run give the tracing overhead.
func (r *run) opTracer() *tracer {
	if r.tr == nil || time.Since(r.tr.t0)/time.Second%2 == 0 {
		return nil
	}
	return r.tr
}

func (r *run) execute() error {
	if err := r.setup(); err != nil {
		return err
	}
	if err := r.probe(); err != nil {
		return err
	}
	// An untimed warm-up phase as long as a load phase: without it the
	// first phase of a run was ~20% slower than the rest.
	d := time.Duration(r.o.seconds) * time.Second / segments
	r.load(d)
	if _, err := r.flush(); err != nil {
		return err
	}
	r.resetCounters()
	var err error
	if r.s0, err = r.scrapeIfTraced(); err != nil {
		return err
	}
	for i := 0; i < segments; i++ {
		if r.window != nil {
			r.marks = append(r.marks, mark{r.window.clone(), r.records})
		}
		start, records, acks := time.Now(), r.loadRecords, len(r.acks)
		stopScrapes := r.scrapeQueue(r.ctl())
		r.load(d)
		stopScrapes()
		ms, err := r.flush()
		if err != nil {
			return err
		}
		r.flushMS = append(r.flushMS, ms)
		r.rates = append(r.rates, float64(r.loadRecords-records)/time.Since(start).Seconds())
		r.ackSegs = append(r.ackSegs, r.acks[acks:])
		if err := r.settle(); err != nil {
			return err
		}
	}
	if err := r.finish(); err != nil {
		return err
	}
	if r.tr != nil {
		rp, err := r.replay()
		if err != nil {
			return err
		}
		r.layerMetrics(rp)
		dir := filepath.Join(filepath.Dir(r.o.out), "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.o.workload, r.o.seed))
		if err := r.tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", r.tr.count(), path)
	}
	return nil
}

// setup builds the run's inputs and boots the server to healthy,
// setupReps times; the last inputs and server stay for the run.
func (r *run) setup() error {
	for i := 0; i < setupReps; i++ {
		su, err := r.setupOnce()
		if err != nil {
			return err
		}
		if i < setupReps-1 {
			su.close()
			continue
		}
		r.b, r.pr, r.srv, r.shards = su.b, su.pr, su.srv, su.srv.shards
		r.window = su.pr.turn
		r.conns = []*conn{su.c}
		for r.window == nil && len(r.conns) < producers() {
			r.conns = append(r.conns, newConn(su.srv.addr, r.calls))
		}
	}
	return nil
}

// setUp is one timed set-up: the inputs it built and the server it booted.
type setUp struct {
	b   *base
	pr  *probe
	srv *server
	c   *conn
}

func (su *setUp) close() {
	su.c.close()
	su.srv.stop()
}

// setupOnce times one set-up: the base graph and its exact counts, the
// probe (its batches encoded and their exact counts) and the boot of a
// server to healthy. A collection before it, untimed, keeps earlier garbage
// out of its time. (The load phases encode each batch just before sending
// it.)
func (r *run) setupOnce() (*setUp, error) {
	runtime.GC()
	start := time.Now()
	b := newBase(r.o.seed)
	t1 := time.Now()
	pr, err := newProbe(b, r.o.workload == "window", r.o.seed)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	srv, err := startServer(r.o.server, r.args...)
	if err != nil {
		return nil, err
	}
	c := newConn(srv.addr, r.calls)
	if _, _, err := c.call(nil, -1, "serve.healthz", http.MethodGet, "/healthz", "", nil); err != nil {
		c.close()
		srv.stop()
		return nil, fmt.Errorf("server not healthy: %w", err)
	}
	end := time.Now()
	r.setupS = append(r.setupS, end.Sub(start).Seconds())
	r.setupParts[0] = append(r.setupParts[0], ms(t1.Sub(start)))
	r.setupParts[1] = append(r.setupParts[1], ms(t2.Sub(t1)))
	r.setupParts[2] = append(r.setupParts[2], ms(end.Sub(t2)))
	return &setUp{b, pr, srv, c}, nil
}

// ctl is the connection used for control calls and queries.
func (r *run) ctl() *conn { return r.conns[0] }

// copyFeed hands out batches of the copies stream to closed-loop producers.
// After the deadline it finishes the copy in progress, so the stream always
// ends on whole copies and exact counts are copies × base counts.
type copyFeed struct {
	mu       sync.Mutex
	b        *base
	next     int // next global edge
	stop     int // -1 until fixed
	deadline time.Time
	batch    int
	bodies   [][]byte // batches encoded in advance, by index (the probe's)
}

func (f *copyFeed) claim() (lo, hi, idx int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := len(f.b.edges)
	if f.stop < 0 && !time.Now().Before(f.deadline) {
		f.stop = (f.next + e - 1) / e * e
	}
	if f.stop >= 0 && f.next >= f.stop {
		return 0, 0, 0, false
	}
	lo, hi = f.next, f.next+batchSize
	if f.stop >= 0 {
		hi = min(hi, f.stop)
	}
	f.next = hi
	idx = f.batch
	f.batch++
	return lo, hi, idx, true
}

// ingestResp is the 202 body of POST /v1/ingest.
type ingestResp struct {
	Accepted int `json:"accepted"`
}

// sendBatch posts one encoded batch as operation idx on c and records its
// latency from the first attempt to the 202.
func (r *run) sendBatch(c *conn, idx, edges int, body []byte, lat *samples) bool {
	tr := r.opTracer()
	root := tr.begin("loadgen.batch", -1)
	start := time.Now()
	data, refusals, err := c.ingest(tr, root, body)
	d := time.Since(start)
	tr.end(root)
	r.mu.Lock()
	r.attempted++
	r.refusals += refusals
	r.batches++
	r.wireBytes += len(body)
	if tr != nil {
		r.acksTraced.add(d)
	} else if r.tr != nil {
		r.acksUntraced.add(d)
	}
	r.mu.Unlock()
	lat.add(d)
	if err != nil {
		r.fail("ingest batch %d: %v", idx, err)
		return false
	}
	var resp ingestResp
	if err := json.Unmarshal(data, &resp); err != nil || resp.Accepted != edges {
		r.fail("ingest batch %d: accepted %d of %d edges (%v)", idx, resp.Accepted, edges, err)
		return false
	}
	r.mu.Lock()
	r.records += uint64(edges)
	r.mu.Unlock()
	return true
}

// closedLoop runs one producer per connection over f until it is
// exhausted and returns the per-operation latencies and the generator's own
// delay before each operation (building and encoding the batch).
func (r *run) closedLoop(f *copyFeed, conns []*conn) (lat, gaps samples) {
	lats := make([]samples, len(conns))
	gapsBy := make([]samples, len(conns))
	var wg sync.WaitGroup
	for p, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			batch := make([]graph.Edge, 0, batchSize)
			for {
				ready := time.Now()
				lo, hi, idx, ok := f.claim()
				if !ok {
					return
				}
				var body []byte
				if f.bodies != nil {
					body = f.bodies[idx]
				} else {
					batch = f.b.appendCopies(batch[:0], lo, hi)
					if err := encode(&buf, batch, false); err != nil {
						r.fail("encode: %v", err)
						return
					}
					body = buf.Bytes()
				}
				gapsBy[p].add(time.Since(ready))
				r.sendBatch(c, idx, hi-lo, body, &lats[p])
			}
		}()
	}
	wg.Wait()
	for p := range conns {
		lat = append(lat, lats[p]...)
		gaps = append(gaps, gapsBy[p]...)
	}
	return lat, gaps
}

// producers is the closed-loop producer count: two, or one on a
// single-CPU host, so the generator never holds more connections than
// there are CPUs.
func producers() int { return max(1, min(2, runtime.NumCPU())) }

// probe sends the probe's batches closed-loop on the run's connections
// (one on window, where deletions must follow their inserts) and checks
// the triangle and wedge estimates against its exact counts. The triangle
// estimator needs a sampling fraction that the ingest load phases leave far
// behind: after them the stream is thousands of times m, and a correct
// sampler often holds no triangle at all, so on ingest only the wedge
// estimate is checked at the end. (At m/edges = 1% one seed's triangle
// estimate already lay 6.1 standard errors from the truth, by the CI's own
// variance estimate; the probe keeps m/edges at 5%.)
func (r *run) probe() error {
	pr := r.pr
	r.pr = nil
	f := &copyFeed{b: r.b, stop: pr.records, deadline: time.Now().Add(time.Hour), bodies: pr.bodies}
	r.closedLoop(f, r.conns)
	if r.window == nil {
		r.next = f.stop
	}
	if _, err := r.flush(); err != nil {
		return err
	}
	if est, ok := r.estimate(); ok {
		r.checkAccuracy(est, true, pr.triangles, pr.wedges)
	}
	return nil
}

// resetCounters clears what the probe and the warm-up counted, so the
// operation counters cover the timed load phases only.
func (r *run) resetCounters() {
	r.mu.Lock()
	r.refusals, r.batches, r.wireBytes, r.loadRecords = 0, 0, 0, 0
	r.acks, r.late, r.acksTraced, r.acksUntraced = nil, nil, nil, nil
	r.mu.Unlock()
	r.calls.reset()
}

// load runs one load phase of the workload for d.
func (r *run) load(d time.Duration) {
	if r.window == nil {
		r.ingest(d)
	} else {
		r.windowed(d)
	}
}

// ingest runs one load phase: closed-loop producers feed whole copies for
// d.
func (r *run) ingest(d time.Duration) {
	f := &copyFeed{b: r.b, next: r.next, stop: -1, deadline: time.Now().Add(d)}
	acks, gaps := r.closedLoop(f, r.conns)
	r.acks = append(r.acks, acks...)
	r.late = append(r.late, gaps...)
	r.loadRecords += f.stop - r.next
	r.next = f.stop
}

// windowed runs one load phase: one closed-loop producer streams turnstile
// records for d (one, because deletions must follow their inserts).
func (r *run) windowed(d time.Duration) {
	deadline := time.Now().Add(d)
	var buf bytes.Buffer
	batch := make([]graph.Edge, 0, batchSize)
	for i := 0; time.Now().Before(deadline); i++ {
		ready := time.Now()
		batch = r.window.next(batch[:0], batchSize)
		if err := encode(&buf, batch, true); err != nil {
			r.fail("encode: %v", err)
			return
		}
		r.late.add(time.Since(ready))
		r.sendBatch(r.ctl(), i, len(batch), buf.Bytes(), &r.acks)
		r.loadRecords += len(batch)
	}
}

// settle runs one settle phase (see the constants): settleRounds rounds
// of a write that dirties every shard (a whole copy on ingest, a batch of
// records on window) and a read that must see it, so it takes the whole
// refresh path (snapshot, merge, Algorithm 2; on window the pane merge and
// trim); these reads are the query side of both workloads. (Cached answers
// cost ~0.1ms, most of it wake-up latency that varied by a quarter between
// runs of one build, and window queries sent while the producer ran spread
// by 0.2-0.3 between runs.) Every other round downloads a checkpoint; a
// second server restarted from the last one, settleRestores times, must
// answer bit-identically. The phase ends with settleSetups timed set-ups.
func (r *run) settle() error {
	c := r.ctl()
	var last estimate
	for i := 0; i < settleRounds; i++ {
		if err := r.dirty(); err != nil {
			return err
		}
		start := time.Now()
		tr := r.opTracer()
		root := tr.begin("loadgen.query", -1)
		data, _, err := c.call(tr, root, "serve.estimate", http.MethodGet, "/v1/estimate", "", nil)
		d := time.Since(start)
		tr.end(root)
		r.count()
		if err == nil {
			last, err = parseEstimate(data)
		}
		if err == nil && r.window != nil && (last.WindowPanes < 1 || last.Window != windowWidth) {
			err = fmt.Errorf("window %d over %d panes", last.Window, last.WindowPanes)
		}
		if err != nil {
			r.fail("estimate: %v", err)
			return nil
		}
		r.queries.add(d)
		if i%2 == 0 {
			continue
		}
		id := r.tr.begin("checkpoint.download", -1)
		start = time.Now()
		status, ckpt, err := c.once(http.MethodGet, "/v1/checkpoint", "", nil)
		r.checkpointS = append(r.checkpointS, time.Since(start).Seconds())
		r.tr.end(id)
		r.count()
		if err != nil || status != http.StatusOK {
			r.fail("checkpoint download: status %d: %v", status, err)
			return nil
		}
		r.ckpt = ckpt
	}
	path := filepath.Join(r.o.out, "state.gpsc")
	if err := os.WriteFile(path, r.ckpt, 0o644); err != nil {
		return err
	}
	for i := 0; i < settleRestores; i++ {
		if err := r.restore(path, last); err != nil {
			return err
		}
	}
	for i := 0; i < settleSetups; i++ {
		su, err := r.setupOnce()
		if err != nil {
			return err
		}
		su.close()
	}
	return nil
}

// dirty sends the next whole copy (ingest) or batch of records (window)
// as one request and flushes it.
func (r *run) dirty() error {
	var batch []graph.Edge
	if r.window != nil {
		batch = r.window.next(nil, batchSize)
	} else {
		batch = r.b.appendCopies(nil, r.next, r.next+len(r.b.edges))
		r.next += len(r.b.edges)
	}
	var buf bytes.Buffer
	if err := encode(&buf, batch, r.window != nil); err != nil {
		return err
	}
	data, _, err := r.ctl().ingest(r.tr, -1, buf.Bytes())
	var resp ingestResp
	if err == nil {
		err = json.Unmarshal(data, &resp)
	}
	r.check(err == nil && resp.Accepted == len(batch), "ingest: accepted %d of %d records (%v)", resp.Accepted, len(batch), err)
	if err == nil {
		r.records += uint64(resp.Accepted)
	}
	_, err = r.flush()
	return err
}

// finish closes the run: the checked final estimate, the deletion count
// on window, the closing /metrics scrape and the server's peak RSS.
func (r *run) finish() error {
	est, ok := r.estimate()
	if !ok {
		return nil
	}
	// On the copies stream the triangle check ran on the probe. The
	// window's final counts depend on how many records the run sent, so
	// they are computed here, outside any timing.
	if r.window != nil {
		h, n, tri, wed := windowTruth(r.truthFrom())
		fmt.Fprintf(os.Stderr, "perfbench: window (%d, %d] holds %d edges, %d triangles, %d wedges\n",
			h-windowWidth, h, n, tri, wed)
		r.checkAccuracy(est, true, tri, wed)
	} else {
		copies := int64(r.next / len(r.b.edges))
		r.checkAccuracy(est, false, copies*r.b.triangles, copies*r.b.wedges)
	}
	s1, err := r.ctl().scrapeMetrics(r.tr)
	if err != nil {
		r.check(false, "scrape: %v", err)
		s1 = scrape{}
	}
	r.s1 = s1
	r.ingestCallMS, r.queryCallMS = r.calls.meanMS("serve.ingest"), r.calls.meanMS("serve.estimate")
	if r.window != nil {
		got := s1["gps_serve_deletion_records_total"]
		r.check(got == float64(r.window.deletes), "deletion records: server counted %v, sent %d", got, r.window.deletes)
	}
	r.rssMB, err = r.srv.peakRSSMB()
	return err
}

// mark is the window generator at some point of the run, with the records
// acknowledged by then: every record it had emitted.
type mark struct {
	t       *turnstile
	records uint64
}

// truthFrom returns the latest mark from which the final window can be
// recomputed, a copy of its generator and the records sent since: the
// latest whose inserts all lie before the final window, so the check
// regenerates about one load phase of records rather than the whole run's.
// Without such a mark it starts from the stream's beginning.
func (r *run) truthFrom() (*turnstile, int) {
	horizon := r.window.inserts
	for i := len(r.marks) - 1; i >= 0; i-- {
		if m := r.marks[i]; m.t.inserts+windowWidth <= horizon {
			return m.t.clone(), int(r.records - m.records)
		}
	}
	return newTurnstile(r.b, r.o.seed), int(r.records)
}

// estimate fetches one /v1/estimate answer on the control connection.
func (r *run) estimate() (estimate, bool) {
	data, _, err := r.ctl().call(r.tr, -1, "serve.estimate", http.MethodGet, "/v1/estimate", "", nil)
	r.count()
	if err == nil {
		var est estimate
		if est, err = parseEstimate(data); err == nil {
			return est, true
		}
	}
	r.fail("estimate: %v", err)
	return estimate{}, false
}

// flush posts /v1/flush, checks that the server has applied exactly the
// records it acknowledged, and returns how long that took in milliseconds.
func (r *run) flush() (float64, error) {
	start := time.Now()
	data, _, err := r.ctl().call(r.tr, -1, "serve.flush", http.MethodPost, "/v1/flush", "", nil)
	d := float64(time.Since(start)) / 1e6
	r.count()
	if err != nil {
		r.fail("flush: %v", err)
		return d, nil
	}
	var resp struct {
		Arrivals uint64 `json:"arrivals"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return d, fmt.Errorf("flush response: %w", err)
	}
	r.check(resp.Arrivals == r.records, "flush: arrivals %d, acknowledged %d", resp.Arrivals, r.records)
	return d, nil
}

// estimate is the part of the /v1/estimate answer the benchmark checks.
type estimate struct {
	Triangles   float64    `json:"triangles"`
	TrianglesCI [2]float64 `json:"triangles_ci95"`
	Wedges      float64    `json:"wedges"`
	WedgesCI    [2]float64 `json:"wedges_ci95"`
	Window      uint64     `json:"window"`
	WindowPanes int        `json:"window_panes"`
	raw         map[string]json.RawMessage
}

func parseEstimate(data []byte) (estimate, error) {
	var est estimate
	if err := json.Unmarshal(data, &est); err != nil {
		return est, err
	}
	err := json.Unmarshal(data, &est.raw)
	return est, err
}

// sameAnswer reports whether two estimate answers are bit-identical in
// everything but the snapshot's age and wall-clock stamp.
func sameAnswer(a, b estimate) bool {
	if len(a.raw) != len(b.raw) {
		return false
	}
	for k, v := range a.raw {
		if k == "snapshot_age_ms" || k == "snapshot_unix_ns" {
			continue
		}
		if !bytes.Equal(v, b.raw[k]) {
			return false
		}
	}
	return true
}

// scrapeIfTraced takes a /metrics scrape on traced runs.
func (r *run) scrapeIfTraced() (scrape, error) {
	if r.tr == nil {
		return nil, nil
	}
	return r.ctl().scrapeMetrics(r.tr)
}

// scrapeQueue samples the ingest queue gauge every 100ms on c during a
// traced phase; the returned function stops it and waits.
func (r *run) scrapeQueue(c *conn) func() {
	if r.tr == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			s, err := c.scrapeMetrics(r.tr)
			if err != nil {
				r.fail("scrape: %v", err)
				return
			}
			r.mu.Lock()
			r.queueMax = max(r.queueMax, s["gps_serve_queue_edges"])
			r.mu.Unlock()
		}
	}()
	return func() { close(done); wg.Wait() }
}

// restore starts a second server from the checkpoint at path, records the
// time until it served its first estimate, which must be bit-identical to
// want, and stops it.
func (r *run) restore(path string, want estimate) error {
	id := r.tr.begin("serve.restore", -1)
	start := time.Now()
	srv, err := startServer(r.o.server, append(r.args, "-restore", path)...)
	if err != nil {
		return err
	}
	defer srv.stop()
	rc := newConn(srv.addr, r.calls)
	defer rc.close()
	var got []byte
	for {
		status, body, err := rc.once(http.MethodGet, "/v1/estimate", "", nil)
		if err == nil && status == http.StatusOK {
			got = body
			break
		}
		if time.Since(start) > restoreTimeout {
			r.tr.end(id)
			r.fail("restore: no estimate within %s (status %d, %v)", restoreTimeout, status, err)
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	r.restoreS = append(r.restoreS, time.Since(start).Seconds())
	r.tr.end(id)
	restored, err := parseEstimate(got)
	r.check(err == nil && sameAnswer(want, restored),
		"restore: estimate after restore differs from before the checkpoint:\n  before %v\n  after  %s", want.raw, got)
	return nil
}

// checkAccuracy checks the wedge estimate, and the triangle estimate when
// triangles is set, against the exact counts tri and wed, within kSE
// standard errors taken from the answer's 95% CIs.
func (r *run) checkAccuracy(est estimate, triangles bool, tri, wed int64) {
	within := func(name string, got float64, ci [2]float64, want float64) {
		se := (ci[1] - ci[0]) / (2 * 1.959963984540054)
		z := math.Abs(got-want) / se
		fmt.Fprintf(os.Stderr, "perfbench: %s estimate %.6g, exact %.6g, %.2f standard errors\n", name, got, want, z)
		r.check(got == want || z <= kSE, "%s estimate %.6g is %.1f standard errors from the exact %.6g", name, got, z, want)
	}
	if triangles {
		within("triangle", est.Triangles, est.TrianglesCI, float64(tri))
	}
	within("wedge", est.Wedges, est.WedgesCI, float64(wed))
}

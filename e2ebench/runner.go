package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"learnedindex/internal/obs"
	"learnedindex/internal/repl"
	"learnedindex/internal/server"
	"learnedindex/internal/vfs"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string        // directory for node data and spans, inside the checkout
	setups    int           // cluster set-ups in an untraced run (setups; 1 in checks)
	wireDelay time.Duration // sensitivity check: delay per wire message
	syncDelay time.Duration // sensitivity check: delay per fsync
}

// Phase lengths as shares of --seconds. An untraced run spends
// closedShare in the closed loop and the rest on the ladder, whose rungs
// each take a fourteenth of that (a ladder runs 15 to 20); a traced run
// splits the closed loop into an untraced and a traced half.
const (
	// setups is how many times an untraced run builds the cluster;
	// setup_s and heap_bytes_per_key are medians over them.
	setups      = 7
	warmup      = 500 * time.Millisecond
	closedShare = 0.6
	replTimeout = 60 * time.Second
	probeCalls  = 200 // sequential calls in the quiet router probe
	// closedWindows cuts the untraced closed loop; each end-to-end latency
	// and keys_per_s is the median over its windows.
	closedWindows = 12
)

// runner drives one workload on one key type.
type runner[K cmp.Ordered] struct {
	cfg     config
	w       workload
	o       *keyOps[K]
	ks      *keySpace[K]
	perm    []int32
	c       *cluster[K]
	dev     *deviceFS
	clients []*client[K]
	cores   []coreIndex[K]
	wrong   wrongAnswer
	rep     *report
}

func (r *runner[K]) seconds(share float64) time.Duration {
	return time.Duration(r.cfg.seconds * share * float64(time.Second))
}

// streamSeed derives a stream's seed from the run seed, so every request
// sequence is a function of --seed alone.
func streamSeed(seed int64, client, purpose int) int64 {
	return seed*1_000_003 + int64(client)*101 + int64(purpose)
}

// newClients builds the callers: two, or one on a single-CPU host. The
// ladder's open loop uses all of them; the closed loop uses as many as the
// workload asks for.
func (r *runner[K]) newClients() {
	n := min(2, runtime.NumCPU())
	for i := 0; i < n; i++ {
		c := &client[K]{r: r, id: i}
		c.routed = newStream(r.ks, &r.w, r.perm, streamSeed(r.cfg.seed, i, 0), tagFirstSend+i)
		c.wireIns = newStream(r.ks, &r.w, r.perm, streamSeed(r.cfg.seed, i, 1), tagFirstSend+2+i)
		c.storIns = newStream(r.ks, &r.w, r.perm, streamSeed(r.cfg.seed, i, 2), tagFirstSend+4+i)
		r.clients = append(r.clients, c)
	}
}

func run[K cmp.Ordered](cfg config, w workload, o *keyOps[K], ks *keySpace[K]) (*report, error) {
	r := &runner[K]{cfg: cfg, w: w, o: o, ks: ks, rep: newReport()}
	r.perm = zipfPerm(len(ks.base), cfg.seed)
	if cfg.trace || cfg.syncDelay > 0 {
		r.dev = &deviceFS{FS: vfs.OS, syncDelay: cfg.syncDelay}
	}
	r.newClients()
	defer func() {
		if r.c != nil {
			r.c.close()
			os.RemoveAll(r.c.dir)
		}
	}()
	if err := r.setup(); err != nil {
		return r.rep, err
	}
	if cfg.trace {
		if err := r.startTracing(); err != nil {
			return r.rep, err
		}
	}
	r.closedLoop(warmup, 1, false)
	if err := r.waitReplicated(); err != nil {
		return r.rep, err
	}
	var err error
	if cfg.trace {
		err = r.tracedPhases()
	} else {
		err = r.measuredPhases()
	}
	if err != nil {
		return r.rep, err
	}
	if err := r.wrong.get(); err != nil {
		return r.rep, err
	}
	return r.rep, r.finalCheck()
}

// setup builds the cluster cfg.setups times (once when traced) and keeps
// the last one. setup_s is the time from generated keys to the first
// correct routed answer: primaries opened and persisted, servers and router
// up. The followers start after it and are caught up, flushed and
// compacted before heap_bytes_per_key, the live heap the cluster added per
// key stored across all replicas, is taken.
func (r *runner[K]) setup() error {
	n := r.cfg.setups
	if r.cfg.trace {
		n = 1
	}
	probe := newStream(r.ks, &r.w, r.perm, streamSeed(r.cfg.seed, 99, 0), 0)
	var secs, heap []float64
	for s := 0; s < n; s++ {
		dir := filepath.Join(r.cfg.out, fmt.Sprintf("data-%d-%d", os.Getpid(), s))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		before := liveHeap()
		t0 := time.Now()
		opt := clusterOptions{fs: r.dev}
		if r.cfg.wireDelay > 0 {
			opt.wire = slowTransport{Transport: repl.TCP, delay: r.cfg.wireDelay}
		}
		c, err := startCluster(r.o, r.ks, dir, opt)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.c = c
		req := probe.contains()
		got, err := r.o.rContains(c.router, req.keys)
		if err == nil {
			err = checkContains(&req, got)
		}
		if err != nil {
			return fmt.Errorf("setup: first routed answer: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if err := c.startFollowers(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := c.waitReplicated(replTimeout); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := c.quiesce(replTimeout); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		heap = append(heap, float64(liveHeap()-before)/float64(2*len(r.ks.base)))
		if s < n-1 {
			if err := c.close(); err != nil {
				return fmt.Errorf("setup: close: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			r.c = nil
		}
	}
	r.rep.add("setup_s", median(secs), "s", len(secs))
	r.rep.add("heap_bytes_per_key", median(heap), "B/key", len(heap))
	return nil
}

// liveHeap is the Go heap still reachable after full collections, taken
// once the cluster's background goroutines have had a moment to settle.
// The second collection frees what sync.Pool victim caches held through
// the first.
func liveHeap() uint64 {
	time.Sleep(100 * time.Millisecond)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (r *runner[K]) waitReplicated() error {
	if err := r.c.waitReplicated(replTimeout); err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	return nil
}

// measuredPhases is the untraced run: the closed loop, then the ladder.
func (r *runner[K]) measuredPhases() error {
	st := r.closedLoop(r.seconds(closedShare), closedWindows, false)
	if err := r.waitReplicated(); err != nil {
		return err
	}
	maxRPS, _, lst := r.ladder(r.seconds((1 - closedShare) / 14))
	for o := opKind(0); o < numOps; o++ {
		n := len(st.lat(o))
		r.rep.add(opNames[o]+"_p50_us", st.windowed(o, median), "us", n)
		r.rep.add(opNames[o]+"_p90_us", st.windowed(o, p90), "us", n)
	}
	var kps []float64
	for _, w := range st.win {
		kps = append(kps, float64(w.keys)/r.seconds(closedShare/closedWindows).Seconds())
	}
	r.rep.add("keys_per_s", median(kps), "1/s", len(kps))
	r.rep.add("max_rps", maxRPS, "1/s", int(lst.attempted))
	r.rep.attempted = st.attempted + lst.attempted
	r.rep.failed = st.failed + lst.failed
	return nil
}

// startTracing trains the core boundary's indexes and opens the per-client
// connections of the server.Client boundary.
func (r *runner[K]) startTracing() error {
	epoch := time.Now()
	var trainMs float64
	var bytes, keys int
	for i := 0; i < 3; i++ {
		nodeKeys := r.ks.base[r.ks.splits[i]:r.ks.splits[i+1]]
		t0 := time.Now()
		idx := r.o.train(nodeKeys)
		trainMs += float64(time.Since(t0).Nanoseconds()) / 1e6
		r.cores = append(r.cores, idx)
		bytes += idx.sizeBytes()
		keys += len(nodeKeys)
	}
	r.rep.add("core.train_ms", trainMs, "ms", 3)
	r.rep.add("core.index_bytes_per_key", float64(bytes)/float64(keys), "B/key", 3)
	for _, c := range r.clients {
		c.tr = &clientTracer[K]{c: c, epoch: epoch}
		for i := 0; i < 3; i++ {
			conn, err := server.Dial(r.c.opt.wire, r.c.addrs[i], r.o.strKeys, server.ClientOptions{})
			if err != nil {
				return fmt.Errorf("trace: dial node %d: %w", i, err)
			}
			c.tr.conns = append(c.tr.conns, conn)
		}
	}
	return nil
}

// tracedPhases is the traced run. The closed loop runs twice for half the
// usual time each: untraced, which also prices storage, device and
// replication over the window, then traced, which replays sampled
// requests at each boundary. A quiet probe and the ladder follow.
func (r *runner[K]) tracedPhases() error {
	half := r.seconds(closedShare / 2)
	rt0 := r.c.router.Stats()
	m0 := r.storeMetrics()
	w0, s0 := r.dev.written.Load(), r.dev.syncs.Load()
	stopLag := r.sampleLag()
	plain := r.closedLoop(half, 1, false)
	lags := stopLag()
	m1 := r.storeMetrics()
	w1, s1 := r.dev.written.Load(), r.dev.syncs.Load()
	t0 := time.Now()
	if err := r.waitReplicated(); err != nil {
		return err
	}
	catchup := float64(time.Since(t0).Nanoseconds()) / 1e6

	traced := r.closedLoop(half, 1, true)
	rt1 := r.c.router.Stats()
	nodes, allocs := r.quietProbe()
	_, lateness, lst := r.ladder(r.seconds((1 - closedShare) / 14))

	var spans []span
	var boundaryFails int64
	for _, c := range r.clients {
		spans = append(spans, c.tr.spans...)
		boundaryFails += c.tr.failed
		for _, conn := range c.tr.conns {
			conn.Close()
		}
	}
	path := filepath.Join(r.cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	l := buildLedger(spans)
	rep := r.rep
	rep.add("router.self_us", median(l.routerSelf), "us", len(l.routerSelf))
	rep.add("router.nodes_per_batch", nodes, "count", probeCalls)
	rep.add("router.allocs_per_batch", allocs, "count", probeCalls)
	rep.add("router.retries", float64(rt1.Retries-rt0.Retries), "count", int(rt1.RPCs-rt0.RPCs))
	rep.add("server.wire_us", median(l.wire), "us", len(l.wire))
	rep.add("server.pages_per_scan", ratio(float64(l.pages), float64(l.scans)), "count", l.scans)
	rep.add("serve.contains_batch_us", median(l.serveContains), "us", len(l.serveContains))
	rep.add("serve.insert_durable_us", median(l.serveInsert), "us", len(l.serveInsert))
	rep.add("serve.count_range_us", median(l.serveCount), "us", len(l.serveCount))
	flush := histDelta(m1.hist["lix_storage_flush_ns"], m0.hist["lix_storage_flush_ns"])
	rep.add("serve.drains", float64(flush.Count), "count", int(flush.Count))
	rep.add("serve.drain_ms_p99", flush.Quantile(0.99)/1e6, "ms", int(flush.Count))
	rep.add("scan.open_us", median(l.scanOpen), "us", len(l.scanOpen))
	rep.add("scan.next_ns_per_key", median(l.scanNxt), "ns", len(l.scanNxt))
	rep.add("core.plan_ns_per_key", median(l.corePerKey), "ns", len(l.corePerKey))
	var win []float64
	for _, idx := range r.cores {
		win = append(win, idx.windowMean())
	}
	rep.add("core.search_window_mean", mean(win), "count", len(win))
	fsync := histDelta(m1.hist["lix_wal_fsync_ns"], m0.hist["lix_wal_fsync_ns"])
	syncs := m1.counter["lix_storage_wal_syncs_total"] - m0.counter["lix_storage_wal_syncs_total"]
	inserted := m1.counter["lix_serve_inserts_total"] - m0.counter["lix_serve_inserts_total"]
	rep.add("storage.keys_per_fsync", ratio(float64(inserted), float64(syncs)), "count", int(syncs))
	rep.add("storage.fsync_us_p50", fsync.Quantile(0.50)/1e3, "us", int(fsync.Count))
	rep.add("storage.fsync_us_p99", fsync.Quantile(0.99)/1e3, "us", int(fsync.Count))
	for _, c := range []struct{ name, series string }{
		{"storage.flushes", "lix_storage_flushes_total"},
		{"storage.compactions", "lix_storage_compactions_total"},
		{"storage.backpressure_waits", "lix_storage_backpressure_waits_total"},
	} {
		v := m1.counter[c.series] - m0.counter[c.series]
		rep.add(c.name, float64(v), "count", int(v))
	}
	compact := histDelta(m1.hist["lix_storage_compaction_ns"], m0.hist["lix_storage_compaction_ns"])
	rep.add("storage.flush_ms_total", flush.Sum/1e6, "ms", int(flush.Count))
	rep.add("storage.compaction_ms_total", compact.Sum/1e6, "ms", int(compact.Count))
	rep.add("device.bytes_written_per_user_byte", ratio(float64(w1-w0), float64(plain.userBytes)), "ratio", int(plain.userBytes))
	rep.add("device.syncs", float64(s1-s0), "count", int(s1-s0))
	rep.add("repl.lag_frames_p99", quantile(lags, 0.99), "count", len(lags))
	rep.add("repl.catchup_ms", catchup, "ms", 1)
	rep.add("gen.lateness_p99_us", quantile(lateness, 0.99), "us", len(lateness))
	untracedP50 := median(plain.lat(opContains))
	tracedP50 := median(traced.lat(opContains))
	rep.add("trace.overhead_pct", 100*(tracedP50/untracedP50-1), "%", len(traced.lat(opContains)))
	rep.attempted = plain.attempted + traced.attempted + lst.attempted
	rep.failed = plain.failed + traced.failed + lst.failed + boundaryFails
	return nil
}

// quietProbe sends probeCalls membership batches one at a time with no
// other load, first through the router and then to each owning node's
// server.Client directly. Router Stats give nodes contacted per batch; the
// difference in heap allocations per batch is the router's own share.
func (r *runner[K]) quietProbe() (nodesPerBatch, allocsPerBatch float64) {
	c := r.clients[0]
	reqs := make([]request[K], probeCalls)
	for i := range reqs {
		reqs[i] = c.routed.contains()
	}
	var ms0, ms1, ms2 runtime.MemStats
	st0 := r.c.router.Stats()
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		got, err := r.o.rContains(r.c.router, reqs[i].keys)
		if err == nil {
			if err := checkContains(&reqs[i], got); err != nil {
				r.wrong.set(err)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	st1 := r.c.router.Stats()
	var sub [3][]K
	for i := range reqs {
		for n := range sub {
			sub[n] = sub[n][:0]
		}
		for _, k := range reqs[i].keys {
			n := nodeOf(r.ks, k)
			sub[n] = append(sub[n], k)
		}
		for n := range sub {
			if len(sub[n]) > 0 {
				if _, err := r.o.cContains(c.tr.conns[n], sub[n]); err != nil {
					c.tr.fail(n, err)
				}
			}
		}
	}
	runtime.ReadMemStats(&ms2)
	routed := float64(ms1.Mallocs - ms0.Mallocs)
	direct := float64(ms2.Mallocs - ms1.Mallocs)
	return float64(st1.RPCs-st0.RPCs) / probeCalls, (routed - direct) / probeCalls
}

// sampleLag polls every follower's lag until the returned stop function is
// called; stop returns the samples.
func (r *runner[K]) sampleLag() func() []float64 {
	var lags []float64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, f := range r.c.followers {
					if st, ok := f.FollowerStatus(); ok {
						lags = append(lags, float64(st.LagFrames))
					}
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return lags
	}
}

// metricsSnap is the primaries' summed counters and merged histograms.
type metricsSnap struct {
	counter map[string]int64
	hist    map[string]obs.HistSnapshot
}

func (r *runner[K]) storeMetrics() metricsSnap {
	m := metricsSnap{counter: map[string]int64{}, hist: map[string]obs.HistSnapshot{}}
	for _, p := range r.c.primaries {
		s := p.Metrics()
		for k, v := range s.Counters {
			m.counter[k] += v
		}
		for k, h := range s.Histograms {
			acc := m.hist[k]
			acc.Merge(h)
			m.hist[k] = acc
		}
	}
	return m
}

// histDelta is the histogram of the observations made between two
// snapshots of the same histogram.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	prev := map[uint64]uint64{}
	for _, b := range before.Buckets {
		prev[b.Lo] = b.Count
	}
	var d obs.HistSnapshot
	for _, b := range after.Buckets {
		b.Count -= prev[b.Lo]
		if b.Count > 0 {
			d.Buckets = append(d.Buckets, b)
			d.Count += b.Count
		}
	}
	d.Sum = after.Sum - before.Sum
	return d
}

// finalCheck quiesces the cluster and checks every acknowledged insert is
// visible through routed scans and counts, on every follower, and on every
// node again after a clean close and reopen.
func (r *runner[K]) finalCheck() error {
	c, ks, o := r.c, r.ks, r.o
	if err := r.waitReplicated(); err != nil {
		return err
	}
	for _, p := range c.primaries {
		p.Flush()
	}
	n := len(ks.base)
	var zero K
	got, err := o.rScan(c.router, zero, ks.max, nil)
	if err != nil {
		return fmt.Errorf("final routed scan: %w", err)
	}
	required := ks.ackedRequired(0, n)
	if err := checkRange(ks, 0, n, got, required, ks.issuedMask); err != nil {
		return fmt.Errorf("final routed scan: %w", err)
	}
	for i := 0; i < 3; i++ {
		lo, hi := ks.nodeRange(i)
		cnt, err := o.rCount(c.router, lo, hi)
		if err != nil {
			return fmt.Errorf("final routed count: %w", err)
		}
		a, b := ks.splits[i], ks.splits[i+1]
		if err := checkCount(ks, a, b, cnt, required[a:b]); err != nil {
			return fmt.Errorf("final routed count node %d: %w", i, err)
		}
	}
	if !r.cfg.trace {
		r.rep.add("disk_bytes_per_key", float64(c.diskBytes())/float64(len(got)), "B/key", len(got))
	}
	for i, f := range c.followers {
		if err := c.checkNode(f, i, "follower"); err != nil {
			return err
		}
	}
	err = c.reopenCheck()
	r.c = nil
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

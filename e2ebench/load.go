package main

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is one slice of a closed-loop phase: per-operation latencies of
// the routed calls in microseconds, and keys moved.
type window struct {
	lat  [numOps][]float64
	keys int64
}

// phaseStats is what one timed phase measured. The closed loop is cut into
// windows so each figure can be the median over windows: a burst of
// background work or of another tenant's load then moves one window, not
// the run.
type phaseStats struct {
	win       []window
	cur       int   // window exec records into
	userBytes int64 // bytes of keys acknowledged by routed inserts
	attempted int64
	failed    int64
}

func newPhaseStats(windows int) *phaseStats { return &phaseStats{win: make([]window, windows)} }

func (p *phaseStats) merge(q *phaseStats) {
	for i := range q.win {
		for o := range p.win[i].lat {
			p.win[i].lat[o] = append(p.win[i].lat[o], q.win[i].lat[o]...)
		}
		p.win[i].keys += q.win[i].keys
	}
	p.userBytes += q.userBytes
	p.attempted += q.attempted
	p.failed += q.failed
}

// lat pools an operation's latencies over every window.
func (p *phaseStats) lat(o opKind) []float64 {
	var all []float64
	for i := range p.win {
		all = append(all, p.win[i].lat[o]...)
	}
	return all
}

// windowed returns the median over windows of f applied to each window's
// latencies of o, skipping windows with fewer than minSamples of them.
func (p *phaseStats) windowed(o opKind, f func([]float64) float64) float64 {
	const minSamples = 20
	var per []float64
	for i := range p.win {
		if len(p.win[i].lat[o]) >= minSamples {
			per = append(per, f(p.win[i].lat[o]))
		}
	}
	return median(per)
}

// wrongAnswer latches the first wrong answer any client sees.
type wrongAnswer struct {
	mu  sync.Mutex
	err error
	hit atomic.Bool
}

func (w *wrongAnswer) set(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.hit.Store(true)
}

func (w *wrongAnswer) get() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// client is one closed-loop caller's private state: its request streams,
// scratch buffers and, in a traced phase, its span buffer and per-node
// connections for the lower boundaries.
type client[K cmp.Ordered] struct {
	r       *runner[K]
	id      int
	routed  *stream[K] // requests sent to the router
	wireIns *stream[K] // fresh keys for inserts replayed at the server.Client boundary
	storIns *stream[K] // fresh keys for inserts replayed at the serve.Store boundary
	masks   []uint32
	scanBuf []K
	tr      *clientTracer[K]
}

// exec sends one request through the router, checks its answer, and
// records it in st's current window. It returns when the call started, how
// long it took, and whether it succeeded with a correct answer. A transport
// or store error is a failed call; a wrong answer is latched separately and
// never counts as a failure.
func (c *client[K]) exec(req *request[K], st *phaseStats) (time.Time, time.Duration, bool) {
	r := c.r
	o, ks, rt := r.o, r.ks, r.c.router
	var required []uint32
	if req.op == opScan || req.op == opCount {
		c.masks = ks.snapshotMasks(req.a, req.b, c.masks)
		required = c.masks
	}
	var (
		err, wrong error
		moved      int
		got        []bool
		n          int
	)
	t0 := time.Now()
	switch req.op {
	case opContains:
		got, err = o.rContains(rt, req.keys)
	case opInsert:
		err = o.rInsert(rt, req.keys)
	case opScan:
		c.scanBuf, err = o.rScan(rt, ks.base[req.a], ks.base[req.b], c.scanBuf[:0])
	case opCount:
		n, err = o.rCount(rt, ks.base[req.a], ks.base[req.b])
	}
	d := time.Since(t0)
	st.attempted++
	if err != nil {
		st.failed++
		return t0, d, false
	}
	switch req.op {
	case opContains:
		wrong, moved = checkContains(req, got), len(req.keys)
	case opInsert:
		ks.markAcked(req.ranks, req.tag)
		moved = len(req.keys)
		for _, k := range req.keys {
			st.userBytes += int64(o.userBytes(k))
		}
	case opScan:
		wrong, moved = checkRange(ks, req.a, req.b, c.scanBuf, required, ks.issuedMask), len(c.scanBuf)
	case opCount:
		wrong = checkCount(ks, req.a, req.b, n, required)
	}
	if wrong != nil {
		r.wrong.set(wrong)
		return t0, d, false
	}
	w := &st.win[st.cur]
	w.keys += int64(moved)
	w.lat[req.op] = append(w.lat[req.op], float64(d.Nanoseconds())/1e3)
	return t0, d, true
}

// closedLoop runs every client for d, cut into the given number of
// windows: each client sends its next request only after the previous one
// answered. With traced set, every traceEvery-th request is replayed at
// each lower boundary after it completes.
func (r *runner[K]) closedLoop(d time.Duration, windows int, traced bool) *phaseStats {
	total := newPhaseStats(windows)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	winLen := d / time.Duration(windows)
	for _, c := range r.clients[:min(r.w.clients, len(r.clients))] {
		wg.Add(1)
		go func(c *client[K]) {
			defer wg.Done()
			st := newPhaseStats(windows)
			for i := 0; !r.wrong.hit.Load(); i++ {
				st.cur = int(time.Since(start) / winLen)
				if st.cur >= windows {
					break
				}
				req := c.routed.next()
				t0, d, ok := c.exec(&req, st)
				if ok && traced && i%traceEvery == 0 {
					c.tr.replay(&req, t0, d)
				}
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total
}

// Open-loop ladder. Fixed rung k offers ladderBase·√2^k membership
// batches per second, split evenly over the clients. Each request is timed
// from when it was due, so a stall charges every request queued behind it.
// A rung passes when no call fails and the median latency from due time is
// at most ladderLimit. The median, not p99, carries the limit: on a shared
// 2-vCPU host the p99 at light load swings between 0.5 and 20 ms from rung
// to rung regardless of rate, while the median stays near 200 µs until the
// backlog starts to grow and then jumps to tens of milliseconds.
const (
	ladderBase   = 1000.0
	ladderRungs  = 12 // fixed rungs, up to 45k batches per second
	ladderRefine = 4
	ladderLimit  = time.Millisecond
)

type rungResult struct {
	rate     float64
	p50, p99 float64   // µs from due time; +Inf when a call failed
	lateness []float64 // µs the generator sent after due time
	pass     bool
}

func (r *runner[K]) rung(rate float64, d time.Duration, st *phaseStats) rungResult {
	n := len(r.clients)
	period := time.Duration(float64(n) / rate * 1e9)
	start := time.Now().Add(time.Millisecond)
	var mu sync.Mutex
	var wg sync.WaitGroup
	res := rungResult{rate: rate}
	var lat []float64
	failed := false
	for ci, c := range r.clients {
		wg.Add(1)
		go func(ci int, c *client[K]) {
			defer wg.Done()
			ps := newPhaseStats(1)
			var myLat, myLate []float64
			offset := time.Duration(float64(ci) / rate * 1e9)
			for k := 0; !r.wrong.hit.Load(); k++ {
				due := start.Add(offset + time.Duration(k)*period)
				if due.Sub(start) >= d {
					break
				}
				req := c.routed.contains()
				sleepUntil(due)
				myLate = append(myLate, float64(time.Since(due).Nanoseconds())/1e3)
				if _, _, ok := c.exec(&req, ps); !ok {
					continue
				}
				myLat = append(myLat, float64(time.Since(due).Nanoseconds())/1e3)
			}
			mu.Lock()
			lat = append(lat, myLat...)
			res.lateness = append(res.lateness, myLate...)
			failed = failed || ps.failed > 0 || len(myLat) < len(myLate)
			st.merge(ps)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	res.p50, res.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	if failed {
		res.p50, res.p99 = math.Inf(1), math.Inf(1)
	}
	res.pass = len(lat) > 0 && res.p50 <= float64(ladderLimit.Microseconds())
	fmt.Printf("ladder %8.0f/s: p50 %8.1fus p99 %8.1fus from due, n=%d, pass %v\n", res.rate, res.p50, res.p99, len(res.lateness), res.pass)
	return res
}

// sleepUntil waits for t. time.Sleep overshoots by about a millisecond on
// common Linux hosts, which would read as system latency at rates above a
// thousand per second. nanosleep blocks only this goroutine's thread; the
// runtime hands its processor to other goroutines meanwhile.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR wakes early; the loop sleeps again
	}
}

// ladder climbs the fixed rungs until two in a row fail; the highest
// passing fixed rung and the one above it bracket the limit, and bisection
// narrows the bracket. A rung that fails is run once more and counts as
// failed only if it fails again. Both rules keep a stall on a shared host
// from ending the climb early. max_rps interpolates, on log scales, where
// the median crosses the limit inside the final bracket. lateness pools
// the generator's lateness over every passing rung.
func (r *runner[K]) ladder(rungDur time.Duration) (maxRPS float64, lateness []float64, st *phaseStats) {
	st = newPhaseStats(1)
	try := func(rate float64) *rungResult {
		res := r.rung(rate, rungDur, st)
		if !res.pass && !r.wrong.hit.Load() {
			res = r.rung(rate, rungDur, st)
		}
		if res.pass {
			lateness = append(lateness, res.lateness...)
		}
		return &res
	}
	var lo, hi *rungResult
	fails := 0
	for k := 0; k < ladderRungs && fails < 2 && !r.wrong.hit.Load(); k++ {
		res := try(ladderBase * math.Pow(math.Sqrt2, float64(k)))
		if res.pass {
			lo, hi, fails = res, nil, 0
			continue
		}
		if hi == nil {
			hi = res
		}
		fails++
	}
	if lo == nil {
		return 0, lateness, st
	}
	if hi == nil {
		return lo.rate, lateness, st
	}
	for i := 0; i < ladderRefine && !r.wrong.hit.Load(); i++ {
		if res := try(math.Sqrt(lo.rate * hi.rate)); res.pass {
			lo = res
		} else {
			hi = res
		}
	}
	limit := float64(ladderLimit.Microseconds())
	frac := 0.0
	if !math.IsInf(hi.p50, 1) && hi.p50 > lo.p50 {
		frac = (math.Log(limit) - math.Log(lo.p50)) / (math.Log(hi.p50) - math.Log(lo.p50))
	}
	frac = math.Max(0, math.Min(1, frac))
	return lo.rate * math.Pow(hi.rate/lo.rate, frac), lateness, st
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the method of Python's statistics.quantiles, inclusive).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	f := pos - float64(i)
	return xs[i]*(1-f) + xs[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func p90(xs []float64) float64 { return quantile(xs, 0.9) }

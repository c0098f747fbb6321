// Package router is the client half of the network serving plane: a
// range-partitioned view over several lix-server nodes. It owns a key→node
// range map (fence keys, exactly like serve.Store's shard bounds), splits
// each probe batch across nodes the way internal/serve splits across
// shards — sort once, slice by fence — scatters the per-node sub-batches
// over the wire and gathers the answers back into probe order. Scatter and
// gather run on the caller's goroutine: the router writes every contacted
// node's request before it reads any answer, so the nodes work at once
// while the router starts no goroutine (and a batch one node owns is one
// plain RPC). Range reads prune nodes whose fences cannot intersect the range
// (the data-skipping idea applied at the partition level), and cross-node
// scans merge per-node pages through internal/scan's loser tree.
//
// Reads can optionally be served by replication followers (PR 9) with a
// bounded staleness: a follower is eligible only while a fresh Status RPC
// shows it connected and at most MaxFollowerLag frames behind its primary.
//
// Every RPC the router issues is idempotent — reads trivially, durable
// inserts by set semantics — so transport faults are retried with backoff
// against a fresh connection. Store-level errors (server.RemoteError) are
// deterministic and surface immediately.
package router

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learnedindex/internal/repl"
	"learnedindex/internal/server"
)

// Node describes one partition: the primary server address plus optional
// follower addresses eligible for bounded-staleness reads.
type Node struct {
	Addr      string
	Followers []string
}

// Options tunes a Router. Transport and the fence set for the router's key
// mode are the load-bearing fields; everything else has defaults.
type Options struct {
	// Transport carries every connection (default repl.TCP). Tests pass
	// the in-memory or fault-injecting transport.
	Transport repl.Transport
	// StringKeys fixes the router's key mode, which must match every
	// node's store mode (the handshake enforces it per connection).
	StringKeys bool
	// Fences are the len(nodes)-1 ascending split keys of a uint64
	// router: node i owns [Fences[i-1], Fences[i]), with the first node
	// open below and the last open above — serve.Store's shard bounds,
	// one level up.
	Fences []uint64
	// FencesStr are the split keys of a string router.
	FencesStr []string
	// RetryAttempts is how many times a single RPC is tried against
	// fresh connections before the error surfaces (default 8).
	RetryAttempts int
	// RetryBackoff is the first retry delay; it doubles per attempt and
	// is capped at 250ms (default 2ms).
	RetryBackoff time.Duration
	// ClientTimeout bounds each RPC end to end (server.ClientOptions).
	ClientTimeout time.Duration
	// ReadFollowers lets read RPCs hit follower endpoints whose cached
	// status is fresh, connected, and within MaxFollowerLag frames of
	// the primary. Writes always go to the primary.
	ReadFollowers bool
	// MaxFollowerLag is the largest LagFrames a follower may report and
	// still serve reads (default 0: only fully caught-up followers).
	MaxFollowerLag uint64
	// StatusRefresh is how long a follower's status check stays fresh
	// (default 250ms) — the staleness bound on the eligibility decision,
	// on top of the lag bound itself.
	StatusRefresh time.Duration
	// ScanPageKeys is the page size of cross-node scans (default 4096).
	ScanPageKeys int
	// PoolSize caps idle pooled connections per endpoint (default 8).
	PoolSize int
}

func (o Options) withDefaults() Options {
	if o.Transport == nil {
		o.Transport = repl.TCP
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 8
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.StatusRefresh <= 0 {
		o.StatusRefresh = 250 * time.Millisecond
	}
	if o.ScanPageKeys <= 0 {
		o.ScanPageKeys = 4096
	}
	if o.ScanPageKeys > 1<<16 {
		o.ScanPageKeys = 1 << 16
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 8
	}
	return o
}

// Stats is a point-in-time snapshot of the router's own counters — the
// client-side mirror of the server's lix_server_* series.
type Stats struct {
	// RPCs counts every RPC issued (including retried attempts' first
	// tries; each do() call counts each attempt).
	RPCs int64
	// Retries counts RPC attempts after the first.
	Retries int64
	// Batches counts batch operations (lookup/contains/insert/count/scan).
	Batches int64
	// FanoutBatches counts batches that touched two or more nodes.
	FanoutBatches int64
	// PrunedNodes counts node contacts skipped because the node's fence
	// range could not intersect the operation.
	PrunedNodes int64
	// FollowerReads counts read RPC groups routed to a follower endpoint.
	FollowerReads int64
	// NodeRPCs is RPCs broken down by node index.
	NodeRPCs []int64
}

// Router is a range-partitioned client over several servers. Safe for
// concurrent use: every operation acquires connections from per-endpoint
// pools.
type Router struct {
	opt   Options
	nodes []*node

	rpcs, retries, batches, fanout atomic.Int64
	pruned, followerReads          atomic.Int64
	nodeRPCs                       []atomic.Int64
}

type node struct {
	primary   *endpoint
	followers []*endpoint
}

// endpoint is one dialable address plus its idle-connection pool and (for
// followers) the cached status that gates read eligibility.
type endpoint struct {
	rt   *Router
	addr string
	idx  int // owning node index, for per-node stats

	mu       sync.Mutex
	idle     []*server.Client
	status   server.Status
	statusAt time.Time
	statusOK bool
}

// New builds a router over nodes. The fence set for the configured key
// mode must hold exactly len(nodes)-1 strictly ascending keys.
func New(nodes []Node, opt Options) (*Router, error) {
	opt = opt.withDefaults()
	if len(nodes) == 0 {
		return nil, errors.New("router: no nodes")
	}
	var err error
	if opt.StringKeys {
		err = checkFences(opt.FencesStr, len(nodes))
	} else {
		err = checkFences(opt.Fences, len(nodes))
	}
	if err != nil {
		return nil, err
	}
	r := &Router{opt: opt, nodeRPCs: make([]atomic.Int64, len(nodes))}
	for i, n := range nodes {
		nd := &node{primary: &endpoint{rt: r, addr: n.Addr, idx: i}}
		for _, f := range n.Followers {
			nd.followers = append(nd.followers, &endpoint{rt: r, addr: f, idx: i})
		}
		r.nodes = append(r.nodes, nd)
	}
	return r, nil
}

// checkFences validates the fence set of the router's key mode: exactly
// nodes-1 strictly ascending keys.
func checkFences[K key](fences []K, nodes int) error {
	if len(fences) != nodes-1 {
		return fmt.Errorf("router: %d nodes need %d %T fences, have %d", nodes, nodes-1, *new(K), len(fences))
	}
	for i := 1; i < len(fences); i++ {
		if fences[i] <= fences[i-1] {
			return errors.New("router: fences not strictly ascending")
		}
	}
	return nil
}

// Close drops every pooled connection. In-flight operations on other
// goroutines fail their current attempt and redial (which may succeed);
// Close is for teardown, not fencing.
func (r *Router) Close() error {
	for _, n := range r.nodes {
		n.primary.drain()
		for _, f := range n.followers {
			f.drain()
		}
	}
	return nil
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	s := Stats{
		RPCs:          r.rpcs.Load(),
		Retries:       r.retries.Load(),
		Batches:       r.batches.Load(),
		FanoutBatches: r.fanout.Load(),
		PrunedNodes:   r.pruned.Load(),
		FollowerReads: r.followerReads.Load(),
		NodeRPCs:      make([]int64, len(r.nodeRPCs)),
	}
	for i := range r.nodeRPCs {
		s.NodeRPCs[i] = r.nodeRPCs[i].Load()
	}
	return s
}

func (e *endpoint) drain() {
	e.mu.Lock()
	idle := e.idle
	e.idle = nil
	e.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

func (e *endpoint) acquire() (*server.Client, error) {
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()
	return server.Dial(e.rt.opt.Transport, e.addr, e.rt.opt.StringKeys,
		server.ClientOptions{Timeout: e.rt.opt.ClientTimeout})
}

func (e *endpoint) release(c *server.Client) {
	e.mu.Lock()
	if len(e.idle) < e.rt.opt.PoolSize {
		e.idle = append(e.idle, c)
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	c.Close()
}

// do runs one RPC against the endpoint, retrying transport faults with
// backoff against a fresh connection each time. Safe because every router
// RPC is idempotent. A store-level RemoteError is deterministic — it
// surfaces immediately with the connection kept.
func (e *endpoint) do(fn func(*server.Client) error) error { return e.retry(0, nil, fn) }

// retry is do's attempt loop entered at attempt first, where lastErr is the
// transport fault that ended the attempt before it.
func (e *endpoint) retry(first int, lastErr error, fn func(*server.Client) error) error {
	backoff := e.rt.opt.RetryBackoff
	for attempt := first; attempt < e.rt.opt.RetryAttempts; attempt++ {
		if attempt > 0 {
			e.rt.retries.Add(1)
			time.Sleep(backoff)
			if backoff < 250*time.Millisecond {
				backoff *= 2
			}
		}
		c, err := e.attempt()
		if err == nil {
			if err = e.settle(c, fn(c)); err == nil || remote(err) {
				return err
			}
		}
		lastErr = err
	}
	return fmt.Errorf("router: %s: %w", e.addr, lastErr)
}

// attempt acquires a connection for one RPC attempt and counts the RPC.
func (e *endpoint) attempt() (*server.Client, error) {
	c, err := e.acquire()
	if err == nil {
		e.rt.rpcs.Add(1)
		e.rt.nodeRPCs[e.idx].Add(1)
	}
	return c, err
}

// settle ends an attempt on c with its outcome err: the connection goes
// back to the pool after an answer or a RemoteError, and is closed after a
// transport fault.
func (e *endpoint) settle(c *server.Client, err error) error {
	if err == nil || remote(err) {
		e.release(c)
	} else {
		c.Close()
	}
	return err
}

// remote reports whether err is a store-level failure, which retrying
// would only repeat.
func remote(err error) bool {
	var re *server.RemoteError
	return errors.As(err, &re)
}

// readEndpoint picks where a read RPC for node n goes: a lag-bounded
// follower when allowed and available, else the primary.
func (r *Router) readEndpoint(n *node) *endpoint {
	if !r.opt.ReadFollowers {
		return n.primary
	}
	for _, f := range n.followers {
		if f.freshFollower() {
			r.followerReads.Add(1)
			return f
		}
	}
	return n.primary
}

// freshFollower reports whether the endpoint's status — refreshed over the
// wire when older than StatusRefresh — shows a connected follower within
// MaxFollowerLag frames of its primary.
func (e *endpoint) freshFollower() bool {
	e.mu.Lock()
	fresh := e.statusOK && time.Since(e.statusAt) < e.rt.opt.StatusRefresh
	st := e.status
	e.mu.Unlock()
	if !fresh {
		var got server.Status
		err := e.do(func(c *server.Client) error {
			var err error
			got, err = c.StatusRPC()
			return err
		})
		e.mu.Lock()
		e.statusOK = err == nil
		e.statusAt = time.Now()
		if err == nil {
			e.status = got
		}
		st = e.status
		fresh = e.statusOK
		e.mu.Unlock()
		if !fresh {
			return false
		}
	}
	return st.Follower && st.Connected && st.LagFrames <= e.rt.opt.MaxFollowerLag
}

// ---- batch splitting (serve's sort-once, slice-by-fence, one level up) ----

// sortWithPerm returns the probes in ascending order plus the permutation
// mapping sorted index back to probe index (nil when the probes arrive
// sorted, so sorted is probes itself), mirroring serve.sortProbes.
func sortWithPerm[K cmp.Ordered](probes []K) (sorted []K, perm []int32) {
	if slices.IsSorted(probes) {
		return probes, nil
	}
	pairs := make([]probeSlot[K], len(probes))
	for i, k := range probes {
		pairs[i] = probeSlot[K]{k: k, i: int32(i)}
	}
	slices.SortFunc(pairs, func(a, b probeSlot[K]) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	sorted = make([]K, len(probes))
	perm = make([]int32, len(probes))
	for j, p := range pairs {
		sorted[j], perm[j] = p.k, p.i
	}
	return sorted, perm
}

// probeSlot carries a probe and its batch index through the sort.
type probeSlot[K cmp.Ordered] struct {
	k K
	i int32
}

// origin maps sorted index j back to its probe index.
func origin(perm []int32, j int) int {
	if perm == nil {
		return j
	}
	return int(perm[j])
}

func lowerBound[K cmp.Ordered](s []K, key K) int {
	return sort.Search(len(s), func(i int) bool { return s[i] >= key })
}

// splitRuns slices sorted into one contiguous [start, end) run per node:
// run i holds the keys node i owns under fences. Empty runs mean the node
// is not involved (and range reads skip it).
func splitRuns[K cmp.Ordered](sorted, fences []K) [][2]int {
	runs := make([][2]int, len(fences)+1)
	start := 0
	for i, f := range fences {
		end := start + lowerBound(sorted[start:], f)
		runs[i] = [2]int{start, end}
		start = end
	}
	runs[len(fences)] = [2]int{start, len(sorted)}
	return runs
}

// tallyFanout bumps the batch counters: every operation is a batch, one
// touching ≥2 nodes is a fan-out, and untouched nodes count as pruned
// when pruned is true (range reads skip them; lookups must still fetch
// every node's length).
func (r *Router) tallyFanout(contacted, total int, pruned bool) {
	r.batches.Add(1)
	if contacted >= 2 {
		r.fanout.Add(1)
	}
	if pruned && total > contacted {
		r.pruned.Add(int64(total - contacted))
	}
}

// key is the router's key domain, which must match every node's store.
type key interface{ uint64 | string }

// fencesFor is the router's one key-mode check: it returns the fence set
// of K's mode, panicking when K is not the router's key type.
func fencesFor[K key](r *Router) []K {
	var fences any = r.opt.Fences
	mode := "uint64"
	if r.opt.StringKeys {
		fences, mode = r.opt.FencesStr, "string"
	}
	f, ok := fences.([]K)
	if !ok {
		panic(fmt.Sprintf("router: %T operation on a %s-keyed router", *new(K), mode))
	}
	return f
}

// batchOp is one batch's per-node RPC, split into its halves so that
// scatterGather can write every node's request before it reads any answer.
type batchOp struct {
	// active reports whether node i owns part of the batch.
	active func(i int) bool
	// all contacts inactive nodes too (lookups need every node's length);
	// otherwise they are skipped and counted as pruned.
	all bool
	// write sends to primaries only; reads may go to followers.
	write bool
	// send writes node i's request on c; recv reads its answer and stores
	// it for the merge.
	send, recv func(i int, c *server.Client) error
}

// call is one node's share of a scattered batch: where it went, the
// connection awaiting its answer, and the outcome of its first attempt.
type call struct {
	ep  *endpoint
	c   *server.Client
	err error
}

// scatterGather runs op on every contacted node from the calling
// goroutine. It writes each node's request, then reads the answers in node
// order, so the nodes work concurrently without a router goroutine. That
// scattered try is attempt 1 of each node's RetryAttempts: a node whose
// attempt hit a transport fault is retried alone afterwards — once no other
// answer is pending — through the endpoint's backoff. A RemoteError is
// final. The batch is tallied and the per-node errors are joined.
func (r *Router) scatterGather(op batchOp) error {
	calls := make([]call, len(r.nodes))
	contacted := 0
	for i, n := range r.nodes {
		if op.active(i) {
			contacted++
		} else if !op.all {
			continue
		}
		cl := &calls[i]
		cl.ep = n.primary
		if !op.write {
			cl.ep = r.readEndpoint(n)
		}
		if cl.c, cl.err = cl.ep.attempt(); cl.err != nil {
			continue
		}
		if cl.err = op.send(i, cl.c); cl.err != nil {
			cl.ep.settle(cl.c, cl.err)
			cl.c = nil
		}
	}
	r.tallyFanout(contacted, len(r.nodes), !op.all)
	for i := range calls {
		if cl := &calls[i]; cl.c != nil {
			cl.err = cl.ep.settle(cl.c, op.recv(i, cl.c))
		}
	}
	var errs []error
	for i := range calls {
		i, cl := i, &calls[i]
		if cl.err != nil && !remote(cl.err) {
			cl.err = cl.ep.retry(1, cl.err, func(c *server.Client) error {
				if err := op.send(i, c); err != nil {
					return err
				}
				return op.recv(i, c)
			})
		}
		if cl.err != nil {
			errs = append(errs, cl.err)
		}
	}
	return errors.Join(errs...)
}

// LookupBatch answers the global lower-bound position of every probe, in
// probe order, over the partitioned keyspace: each node reports positions
// local to its partition plus its length, and the router adds the prefix
// sum of preceding node lengths — the cross-node version of how a store
// sums shard snapshot lengths. Every node is contacted (a probe-less node
// still contributes its length to the offsets).
//
// The rank is a sum of per-node lengths, each read when that node answered,
// not one snapshot of the cluster: under concurrent inserts it can count
// an insert on one node and miss an earlier one on another. With no
// concurrent writes it equals the rank in the union of the nodes' keys.
func (r *Router) LookupBatch(probes []uint64) ([]int, error) { return lookupBatch(r, probes) }

// LookupBatchString is LookupBatch for a string-keyed router.
func (r *Router) LookupBatchString(probes []string) ([]int, error) { return lookupBatch(r, probes) }

func lookupBatch[K key](r *Router, probes []K) ([]int, error) {
	fences := fencesFor[K](r)
	sorted, perm := sortWithPerm(probes)
	runs := splitRuns(sorted, fences)
	lens := make([]int, len(r.nodes))
	posPer := make([][]int, len(r.nodes))
	err := r.scatterGather(batchOp{
		active: func(i int) bool { return runs[i][1] > runs[i][0] },
		all:    true,
		send: func(i int, c *server.Client) error {
			return server.SendLookupBatch(c, sorted[runs[i][0]:runs[i][1]])
		},
		recv: func(i int, c *server.Client) (err error) {
			posPer[i], lens[i], err = c.RecvLookupBatch()
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	out := make([]int, len(probes))
	off := 0
	for i, run := range runs {
		for j, p := range posPer[i] {
			out[origin(perm, run[0]+j)] = p + off
		}
		off += lens[i]
	}
	return out, nil
}

// ContainsBatch answers Contains for every probe in probe order. Only the
// nodes owning at least one probe are contacted.
func (r *Router) ContainsBatch(probes []uint64) ([]bool, error) { return containsBatch(r, probes) }

// ContainsBatchString is ContainsBatch for a string-keyed router.
func (r *Router) ContainsBatchString(probes []string) ([]bool, error) {
	return containsBatch(r, probes)
}

func containsBatch[K key](r *Router, probes []K) ([]bool, error) {
	fences := fencesFor[K](r)
	sorted, perm := sortWithPerm(probes)
	runs := splitRuns(sorted, fences)
	out := make([]bool, len(probes))
	err := r.scatterGather(batchOp{
		active: func(i int) bool { return runs[i][1] > runs[i][0] },
		send: func(i int, c *server.Client) error {
			return server.SendContainsBatch(c, sorted[runs[i][0]:runs[i][1]])
		},
		recv: func(i int, c *server.Client) error {
			bs, err := c.RecvContainsBatch()
			for j, b := range bs {
				out[origin(perm, runs[i][0]+j)] = b
			}
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InsertDurable routes each key to its owner node's group-commit durable
// write path; nil means every key is fsync-durable on its node. Duplicate
// keys are no-ops (set semantics), so a partially failed call is safe to
// retry verbatim.
func (r *Router) InsertDurable(keys ...uint64) error { return insertDurable(r, keys) }

// InsertDurableString is InsertDurable for a string-keyed router.
func (r *Router) InsertDurableString(keys ...string) error { return insertDurable(r, keys) }

func insertDurable[K key](r *Router, keys []K) error {
	fences := fencesFor[K](r)
	sorted, _ := sortWithPerm(keys)
	runs := splitRuns(sorted, fences)
	return r.scatterGather(batchOp{
		active: func(i int) bool { return runs[i][1] > runs[i][0] },
		write:  true,
		send: func(i int, c *server.Client) error {
			return server.SendInsert(c, sorted[runs[i][0]:runs[i][1]])
		},
		recv: func(_ int, c *server.Client) error { return c.RecvInsert() },
	})
}

// CountRange returns the exact number of keys in [lo, hi) by summing
// per-node counts over the range clipped to each node's fences; nodes
// whose range cannot intersect are never contacted.
func (r *Router) CountRange(lo, hi uint64) (int, error) { return countRange(r, lo, hi, true) }

// CountRangeString is CountRange for a string-keyed router.
func (r *Router) CountRangeString(lo, hi string) (int, error) { return countRange(r, lo, hi, true) }

// CountFromString counts every key >= lo.
func (r *Router) CountFromString(lo string) (int, error) { return countRange(r, lo, "", false) }

func countRange[K key](r *Router, lo, hi K, bounded bool) (int, error) {
	fences := fencesFor[K](r)
	if bounded && hi <= lo {
		r.batches.Add(1)
		return 0, nil
	}
	counts := make([]int, len(r.nodes))
	err := r.scatterGather(batchOp{
		active: func(i int) bool {
			_, _, _, ok := clipRange(lo, hi, bounded, fences, i)
			return ok
		},
		send: func(i int, c *server.Client) error {
			clo, chi, cbounded, _ := clipRange(lo, hi, bounded, fences, i)
			return server.SendCountRange(c, clo, chi, cbounded)
		},
		recv: func(i int, c *server.Client) (err error) {
			counts[i], err = c.RecvCountRange()
			return err
		},
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// clipRange intersects [lo, hi) — [lo, ∞) when bounded is false — with
// node i's fence range. The clipped range is bounded whenever the node has
// an upper fence; ok reports a non-empty intersection.
func clipRange[K key](lo, hi K, bounded bool, fences []K, i int) (clo, chi K, cbounded, ok bool) {
	if i > 0 && fences[i-1] > lo {
		lo = fences[i-1]
	}
	if i < len(fences) && (!bounded || fences[i] < hi) {
		hi, bounded = fences[i], true
	}
	return lo, hi, bounded, !bounded || lo < hi
}

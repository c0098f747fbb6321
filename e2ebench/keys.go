package main

import (
	"cmp"
	"math"
	"math/bits"
	"sync/atomic"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/repl"
	"learnedindex/internal/router"
	"learnedindex/internal/scan"
	"learnedindex/internal/serve"
	"learnedindex/internal/server"
)

// Key pools. Every key the benchmark sends is a base key plus a one-byte
// tag, so the three pools are disjoint by construction:
//
//	tag 0      the stored base key itself
//	tag 1      a miss probe, never inserted
//	tags 2..7  fresh write keys, one tag per (boundary, client) stream
//
// A tagged key sorts after its base key and before the next base key, so
// fresh keys follow the base keys' distribution across the whole domain,
// and the oracle answers any range [base[a], base[b]) from base ranks plus
// a per-rank mask of which tags were inserted.
const (
	tagMiss      = 1
	tagFirstSend = 2
	numTags      = 8
	freshTags    = 0xff &^ 0b11 // tags 2..7
)

// keySpace is one workload's generated inputs and the oracle state over
// them. issued and acked hold, per base rank, a bit per fresh tag: issued
// is set before an insert is sent, acked once it is acknowledged.
type keySpace[K cmp.Ordered] struct {
	base   []K
	fences []K // base keys at ranks n/3 and 2n/3: node i owns [fences[i-1], fences[i])
	splits []int
	tagged func(i, t int) K
	// isTagged reports whether k equals tagged(i, t) without building it.
	isTagged func(k K, i, t int) bool
	max      K // exclusive upper bound above every key the benchmark sends

	issued []atomic.Uint32
	acked  []atomic.Uint32
}

func newKeySpace[K cmp.Ordered](base []K, tagged func(i, t int) K, isTagged func(k K, i, t int) bool, max K) *keySpace[K] {
	n := len(base)
	ks := &keySpace[K]{
		base:     base,
		splits:   []int{0, n / 3, 2 * n / 3, n},
		tagged:   tagged,
		isTagged: isTagged,
		max:      max,
		issued:   make([]atomic.Uint32, n),
		acked:    make([]atomic.Uint32, n),
	}
	ks.fences = []K{base[n/3], base[2*n/3]}
	return ks
}

// uint64Space builds the lognormal key pools: LognormalPaper keys shifted
// left three bits so the low bits carry the tag.
func uint64Space(n int, seed int64) *keySpace[uint64] {
	raw := data.LognormalPaper(n, seed)
	base := make([]uint64, len(raw))
	for i, k := range raw {
		base[i] = k << 3
	}
	return newKeySpace(base,
		func(i, t int) uint64 { return base[i] | uint64(t) },
		func(k uint64, i, t int) bool { return k == base[i]|uint64(t) },
		math.MaxUint64)
}

// stringSpace builds the document-id pools: a tag is one appended digit.
func stringSpace(n int, seed int64) *keySpace[string] {
	base := []string(data.DocIDs(n, seed))
	return newKeySpace(base,
		func(i, t int) string {
			if t == 0 {
				return base[i]
			}
			return base[i] + string(rune('0'+t))
		},
		func(k string, i, t int) bool {
			b := base[i]
			if t == 0 {
				return k == b
			}
			return len(k) == len(b)+1 && k[len(b)] == byte('0'+t) && k[:len(b)] == b
		},
		"\xff")
}

func orBits(a *atomic.Uint32, bits uint32) {
	for {
		old := a.Load()
		if old&bits == bits || a.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// nodeRange is node i's key range [lo, hi).
func (ks *keySpace[K]) nodeRange(i int) (lo, hi K) {
	if i > 0 {
		lo = ks.fences[i-1]
	}
	hi = ks.max
	if i < len(ks.fences) {
		hi = ks.fences[i]
	}
	return lo, hi
}

// markAcked records inserted keys as acknowledged.
func (ks *keySpace[K]) markAcked(ranks []int32, tag int) {
	for _, r := range ranks {
		orBits(&ks.acked[r], 1<<tag)
	}
}

// freshCount counts the fresh keys masks records for ranks [a, b).
func (ks *keySpace[K]) freshCount(masks []atomic.Uint32, a, b int) int {
	n := 0
	for r := a; r < b; r++ {
		n += bits.OnesCount32(masks[r].Load() & freshTags)
	}
	return n
}

// keyOps adapts the uint64 and string twins of every layer's API to one
// generic shape, so each workload runs the same code. Each field is
// the call one boundary makes for one operation.
type keyOps[K cmp.Ordered] struct {
	strKeys   bool
	userBytes func(K) int

	open         func(keys []K, opt serve.Options) (*serve.Store, error)
	openFollower func(opt serve.Options, fopt repl.FollowerOptions) (*serve.Store, error)

	rContains func(*router.Router, []K) ([]bool, error)
	rInsert   func(*router.Router, []K) error
	rScan     func(r *router.Router, lo, hi K, dst []K) ([]K, error)
	rCount    func(r *router.Router, lo, hi K) (int, error)

	cContains func(*server.Client, []K) ([]bool, error)
	cInsert   func(*server.Client, []K) error
	cScan     func(c *server.Client, lo, hi K, limit int) ([]K, bool, error)
	cCount    func(c *server.Client, lo, hi K) (int, error)
	succ      func(K) K

	sContains func(*serve.Store, []K) []bool
	sInsert   func(*serve.Store, []K) error
	sScan     func(st *serve.Store, lo, hi K) *scan.Iterator[K]
	sCount    func(st *serve.Store, lo, hi K) int

	train func(keys []K) coreIndex[K]
}

// coreIndex is the core boundary: a learned index trained on one node's
// base keys, probed with the same keys the store saw.
type coreIndex[K cmp.Ordered] interface {
	contains(probes []K, out []bool)
	rangeCount(lo, hi K) int
	sizeBytes() int
	windowMean() float64
}

type rmiIndex struct{ r *core.RMI }

func (x rmiIndex) contains(probes []uint64, out []bool) { x.r.Plan().ContainsBatch(probes, out) }
func (x rmiIndex) rangeCount(lo, hi uint64) int {
	a, b := x.r.Plan().RangeScan(lo, hi)
	return b - a
}
func (x rmiIndex) sizeBytes() int { return x.r.SizeBytes() }
func (x rmiIndex) windowMean() float64 {
	h := x.r.Plan().ObsSearchLen()
	return h.Mean()
}

type stringIndex struct{ si *core.StringIndex }

func (x stringIndex) contains(probes []string, out []bool) {
	for i, k := range probes {
		out[i] = x.si.Contains(k)
	}
}
func (x stringIndex) rangeCount(lo, hi string) int {
	a, b := x.si.RangeScan(lo, hi)
	return b - a
}
func (x stringIndex) sizeBytes() int { return x.si.RMI().SizeBytes() }
func (x stringIndex) windowMean() float64 {
	h := x.si.Plan().ObsSearchLen()
	return h.Mean()
}

var uint64Ops = &keyOps[uint64]{
	userBytes: func(uint64) int { return 8 },
	open: func(keys []uint64, opt serve.Options) (*serve.Store, error) {
		return serve.Open(keys, core.Config{}, opt)
	},
	openFollower: func(opt serve.Options, fopt repl.FollowerOptions) (*serve.Store, error) {
		return serve.OpenFollower(core.Config{}, opt, fopt)
	},
	rContains: (*router.Router).ContainsBatch,
	rInsert:   func(r *router.Router, keys []uint64) error { return r.InsertDurable(keys...) },
	rScan:     (*router.Router).ScanBatch,
	rCount:    (*router.Router).CountRange,
	cContains: (*server.Client).ContainsBatch,
	cInsert:   (*server.Client).Insert,
	cScan: func(c *server.Client, lo, hi uint64, limit int) ([]uint64, bool, error) {
		return c.Scan(lo, hi, true, limit)
	},
	cCount:    func(c *server.Client, lo, hi uint64) (int, error) { return c.CountRange(lo, hi, true) },
	succ:      func(k uint64) uint64 { return k + 1 },
	sContains: (*serve.Store).ContainsBatch,
	sInsert:   func(st *serve.Store, keys []uint64) error { return st.InsertDurable(keys...) },
	sScan:     (*serve.Store).Scan,
	sCount:    (*serve.Store).CountRange,
	train: func(keys []uint64) coreIndex[uint64] {
		return rmiIndex{core.New(keys, core.Config{})}
	},
}

var stringOps = &keyOps[string]{
	strKeys:   true,
	userBytes: func(k string) int { return len(k) },
	open: func(keys []string, opt serve.Options) (*serve.Store, error) {
		return serve.OpenString(keys, core.Config{}, opt)
	},
	openFollower: func(opt serve.Options, fopt repl.FollowerOptions) (*serve.Store, error) {
		return serve.OpenFollowerString(core.Config{}, opt, fopt)
	},
	rContains: (*router.Router).ContainsBatchString,
	rInsert:   func(r *router.Router, keys []string) error { return r.InsertDurableString(keys...) },
	rScan:     (*router.Router).ScanBatchString,
	rCount:    (*router.Router).CountRangeString,
	cContains: (*server.Client).ContainsBatchString,
	cInsert:   (*server.Client).InsertString,
	cScan: func(c *server.Client, lo, hi string, limit int) ([]string, bool, error) {
		return c.ScanString(lo, hi, true, limit)
	},
	cCount: func(c *server.Client, lo, hi string) (int, error) { return c.CountRangeString(lo, hi, true) },
	succ:   func(k string) string { return k + "\x00" },
	// The server answers string membership key by key; the store boundary
	// makes the same calls.
	sContains: func(st *serve.Store, probes []string) []bool {
		out := make([]bool, len(probes))
		for i, k := range probes {
			out[i] = st.ContainsString(k)
		}
		return out
	},
	sInsert: func(st *serve.Store, keys []string) error { return st.InsertDurableString(keys...) },
	sScan:   (*serve.Store).ScanString,
	sCount:  (*serve.Store).CountRangeString,
	train: func(keys []string) coreIndex[string] {
		return stringIndex{core.NewStringIndex(keys, core.Config{})}
	},
}

package serve

import (
	"fmt"
	"sync"

	"learnedindex/internal/core"
	"learnedindex/internal/scan"
	"learnedindex/internal/slicepool"
	"learnedindex/internal/storage"
)

// keyType is the store's key domain: uint64 (New/Open) or string
// (NewString/OpenString).
type keyType interface{ uint64 | string }

// index is a shard snapshot's trained read path: the RMI's compiled
// *core.Plan over uint64 keys, the *core.StringIndex over strings.
type index[K keyType] interface {
	Lookup(key K) int
	Contains(key K) bool
}

// snapshot is one shard's immutable published state. Nothing in it is ever
// mutated after publication; replacement is by pointer swap. idx is
// captured at swap-in, so every read on the snapshot executes the
// devirtualized flat plan instead of interpreting the model tree. plan is
// the compiled plan underneath idx (idx itself for uint64 keys, the prefix
// plan for strings): the uint64 batch path calls it directly, and the
// metrics plane reads model health from it.
type snapshot[K keyType] struct {
	keys []K
	idx  index[K]
	plan *core.Plan
}

// trainUint64 publishes keys behind a freshly trained RMI's compiled plan.
// workers is the training worker budget (0 lets the trainer pick): drains
// pass their share of the machine so concurrent shard retrains compose to
// ~GOMAXPROCS total workers instead of multiplying into it.
func trainUint64(keys []uint64, cfg core.Config, workers int) *snapshot[uint64] {
	var rmi *core.RMI
	if workers > 0 {
		rmi = core.NewWithTrainWorkers(keys, cfg, workers)
	} else {
		rmi = core.New(keys, cfg)
	}
	p := rmi.Plan()
	return &snapshot[uint64]{keys: keys, idx: p, plan: p}
}

// trainString publishes keys behind a freshly trained codec index, under
// trainUint64's worker budget.
func trainString(keys []string, cfg core.Config, workers int) *snapshot[string] {
	var idx *core.StringIndex
	if workers > 0 {
		idx = core.NewStringIndexWorkers(keys, cfg, workers)
	} else {
		idx = core.NewStringIndex(keys, cfg)
	}
	return &snapshot[string]{keys: keys, idx: idx, plan: idx.Plan()}
}

// domain is everything that differs between the two key modes: the
// trainer, the persistent engine's calls, and the per-type pools. Each
// operation is one generic body over a domain; every exported uint64 or
// string method is a one-line call passing its mode's domain.
type domain[K keyType] struct {
	name  string // "uint64" or "string", for mode-mismatch panics
	str   bool   // the Store.strKeys value of this mode
	train func(keys []K, cfg core.Config, workers int) *snapshot[K]

	// add is addBatch for a single Insert. It takes the key, not a slice:
	// a slice built here and passed through the func value would escape
	// to the heap on every call.
	add      func(e *storage.Engine, key K) error
	addBatch func(e *storage.Engine, keys []K) error
	commit   func(e *storage.Engine, keys []K) error
	lookup   func(e *storage.Engine, key K) int
	contains func(e *storage.Engine, key K) bool
	count    func(e *storage.Engine, lo, hi K, bounded bool) int
	scan     func(e *storage.Engine, st *scanState[K], it *scan.Iterator[K], lo, hi K, bounded bool)

	// bufs recycles drained insert buffers, scans the pooled scanState:
	// one pool per key type.
	bufs  slicepool.Pool[K]
	scans sync.Pool
}

var uint64Keys = &domain[uint64]{
	name:     "uint64",
	train:    trainUint64,
	add:      func(e *storage.Engine, k uint64) error { return e.Append(k) },
	addBatch: (*storage.Engine).AppendBatch,
	commit:   (*storage.Engine).CommitBatch,
	lookup:   (*storage.Engine).Lookup,
	contains: (*storage.Engine).Contains,
	count:    func(e *storage.Engine, lo, hi uint64, _ bool) int { return e.CountRange(lo, hi) },
	scan:     engineScanUint64,
	scans:    sync.Pool{New: func() any { return new(scanState[uint64]) }},
}

var stringKeys = &domain[string]{
	name:     "string",
	str:      true,
	train:    trainString,
	add:      func(e *storage.Engine, k string) error { return e.AppendString(k) },
	addBatch: (*storage.Engine).AppendStringBatch,
	commit:   (*storage.Engine).CommitStringBatch,
	lookup:   (*storage.Engine).LookupString,
	contains: (*storage.Engine).ContainsString,
	count:    (*storage.Engine).CountRangeStr,
	scan:     engineScanString,
	scans:    sync.Pool{New: func() any { return new(scanState[string]) }},
}

// keyed is the store's one key-mode check: it panics, naming the refused
// operation, unless d is the store's key mode, and returns the in-memory
// shard set — nil on a persistent store. Every key-typed path calls it
// before anything else, so even an empty-range call in the wrong mode
// panics.
func keyed[K keyType](s *Store, d *domain[K], op string) *shards[K] {
	if d.str != s.strKeys {
		mode := "uint64"
		if s.strKeys {
			mode = "string"
		}
		panic(fmt.Sprintf("serve: %s %s on a %s-keyed store", d.name, op, mode))
	}
	m, _ := s.mem.(*shards[K])
	return m
}

package storage

import (
	"fmt"

	"learnedindex/internal/binenc"
	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/slicepool"
	"learnedindex/internal/vfs"
)

// keyType is the engine's key domain: uint64 keys, or string keys of the
// order-preserving key codec (internal/keycodec).
type keyType interface{ uint64 | string }

// index is a segment's trained read path over its key domain: the
// compiled *core.Plan for uint64 keys, the *core.StringIndex (prefix plan
// plus suffix dictionary) for strings.
type index[K keyType] interface {
	Lookup(key K) int
	Contains(key K) bool
}

// domain is everything that differs between the two key modes: the WAL
// record grammar and file name, the record chunk bound, the segment format
// and its read path, and where a mode's keys live in a ReplFrame and a
// Snapshot. Each engine operation is one generic body over a domain; every
// exported uint64 or string method is a one-line call into that body.
type domain[K keyType] struct {
	walName func(seq uint64) string
	// encode appends keys to a WAL record payload; decode reads one key
	// back, reporting false on a malformed encoding.
	encode func(payload []byte, keys []K) []byte
	decode func(r *binenc.Reader) (K, bool)
	// recSize is one key's weight against chunkLimit, the bound on one
	// record: a uint64 key weighs 1 (records hold at most maxAppendChunk
	// keys), a string key its encoded bytes (at most maxStringChunkBytes).
	// maxKeySize is the heaviest key a one-key record can frame under
	// maxWALRecord.
	recSize    func(k K) int
	chunkLimit int
	maxKeySize int

	// writeSegment trains and commits a segment over sorted unique keys:
	// LIXSEG01 for uint64, LIXSEG02 for strings.
	writeSegment func(fs vfs.FS, ioc *obs.Counter, dir string, seqLo, seqHi uint64, keys []K, cfg core.Config, fpr float64) (*segment, error)
	// keys, index and mayContain are a segment's exact sorted keys, its
	// trained index over them, and its Bloom probe.
	keys       func(s *segment) []K
	index      func(s *segment) index[K]
	mayContain func(s *segment, k K) bool

	// frameKeys and snapKeys locate the mode's key slice in a ReplFrame and
	// a Snapshot.
	frameKeys func(f *ReplFrame) *[]K
	snapKeys  func(sn *Snapshot) *[]K

	// pool recycles the pending-key buffers across flushes: every freeze
	// hands its snapshot to materialize (which clones what it needs) and
	// takes a recycled buffer for the next fill.
	pool slicepool.Pool[K]
}

var uint64Keys = &domain[uint64]{
	walName: walFileName,
	encode: func(payload []byte, keys []uint64) []byte {
		for _, k := range keys {
			payload = binenc.AppendUvarint(payload, k)
		}
		return payload
	},
	decode: func(r *binenc.Reader) (uint64, bool) {
		k := r.Uvarint()
		return k, r.Err() == nil
	},
	recSize:      func(uint64) int { return 1 },
	chunkLimit:   maxAppendChunk,
	maxKeySize:   1,
	writeSegment: writeSegment,
	keys:         func(s *segment) []uint64 { return s.keys },
	index:        func(s *segment) index[uint64] { return s.plan },
	mayContain:   func(s *segment, k uint64) bool { return s.filter.MayContainUint64(k) },
	frameKeys:    func(f *ReplFrame) *[]uint64 { return &f.Keys },
	snapKeys:     func(sn *Snapshot) *[]uint64 { return &sn.pending },
}

// String records carry each key length-prefixed:
//
//	payload = uvarint keyCount, then keyCount × (uvarint len, len bytes)
//
// and live only in wals-*.log files (see walStrFileName), so the two
// payload grammars never meet the wrong decoder.
var stringKeys = &domain[string]{
	walName: walStrFileName,
	encode: func(payload []byte, keys []string) []byte {
		for _, k := range keys {
			payload = binenc.AppendUvarint(payload, uint64(len(k)))
			payload = append(payload, k...)
		}
		return payload
	},
	decode: func(r *binenc.Reader) (string, bool) {
		l := r.Uvarint()
		if r.Err() != nil || l > uint64(r.Remaining()) {
			return "", false
		}
		return string(r.Take(int(l))), true
	},
	recSize:      func(k string) int { return len(k) + uvarintLen(uint64(len(k))) },
	chunkLimit:   maxStringChunkBytes,
	maxKeySize:   maxWALRecord - 1, // one byte for the record's key count
	writeSegment: writeStringSegment,
	keys:         func(s *segment) []string { return s.strs },
	index:        func(s *segment) index[string] { return s.sindex },
	mayContain:   func(s *segment, k string) bool { return s.filter.MayContain(k) },
	frameKeys:    func(f *ReplFrame) *[]string { return &f.Strs },
	snapKeys:     func(sn *Snapshot) *[]string { return &sn.pendingS },
}

// delta is the engine's write-plane state for its key mode, guarded by
// the engine's mu: the WAL-backed keys not yet served by a segment.
type delta[K keyType] struct {
	*domain[K]
	// pending holds appended and committed keys awaiting the next Flush.
	pending []K
	// flushing holds the pending keys frozen by an in-progress Flush, from
	// the freeze until the trained segment is published. Scan snapshots copy
	// pending+flushing (before loading the segment list), so a key migrating
	// through a flush is visible in at least one layer at every instant.
	flushing []K
	// cohort queues Commit batches awaiting the next group-commit frame.
	cohort [][]K
}

// keyPlane is the engine's view of its delta for the operations every key
// mode shares: the engine holds a *delta[uint64] or a *delta[string] behind
// it, fixed by Options.StringKeys at Open.
type keyPlane interface {
	recoverWAL(e *Engine) error
	drainCohortLocked(e *Engine)
	flush(e *Engine) error
	compactRun(e *Engine, run []*segment) (*segment, error)
	pendingLen() int
}

// keyed is the engine's one key-mode check: it returns the engine's delta
// when K is the engine's key type and panics, naming the refused
// operation, otherwise. Every key-typed exported method calls it first.
func keyed[K keyType](e *Engine, op string) *delta[K] {
	if p, ok := e.keys.(*delta[K]); ok {
		return p
	}
	var k K
	panic(fmt.Sprintf("storage: %T %s on an engine opened with StringKeys=%v", k, op, e.opts.StringKeys))
}

// size is keys' total weight against chunkLimit.
func (d *domain[K]) size(keys []K) int {
	n := 0
	for _, k := range keys {
		n += d.recSize(k)
	}
	return n
}

// chunkEnd returns the end index of the longest run keys[lo:hi] whose
// weight fits chunkLimit — always at least one key, so a single key
// heavier than the limit still frames (the record limit catches true
// monsters).
func (d *domain[K]) chunkEnd(keys []K, lo int) int {
	hi, size := lo, 0
	for hi < len(keys) {
		sz := d.recSize(keys[hi])
		if hi > lo && size+sz > d.chunkLimit {
			break
		}
		size += sz
		hi++
	}
	return hi
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

package serve

// Streaming range scans and learned counts over the serving layer: the
// snapshot-consistent composition of every layer a key can live in.
//
// An in-memory Store's scan merges (a) one cursor over the combined
// per-shard insert buffers — the delta layer, copied and sorted at open —
// and (b) one cursor per shard base array, entered at the position the
// shard's compiled plan predicts for the range start (model-biased seek,
// not binary search). A persistent Store's scan merges the engine's
// unflushed WAL delta with one lazy block-decoding cursor per on-disk
// segment, pruned by min/max fences and pinned against compaction for the
// scan's lifetime (storage.Snapshot).
//
// # Consistency
//
// A scan (and CountRange) observes every Insert that returned before the
// call — including still-buffered ones the point-read path won't serve
// until the next drain — and nothing that starts after it: the capture
// copies each shard's buffer AND its in-flight draining batch before
// loading the shard snapshot (the engine equivalently copies
// pending+flushing before the segment list), so a key mid-migration
// between layers is seen in at least one, and the merge's newest-wins
// dedup collapses a key seen in two. After the capture the scan is
// isolated: concurrent inserts, drains, retrains, flushes, and compactions
// never add to, remove from, or reorder an open scan's stream.
//
// # Allocation discipline
//
// All scan state — the iterator, its tournament arrays, cursor structs,
// delta copies, and (persistent) the storage snapshot — recycles through
// pools; a steady-state Scan→drain→Close cycle allocates nothing here
// (asserted by TestScanAllocs).

import (
	"slices"
	"sync"
	"time"

	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
	"learnedindex/internal/storage"
)

// scanState is the pooled per-scan working set: the captured view (shard
// snapshots + delta copy, or the pinned storage snapshot) plus the backing
// array for the concrete slice cursors. It implements scan.Closer, so the
// iterator's Close returns everything here to the pool of its key type.
// A pooled state is always empty: CloseScan truncates every slice.
type scanState[K keyType] struct {
	pool  *sync.Pool
	snap  *storage.Snapshot
	snaps []*snapshot[K]
	delta []K
	kcs   []scan.KeysCursor[K]
}

func getScanState[K keyType](d *domain[K]) *scanState[K] {
	st := d.scans.Get().(*scanState[K])
	st.pool = &d.scans
	return st
}

// CloseScan unpins the storage snapshot (persistent scans), drops snapshot
// references, and recycles the state. Runs via Iterator.Close after every
// cursor has been released.
func (st *scanState[K]) CloseScan() {
	if st.snap != nil {
		st.snap.Release()
		st.snap = nil
	}
	clear(st.snaps)
	st.snaps = st.snaps[:0]
	// Zero the delta: the pooled backing array must not pin key bytes from
	// a finished scan.
	clear(st.delta)
	st.delta = st.delta[:0]
	st.kcs = st.kcs[:0] // cursor Release already dropped the key refs
	st.pool.Put(st)
}

// capture copies the delta layer (every shard's buffer plus any in-flight
// draining batch, restricted to [lo, hi) — keys >= lo when unbounded — so
// the sort cost scales with delta∩range rather than the whole buffer) and
// THEN loads each shard's published snapshot. The order is the loss-free
// invariant: a drain moves keys buffer → draining → snapshot, clearing
// draining only after publication, so copying buffers first can duplicate
// a migrating key (dedup absorbs it) but never miss one.
func (st *scanState[K]) capture(m *shards[K], lo, hi K, bounded bool) {
	for _, sh := range m.sh {
		sh.mu.Lock()
		if bounded {
			st.delta = scan.AppendInRange(st.delta, sh.buf, lo, hi)
			st.delta = scan.AppendInRange(st.delta, sh.draining, lo, hi)
		} else {
			st.delta = scan.AppendFrom(st.delta, sh.buf, lo)
			st.delta = scan.AppendFrom(st.delta, sh.draining, lo)
		}
		sh.mu.Unlock()
	}
	slices.Sort(st.delta)
	st.delta = slices.Compact(st.delta)
	for _, sh := range m.sh {
		st.snaps = append(st.snaps, sh.snap.Load())
	}
}

// addKeys appends a cursor over a non-empty sorted key slice, entered
// through pos (nil: binary search).
func (st *scanState[K]) addKeys(ks []K, pos scan.Positioner[K]) {
	if len(ks) == 0 {
		return
	}
	st.kcs = append(st.kcs, scan.KeysCursor[K]{})
	st.kcs[len(st.kcs)-1].Reset(ks, pos)
}

// addCursors hands every slice cursor to it, in order. Call it only once
// kcs is complete: appending may move the array the pointers index.
func (st *scanState[K]) addCursors(it *scan.Iterator[K]) {
	for i := range st.kcs {
		it.Add(&st.kcs[i])
	}
}

// overlaps reports whether the snapshot may hold a key in [lo, hi) — keys
// >= lo when unbounded: shards are range-disjoint, so this fence check
// prunes all but the covering ones.
func (sn *snapshot[K]) overlaps(lo, hi K, bounded bool) bool {
	ks := sn.keys
	return len(ks) > 0 && (!bounded || ks[0] < hi) && ks[len(ks)-1] >= lo
}

// engineScanUint64 pins the engine's view of [lo, hi) in st and adds its
// layers to it: the unflushed delta first (the newest layer wins merge
// ties), then one lazy block-decoding cursor per overlapping segment.
func engineScanUint64(e *storage.Engine, st *scanState[uint64], it *scan.Iterator[uint64], lo, hi uint64, _ bool) {
	sn := e.AcquireSnapshotRange(lo, hi)
	st.snap = sn
	st.addKeys(sn.Pending(), nil)
	st.addCursors(it)
	for i := 0; i < sn.NumSegments(); i++ {
		if c := sn.SegmentCursor(i, lo, hi); c != nil {
			it.Add(c)
		}
	}
}

// engineScanString is engineScanUint64 in string mode, where each
// overlapping segment is a decoded key slice entered through its codec
// index.
func engineScanString(e *storage.Engine, st *scanState[string], it *scan.Iterator[string], lo, hi string, bounded bool) {
	sn := e.AcquireSnapshotRangeStr(lo, hi, bounded)
	st.snap = sn
	st.addKeys(sn.PendingStrings(), nil)
	for i := 0; i < sn.NumSegments(); i++ {
		st.addKeys(sn.SegmentStrings(i, lo, hi, bounded))
	}
	st.addCursors(it)
}

// Scan opens a streaming merge over every key in [lo, hi): ascending,
// deduplicated, snapshot-consistent per the package comment above. The
// iterator starts before the first key — drive it with Next (or NextBatch)
// and always Close it; Seek repositions within the range. hi is exclusive,
// so ^uint64(0) scans to the end of the domain save the maximal key.
func (s *Store) Scan(lo, hi uint64) *scan.Iterator[uint64] {
	return openScan(s, uint64Keys, lo, hi, true)
}

// ScanString opens a streaming merge over every string key in [lo, hi):
// ascending codec (byte) order, deduplicated, snapshot-consistent like
// Scan. hi is exclusive; use ScanStringFrom to scan without an upper
// bound. Always Close the iterator.
func (s *Store) ScanString(lo, hi string) *scan.Iterator[string] {
	return openScan(s, stringKeys, lo, hi, true)
}

// ScanStringFrom opens a scan over every string key >= lo, to the end of
// the store — the unbounded-above form a maximal-key sentinel cannot
// express in the string domain.
func (s *Store) ScanStringFrom(lo string) *scan.Iterator[string] {
	return openScan(s, stringKeys, lo, "", false)
}

// openScan is the body of every scan entry point; bounded selects [lo, hi)
// vs keys >= lo.
func openScan[K keyType](s *Store, d *domain[K], lo, hi K, bounded bool) *scan.Iterator[K] {
	m := keyed(s, d, "scan")
	// Scan opens are cold next to the per-key stream, so the open (capture
	// + seed seeks) is timed unconditionally when metrics are built in; the
	// per-key path stays untouched — the iterator reports its emitted-key
	// count once, at Close, into lix_serve_scan_keys.
	s.m.scans.Inc()
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	it := scan.Get[K]()
	it.SetObs(s.m.scanKeys)
	st := getScanState(d)
	if m == nil {
		d.scan(s.eng, st, it, lo, hi, bounded)
	} else {
		// Delta first (the newest layer wins merge ties), then every shard
		// whose snapshot overlaps the range.
		st.capture(m, lo, hi, bounded)
		st.addKeys(st.delta, nil)
		for _, sn := range st.snaps {
			if sn.overlaps(lo, hi, bounded) {
				st.addKeys(sn.keys, sn.idx)
			}
		}
		st.addCursors(it)
	}
	if bounded {
		it.Start(lo, hi, st)
	} else {
		it.StartFrom(lo, st)
	}
	if obs.Enabled {
		s.m.scanOpen.ObserveDuration(time.Since(start))
	}
	return it
}

// ScanBatch appends every key in [lo, hi) — same view as Scan — to dst and
// returns it, growing dst as needed.
func (s *Store) ScanBatch(lo, hi uint64, dst []uint64) []uint64 {
	return drainScan(s.Scan(lo, hi), dst)
}

// ScanBatchString appends every string key in [lo, hi) — same view as
// ScanString — to dst and returns it.
func (s *Store) ScanBatchString(lo, hi string, dst []string) []string {
	return drainScan(s.ScanString(lo, hi), dst)
}

// drainScan appends everything it streams to dst and closes it. The drain
// runs through the iterator's batched fill, so the per-key cost is the
// amortized tournament pop.
func drainScan[K keyType](it *scan.Iterator[K], dst []K) []K {
	defer it.Close()
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, max(256, cap(dst)))
		}
		free := dst[len(dst):cap(dst)]
		n := it.NextBatch(free)
		dst = dst[:len(dst)+n]
		if n < len(free) {
			return dst
		}
	}
}

// CountRange returns the exact number of distinct keys in [lo, hi) over
// the same view a Scan at this instant would stream — without iterating.
// Each shard (or on-disk segment) answers by position arithmetic: two
// compiled-plan lower-bound lookups, end minus start. The delta layer then
// contributes an exact correction: every buffered key inside the range
// counts only if its shard's snapshot (or the segment set) doesn't already
// hold it. The capture copies only in-range buffered keys, so the cost is
// O(total buffered + shards + (delta∩range)·log) with the sort and the
// membership probes scaling with the in-range delta alone — independent of
// the range width: counting a billion-key range is two model inferences
// per layer plus the delta correction.
func (s *Store) CountRange(lo, hi uint64) int { return countRange(s, uint64Keys, lo, hi, true) }

// CountRangeString returns the exact number of distinct string keys in
// [lo, hi) over the same view a ScanString at this instant would stream —
// by codec-index position arithmetic plus the delta correction, without
// iterating.
func (s *Store) CountRangeString(lo, hi string) int { return countRange(s, stringKeys, lo, hi, true) }

// CountFromString is CountRangeString without an upper bound: the number
// of distinct committed string keys >= lo.
func (s *Store) CountFromString(lo string) int { return countRange(s, stringKeys, lo, "", false) }

func countRange[K keyType](s *Store, d *domain[K], lo, hi K, bounded bool) int {
	m := keyed(s, d, "scan")
	if bounded && hi <= lo {
		return 0
	}
	if m == nil {
		return d.count(s.eng, lo, hi, bounded)
	}
	st := getScanState(d)
	st.capture(m, lo, hi, bounded)
	total := 0
	for _, sn := range st.snaps {
		if !sn.overlaps(lo, hi, bounded) {
			continue
		}
		end := len(sn.keys)
		if bounded {
			end = sn.idx.Lookup(hi)
		}
		total += end - sn.idx.Lookup(lo)
	}
	for _, k := range st.delta { // already restricted to the range
		if !st.snaps[m.shardFor(k)].idx.Contains(k) {
			total++
		}
	}
	st.CloseScan()
	return total
}

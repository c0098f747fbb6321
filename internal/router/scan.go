package router

import (
	"cmp"
	"math"

	"learnedindex/internal/scan"
	"learnedindex/internal/server"
)

// remoteCursor adapts one node's paged Scan RPC to scan.Cursor, so the
// same loser tree that merges shard snapshots inside a store merges node
// streams across the wire. Each page fetch goes through the endpoint's
// retrying do(), and the first unrecoverable error lands in errp — the
// cursor then reports exhausted, and the scan surfaces the error via Err.
type remoteCursor[K cmp.Ordered] struct {
	fetch func(from K, limit int) ([]K, bool, error)
	succ  func(K) (K, bool)
	limit int
	errp  *error

	page []K
	i    int
	more bool
}

func (c *remoteCursor[K]) load(from K) {
	c.i = 0
	if *c.errp != nil {
		c.page, c.more = nil, false
		return
	}
	page, more, err := c.fetch(from, c.limit)
	if err != nil {
		if *c.errp == nil {
			*c.errp = err
		}
		c.page, c.more = nil, false
		return
	}
	c.page, c.more = page, more
}

func (c *remoteCursor[K]) Seek(key K) bool {
	c.load(key)
	return c.i < len(c.page)
}

func (c *remoteCursor[K]) Next() bool {
	c.i++
	if c.i < len(c.page) {
		return true
	}
	if !c.more || len(c.page) == 0 {
		return false
	}
	from, ok := c.succ(c.page[len(c.page)-1])
	if !ok {
		return false
	}
	c.load(from)
	return c.i < len(c.page)
}

func (c *remoteCursor[K]) Key() K { return c.page[c.i] }

func (c *remoteCursor[K]) Release() { c.page = nil }

// RangeScan streams a cross-node merged scan in ascending key order. The
// zero of Err must be checked after iteration: a node that stayed
// unreachable past the retry budget ends the stream early with the cause
// here rather than silently truncating.
type RangeScan[K cmp.Ordered] struct {
	it  *scan.Iterator[K]
	err error
}

// Next advances to the next key, reporting whether one exists. After a
// transport failure it returns false immediately — check Err.
func (s *RangeScan[K]) Next() bool {
	if s.err != nil {
		return false
	}
	return s.it.Next()
}

// Key returns the current key; valid only after a true Next.
func (s *RangeScan[K]) Key() K { return s.it.Key() }

// Err returns the first per-node failure, if any.
func (s *RangeScan[K]) Err() error { return s.err }

// Close releases the merge iterator and its cursors.
func (s *RangeScan[K]) Close() { s.it.Close() }

// Scan streams every key in [lo, hi) across all nodes in ascending order,
// merging per-node pages through the loser tree. Nodes whose fence range
// cannot intersect [lo, hi) are pruned. Check Err after the stream ends.
func (r *Router) Scan(lo, hi uint64) *RangeScan[uint64] {
	return openScan(r, lo, hi, true, succUint64, (*server.Client).Scan)
}

// ScanString streams every key in [lo, hi) of a string-keyed router.
func (r *Router) ScanString(lo, hi string) *RangeScan[string] {
	return openScan(r, lo, hi, true, succString, (*server.Client).ScanString)
}

// ScanStringFrom streams every key >= lo of a string-keyed router.
func (r *Router) ScanStringFrom(lo string) *RangeScan[string] {
	return openScan(r, lo, "", false, succString, (*server.Client).ScanString)
}

// succUint64 is the smallest key after k, if any.
func succUint64(k uint64) (uint64, bool) {
	if k == math.MaxUint64 {
		return 0, false
	}
	return k + 1, true
}

// succString is the smallest string after k: k with a NUL appended.
func succString(k string) (string, bool) { return k + "\x00", true }

// openScan is the body of every scan entry point; bounded selects [lo, hi)
// vs keys >= lo, succ is the key type's resume successor, and rpc fetches
// one node's page.
func openScan[K key](r *Router, lo, hi K, bounded bool, succ func(K) (K, bool),
	rpc func(c *server.Client, lo, hi K, bounded bool, limit int) ([]K, bool, error)) *RangeScan[K] {
	fences := fencesFor[K](r)
	rs := &RangeScan[K]{it: scan.Get[K]()}
	contacted := 0
	for i := range r.nodes {
		clo, chi, cbounded, ok := clipRange(lo, hi, bounded, fences, i)
		if !ok {
			continue
		}
		contacted++
		ep := r.readEndpoint(r.nodes[i])
		cur := &remoteCursor[K]{limit: r.opt.ScanPageKeys, errp: &rs.err, succ: succ}
		cur.fetch = func(from K, limit int) ([]K, bool, error) {
			if from < clo {
				from = clo
			}
			var page []K
			var more bool
			err := ep.do(func(c *server.Client) error {
				var e error
				page, more, e = rpc(c, from, chi, cbounded, limit)
				return e
			})
			return page, more, err
		}
		rs.it.Add(cur)
	}
	r.tallyFanout(contacted, len(r.nodes), true)
	if bounded {
		rs.it.Start(lo, hi, nil)
	} else {
		rs.it.StartFrom(lo, nil)
	}
	return rs
}

// ScanBatch appends every key in [lo, hi) to dst in ascending order and
// returns it, or the first node failure.
func (r *Router) ScanBatch(lo, hi uint64, dst []uint64) ([]uint64, error) {
	return drainScan(r.Scan(lo, hi), dst)
}

// ScanBatchString appends every key in [lo, hi) to dst in ascending order
// and returns it, or the first node failure.
func (r *Router) ScanBatchString(lo, hi string, dst []string) ([]string, error) {
	return drainScan(r.ScanString(lo, hi), dst)
}

func drainScan[K key](s *RangeScan[K], dst []K) ([]K, error) {
	defer s.Close()
	for s.Next() {
		dst = append(dst, s.Key())
	}
	return dst, s.Err()
}

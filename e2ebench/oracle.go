package main

import (
	"cmp"
	"fmt"
	"math/bits"
)

// The oracle judges every answer from the generated inputs alone. Base keys
// are always present and miss probes never are, so membership answers are
// exact. Fresh keys make range answers depend on timing: a key acknowledged
// before the request started must be returned, a key sent by any time
// before the answer arrived may be, and nothing else may.

func checkContains[K cmp.Ordered](req *request[K], got []bool) error {
	if len(got) != len(req.want) {
		return fmt.Errorf("contains: %d answers for %d probes", len(got), len(req.want))
	}
	for i, w := range req.want {
		if got[i] != w {
			return fmt.Errorf("contains: probe %v answered %v, want %v", req.keys[i], got[i], w)
		}
	}
	return nil
}

// snapshotMasks copies the acked masks of ranks [a, b); taken just before
// a range request is sent.
func (ks *keySpace[K]) snapshotMasks(a, b int, dst []uint32) []uint32 {
	dst = dst[:0]
	for r := a; r < b; r++ {
		dst = append(dst, ks.acked[r].Load())
	}
	return dst
}

// checkRange verifies that got is exactly the keys of ranks [a, b) in
// ascending order: every base key, every fresh key whose tag is set in
// required[r-a], and otherwise only fresh keys whose tag is in allowed(r).
func checkRange[K cmp.Ordered](ks *keySpace[K], a, b int, got []K, required []uint32, allowed func(r int) uint32) error {
	j := 0
	for r := a; r < b; r++ {
		req := required[r-a] | 1
		ok := allowed(r) | req
		for t := 0; t < numTags; t++ {
			bit := uint32(1) << t
			if j < len(got) && ok&bit != 0 && ks.isTagged(got[j], r, t) {
				j++
				continue
			}
			if req&bit != 0 {
				return fmt.Errorf("range [%v, %v): missing %v", ks.base[a], ks.base[b%len(ks.base)], ks.tagged(r, t))
			}
		}
	}
	if j < len(got) {
		return fmt.Errorf("range [%v, %v): unexpected key %v at position %d of %d", ks.base[a], ks.base[b%len(ks.base)], got[j], j, len(got))
	}
	return nil
}

func (ks *keySpace[K]) issuedMask(r int) uint32 { return ks.issued[r].Load() }

// checkCount verifies a count of ranks [a, b) lies between the keys that
// must be there and the keys that may be.
func checkCount[K cmp.Ordered](ks *keySpace[K], a, b int, got int, required []uint32) error {
	lo := b - a
	for _, m := range required {
		lo += bits.OnesCount32(m & freshTags)
	}
	hi := b - a + ks.freshCount(ks.issued, a, b)
	if got < lo || got > hi {
		return fmt.Errorf("count [%v, %v): got %d, want between %d and %d", ks.base[a], ks.base[b%len(ks.base)], got, lo, hi)
	}
	return nil
}

// ackedRequired returns the acked masks of ranks [a, b) as a requirement:
// on a quiet cluster every acknowledged key must be present.
func (ks *keySpace[K]) ackedRequired(a, b int) []uint32 {
	return ks.snapshotMasks(a, b, make([]uint32, 0, b-a))
}

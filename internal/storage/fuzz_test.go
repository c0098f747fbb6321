package storage

import (
	"bytes"
	"os"
	"testing"

	"learnedindex/internal/bloom"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/vfs"
)

// FuzzSegmentDecode asserts the segment decoder never panics on arbitrary
// bytes, and that anything it does accept is internally coherent enough to
// serve lookups without panicking either.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(segMagic[:])
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// A valid segment as seed so mutation explores the deep decode paths.
	keys := data.Uniform(2_000, 1_000_000, 1)
	rmi := core.New(keys, core.DefaultConfig(32))
	filter := bloom.New(len(keys), 0.01)
	for _, k := range keys {
		filter.AddUint64(k)
	}
	img, _, _, err := encodeSegment(keys, rmi, filter)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-5])

	f.Fuzz(func(t *testing.T, in []byte) {
		ks, r, bf, bi, err := decodeSegment(in) // must never panic
		if err != nil {
			return
		}
		// Accepted input: the decoded structures must serve without
		// panicking across the whole key range.
		if len(ks) == 0 || r == nil || bf == nil || bi == nil {
			t.Fatalf("nil-but-no-error decode")
		}
		for _, k := range []uint64{0, ks[0], ks[len(ks)-1], ks[len(ks)/2] + 1, ^uint64(0)} {
			_ = r.Lookup(k)
			_ = r.Contains(k)
			_ = bf.MayContainUint64(k)
		}
	})
}

// FuzzSegmentBlockIterator asserts two properties of the lazy block
// decoder on arbitrary bytes: buildBlockIndex never panics (it errors on
// anything malformed), and whenever the eager whole-segment decode accepts
// an input, the lazy block-by-block walk — including model-biased Seek
// entry at every position — reproduces exactly the same key sequence.
func FuzzSegmentBlockIterator(f *testing.F) {
	keys := data.Uniform(1_500, 1_000_000, 3)
	rmi := core.New(keys, core.DefaultConfig(32))
	filter := bloom.New(len(keys), 0.01)
	for _, k := range keys {
		filter.AddUint64(k)
	}
	img, _, _, err := encodeSegment(keys, rmi, filter)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img, uint16(0))
	f.Add(img[:len(img)-3], uint16(7))
	f.Add([]byte{}, uint16(1))
	f.Add(bytes.Repeat([]byte{0x80}, 40), uint16(9)) // unterminated varints

	f.Fuzz(func(t *testing.T, in []byte, seekSel uint16) {
		// Raw-bytes path: the builder must reject or accept without
		// panicking, for any claimed key count.
		n := 1
		if len(in) > 0 {
			n = int(in[0])%2000 + 1
		}
		if bi, err := buildBlockIndex(in, n); err == nil {
			// Anything accepted must decode every block coherently.
			buf := make([]uint64, 0, scanBlockKeys)
			total := 0
			for b := 0; b < bi.numBlocks(); b++ {
				buf = bi.decodeBlock(b, buf)
				total += len(buf)
			}
			if total != n {
				t.Fatalf("lazy decode produced %d keys, claimed %d", total, n)
			}
		}

		// Whole-segment path: lazy must agree with eager.
		ks, r, _, bi, err := decodeSegment(in)
		if err != nil {
			return
		}
		seg := &segment{keys: ks, rmi: r, plan: r.Plan(), blocks: bi}
		c := getSegmentCursor(seg)
		defer c.Release()
		if !c.Seek(0) {
			t.Fatalf("Seek(0) exhausted on a %d-key segment", len(ks))
		}
		for i, want := range ks {
			if got := c.Key(); got != want {
				t.Fatalf("lazy walk[%d] = %d, eager = %d", i, got, want)
			}
			if adv := c.Next(); adv != (i+1 < len(ks)) {
				t.Fatalf("Next at %d = %v", i, adv)
			}
		}
		// Model-biased entry at an arbitrary position agrees with eager.
		pos := int(seekSel) % len(ks)
		if !c.Seek(ks[pos]) || c.Key() != ks[pos] {
			t.Fatalf("Seek(%d) landed wrong", ks[pos])
		}
	})
}

// FuzzWALReplay asserts three recovery properties on arbitrary log bytes:
// replay never panics, replay is idempotent after truncation (re-reading
// the truncated prefix reproduces exactly the same keys — the recovery
// path's fixed point), and a valid committed prefix is never lost nor
// reordered no matter what corruption follows it ("recovery never invents
// keys" is the contrapositive: every replayed key came from a record whose
// frame fully checksummed).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x00}, 32), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint8(3))
	f.Add([]byte{7, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2))

	f.Fuzz(func(t *testing.T, tail []byte, nrec uint8) {
		// Build a known-good prefix of nrec records via the real writer.
		dir := t.TempDir()
		w, err := newWAL(vfs.OS, dir+"/"+walFileName(0))
		if err != nil {
			t.Fatal(err)
		}
		var committed []uint64
		for i := 0; i < int(nrec%8); i++ {
			rec := []uint64{uint64(i) * 17, uint64(i)*17 + 1}
			if err := uint64Keys.writeRecord(w, [][]uint64{rec}); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, rec...)
		}
		if err := w.sync(); err != nil {
			t.Fatal(err)
		}
		prefix, err := os.ReadFile(w.path)
		if err != nil {
			t.Fatal(err)
		}
		w.close()

		input := append(append([]byte{}, prefix...), tail...)
		keys, good := uint64Keys.replay(input) // must never panic
		if good < int64(len(prefix)) {
			t.Fatalf("replay truncated into the committed prefix: %d < %d", good, len(prefix))
		}
		if len(keys) < len(committed) {
			t.Fatalf("replay lost committed keys: %d < %d", len(keys), len(committed))
		}
		for i, k := range committed {
			if keys[i] != k {
				t.Fatalf("committed key %d replayed as %d", k, keys[i])
			}
		}
		// Idempotence: replaying the truncated image changes nothing.
		keys2, good2 := uint64Keys.replay(input[:good])
		if good2 != good || len(keys2) != len(keys) {
			t.Fatalf("replay not idempotent: (%d,%d) vs (%d,%d)", good2, len(keys2), good, len(keys))
		}
		for i := range keys {
			if keys[i] != keys2[i] {
				t.Fatalf("key %d diverged across re-replay", i)
			}
		}
	})
}

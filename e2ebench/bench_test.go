package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"learnedindex/internal/router"
)

// small returns a workload shrunk for tests.
func small(t *testing.T, name string, keys int) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.keys = keys
	return w
}

// inputDigest hashes every input a seed generates for a workload: the base
// keys, the miss pool, and the first requests of every client stream.
func inputDigest[K cmp.Ordered](ks *keySpace[K], w workload, seed int64) [32]byte {
	h := sha256.New()
	put := func(k K) { fmt.Fprintf(h, "%v;", k) }
	for i, k := range ks.base {
		put(k)
		put(ks.tagged(i, tagMiss))
	}
	perm := zipfPerm(len(ks.base), seed)
	for c := 0; c < 2; c++ {
		for purpose := 0; purpose < 3; purpose++ {
			s := newStream(ks, &w, perm, streamSeed(seed, c, purpose), tagFirstSend+2*purpose+c)
			for i := 0; i < 2000; i++ {
				req := s.next()
				binary.Write(h, binary.LittleEndian, []int64{int64(req.op), int64(req.a), int64(req.b)})
				for j, k := range req.keys {
					put(k)
					if req.want != nil {
						fmt.Fprint(h, req.want[j])
					}
				}
			}
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, name := range []string{"point-read", "durable-write", "string-scan"} {
		w := small(t, name, 30_000)
		digest := func(seed int64) [32]byte {
			if w.strKeys {
				return inputDigest(stringSpace(w.keys, seed), w, seed)
			}
			return inputDigest(uint64Space(w.keys, seed), w, seed)
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

func TestPoolsAreDisjointAndOrdered(t *testing.T) {
	ks := stringSpace(5_000, 3)
	for i := range ks.base {
		prev := ks.base[i]
		for tag := 1; tag < numTags; tag++ {
			k := ks.tagged(i, tag)
			if k <= prev || (i+1 < len(ks.base) && k >= ks.base[i+1]) {
				t.Fatalf("tagged(%d, %d) = %q does not sort between %q and the next base key", i, tag, k, prev)
			}
			if !ks.isTagged(k, i, tag) || ks.isTagged(k, i, 0) {
				t.Fatalf("isTagged disagrees with tagged for %q", k)
			}
			prev = k
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	ks := uint64Space(10_000, 5)
	w := small(t, "durable-write", 10_000)
	s := newStream(ks, &w, zipfPerm(len(ks.base), 5), 1, tagFirstSend)

	con := s.contains()
	got := append([]bool(nil), con.want...)
	if err := checkContains(&con, got); err != nil {
		t.Fatalf("correct membership answer rejected: %v", err)
	}
	got[3] = !got[3]
	if checkContains(&con, got) == nil {
		t.Error("a flipped membership answer passed")
	}

	// Acknowledge one insert in rank range [100, 200).
	orBits(&ks.issued[150], 1<<tagFirstSend)
	ks.markAcked([]int32{150}, tagFirstSend)
	a, b := 100, 200
	required := ks.ackedRequired(a, b)
	exact := func() []uint64 {
		var out []uint64
		for r := a; r < b; r++ {
			out = append(out, ks.base[r])
			if r == 150 {
				out = append(out, ks.tagged(r, tagFirstSend))
			}
		}
		return out
	}
	if err := checkRange(ks, a, b, exact(), required, ks.issuedMask); err != nil {
		t.Fatalf("correct scan rejected: %v", err)
	}
	cases := map[string]func([]uint64) []uint64{
		"missing base key":  func(s []uint64) []uint64 { return append(s[:10:10], s[11:]...) },
		"missing acked key": func(s []uint64) []uint64 { return append(s[:51:51], s[52:]...) },
		"miss probe present": func(s []uint64) []uint64 {
			return append(s[:1:1], append([]uint64{ks.tagged(a, tagMiss)}, s[1:]...)...)
		},
		"unsent fresh key": func(s []uint64) []uint64 {
			return append(s[:1:1], append([]uint64{ks.tagged(a, tagFirstSend+1)}, s[1:]...)...)
		},
		"out of order":     func(s []uint64) []uint64 { s[4], s[5] = s[5], s[4]; return s },
		"duplicate":        func(s []uint64) []uint64 { return append(s[:5:5], s[4:]...) },
		"beyond the range": func(s []uint64) []uint64 { return append(s, ks.base[b]) },
	}
	for name, mutate := range cases {
		if checkRange(ks, a, b, mutate(exact()), required, ks.issuedMask) == nil {
			t.Errorf("scan with %s passed", name)
		}
	}
	// A key issued but not yet acknowledged may or may not appear.
	orBits(&ks.issued[160], 1<<(tagFirstSend+1))
	withPending := exact()
	withPending = append(withPending[:62:62], append([]uint64{ks.tagged(160, tagFirstSend+1)}, withPending[62:]...)...)
	if err := checkRange(ks, a, b, withPending, required, ks.issuedMask); err != nil {
		t.Errorf("scan with an in-flight insert rejected: %v", err)
	}

	for n, ok := range map[int]bool{b - a: false, b - a + 1: true, b - a + 2: true, b - a + 3: false} {
		if err := checkCount(ks, a, b, n, required); (err == nil) != ok {
			t.Errorf("count %d: err = %v, want ok = %v", n, err, ok)
		}
	}
}

// TestStubbedWrongAnswerFailsRun runs a small cluster whose router answers
// one membership probe wrongly: the run must fail with the oracle's error.
func TestStubbedWrongAnswerFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a cluster")
	}
	ops := *uint64Ops
	ops.rContains = func(r *router.Router, probes []uint64) ([]bool, error) {
		got, err := uint64Ops.rContains(r, probes)
		if err == nil && len(got) > 0 {
			got[0] = !got[0]
		}
		return got, err
	}
	w := small(t, "point-read", 30_000)
	cfg := config{workload: w.name, seed: 1, seconds: 1, out: t.TempDir(), setups: 1}
	_, err := run(cfg, w, &ops, uint64Space(w.keys, cfg.seed))
	if err == nil || !strings.Contains(err.Error(), "contains") {
		t.Fatalf("run with a wrong membership answer returned %v, want an oracle error", err)
	}
}

// TestQuietLedgerIsNonNegative runs a short traced workload: every self
// time and span the ledger reports must be non-negative.
func TestQuietLedgerIsNonNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a cluster")
	}
	for _, name := range []string{"point-read", "string-scan"} {
		w := small(t, name, 30_000)
		cfg := config{workload: name, seed: 2, seconds: 2, trace: true, out: t.TempDir(), setups: 1}
		rep, err := runWith(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range []string{"router.self_us", "server.wire_us", "serve.contains_batch_us", "serve.count_range_us", "scan.open_us", "scan.next_ns_per_key", "core.plan_ns_per_key"} {
			v, ok := rep.metrics[m]
			if !ok || rep.samples[m] == 0 {
				t.Errorf("%s: %s has no samples", name, m)
				continue
			}
			if v.Value < 0 {
				t.Errorf("%s: %s = %v, want >= 0", name, m, v.Value)
			}
		}
	}
}

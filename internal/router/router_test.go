package router

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
	"learnedindex/internal/server"
)

// cluster is a set of in-memory node stores behind wire servers plus the
// single-store oracle holding the union of their keys.
type cluster struct {
	tr      repl.Transport
	stores  []*serve.Store
	servers []*server.Server
	oracle  *serve.Store
}

func (cl *cluster) close() {
	for _, s := range cl.servers {
		if s != nil {
			s.Close()
		}
	}
	for _, st := range cl.stores {
		if st != nil {
			st.Close()
		}
	}
	if cl.oracle != nil {
		cl.oracle.Close()
	}
}

// startCluster partitions keys at fences into len(fences)+1 in-memory node
// stores served over tr, with addresses "n0", "n1", ...
func startCluster(t *testing.T, tr repl.Transport, keys []uint64, fences []uint64) *cluster {
	t.Helper()
	cl := &cluster{tr: tr}
	t.Cleanup(cl.close)
	sorted := append([]uint64(nil), keys...)
	slices.Sort(sorted)
	runs := splitRuns(sorted, fences)
	for i, run := range runs {
		st := serve.New(append([]uint64(nil), sorted[run[0]:run[1]]...), core.Config{}, serve.Options{Shards: 2})
		cl.stores = append(cl.stores, st)
		srv := server.NewServer(st, server.Options{})
		if err := srv.Serve(tr, fmt.Sprintf("n%d", i)); err != nil {
			t.Fatalf("serve node %d: %v", i, err)
		}
		cl.servers = append(cl.servers, srv)
	}
	cl.oracle = serve.New(sorted, core.Config{}, serve.Options{Shards: 4})
	return cl
}

func clusterNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Addr: fmt.Sprintf("n%d", i)}
	}
	return nodes
}

// TestRouterRepartitioning is the re-partitioning oracle: a probe batch
// straddling three node ranges — including probes below every key, above
// every key, on fence boundaries, and inside an empty-range node — must
// answer exactly like a single store holding the union.
func TestRouterRepartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var keys []uint64
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(90000))
		// Leave [30000, 40000) empty: node 1 owns a range with no keys.
		if k >= 30000 && k < 40000 {
			k += 10000
		}
		keys = append(keys, 1000+k)
	}
	fences := []uint64{31000, 41000} // node 1 = [31000, 41000): present but empty
	tr := repl.NewMemTransport()
	cl := startCluster(t, tr, keys, fences)

	rt, err := New(clusterNodes(3), Options{Transport: tr, Fences: fences, ScanPageKeys: 257})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer rt.Close()

	probes := []uint64{0, 999, 1000, 30999, 31000, 35000, 40999, 41000, 95000, 1 << 62}
	for i := 0; i < 400; i++ {
		probes = append(probes, uint64(rng.Intn(100000)))
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })

	pos, err := rt.LookupBatch(probes)
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	if want := cl.oracle.LookupBatch(probes); !slices.Equal(pos, want) {
		for i := range pos {
			if pos[i] != want[i] {
				t.Fatalf("probe %d (%d): pos %d, want %d", i, probes[i], pos[i], want[i])
			}
		}
	}

	bs, err := rt.ContainsBatch(probes)
	if err != nil {
		t.Fatalf("ContainsBatch: %v", err)
	}
	if !slices.Equal(bs, cl.oracle.ContainsBatch(probes)) {
		t.Fatal("ContainsBatch mismatch vs union oracle")
	}

	for _, r := range [][2]uint64{{0, 100000}, {31000, 41000}, {20000, 60000}, {90000, 90001}, {5, 5}} {
		got, err := rt.CountRange(r[0], r[1])
		if err != nil {
			t.Fatalf("CountRange%v: %v", r, err)
		}
		if want := cl.oracle.CountRange(r[0], r[1]); got != want {
			t.Fatalf("CountRange%v = %d, want %d", r, got, want)
		}
		scanned, err := rt.ScanBatch(r[0], r[1], nil)
		if err != nil {
			t.Fatalf("ScanBatch%v: %v", r, err)
		}
		if want := cl.oracle.ScanBatch(r[0], r[1], nil); !slices.Equal(scanned, want) {
			t.Fatalf("ScanBatch%v: %d keys, want %d", r, len(scanned), len(want))
		}
	}

	st := rt.Stats()
	if st.FanoutBatches == 0 {
		t.Fatal("no batch fanned out across >=2 nodes")
	}
	if st.PrunedNodes == 0 {
		t.Fatal("no node contact was ever pruned")
	}

	// Fence pruning: a count confined to node 0's range must not touch
	// node 2.
	before := rt.Stats().NodeRPCs[2]
	if _, err := rt.CountRange(1000, 2000); err != nil {
		t.Fatalf("confined CountRange: %v", err)
	}
	if after := rt.Stats().NodeRPCs[2]; after != before {
		t.Fatalf("confined CountRange contacted node 2 (%d -> %d RPCs)", before, after)
	}
}

// TestRouterInsertRouting: durable inserts land on the owner node and
// become globally visible through the router.
func TestRouterInsertRouting(t *testing.T) {
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	fences := []uint64{1000, 2000}
	tr := repl.NewMemTransport()
	var stores []*serve.Store
	for i := range dirs {
		st, err := serve.Open(nil, core.Config{}, serve.Options{Dir: dirs[i]})
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		defer st.Close()
		stores = append(stores, st)
		srv := server.NewServer(st, server.Options{})
		if err := srv.Serve(tr, fmt.Sprintf("n%d", i)); err != nil {
			t.Fatalf("serve node %d: %v", i, err)
		}
		defer srv.Close()
	}
	rt, err := New(clusterNodes(3), Options{Transport: tr, Fences: fences})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer rt.Close()

	keys := []uint64{5, 500, 999, 1000, 1500, 2000, 9999}
	if err := rt.InsertDurable(keys...); err != nil {
		t.Fatalf("InsertDurable: %v", err)
	}
	for _, st := range stores {
		st.Flush()
	}
	bs, err := rt.ContainsBatch(keys)
	if err != nil {
		t.Fatalf("ContainsBatch: %v", err)
	}
	for i, b := range bs {
		if !b {
			t.Fatalf("key %d not visible after routed insert", keys[i])
		}
	}
	// Owner placement: node 0 holds [..,1000), node 1 [1000,2000), node 2 the rest.
	if got := stores[0].Len(); got != 3 {
		t.Fatalf("node 0 has %d keys, want 3", got)
	}
	if got := stores[1].Len(); got != 2 {
		t.Fatalf("node 1 has %d keys, want 2", got)
	}
	if got := stores[2].Len(); got != 2 {
		t.Fatalf("node 2 has %d keys, want 2", got)
	}
}

// TestRouterStringMode mirrors the repartitioning oracle in string mode.
func TestRouterStringMode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var keys []string
	for i := 0; i < 1200; i++ {
		keys = append(keys, fmt.Sprintf("k%06d", rng.Intn(500000)))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	fencesStr := []string{"k150000", "k350000"}

	tr := repl.NewMemTransport()
	runs := splitRuns(keys, fencesStr)
	var stores []*serve.Store
	for i, run := range runs {
		st := serve.NewString(append([]string(nil), keys[run[0]:run[1]]...), core.Config{}, serve.Options{Shards: 2})
		defer st.Close()
		stores = append(stores, st)
		srv := server.NewServer(st, server.Options{})
		if err := srv.Serve(tr, fmt.Sprintf("n%d", i)); err != nil {
			t.Fatalf("serve node %d: %v", i, err)
		}
		defer srv.Close()
	}
	oracle := serve.NewString(keys, core.Config{}, serve.Options{Shards: 4})
	defer oracle.Close()

	rt, err := New(clusterNodes(3), Options{Transport: tr, StringKeys: true, FencesStr: fencesStr, ScanPageKeys: 101})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer rt.Close()

	probes := []string{"", "a", "k150000", "k349999", "k999999", "zzz"}
	for i := 0; i < 200; i++ {
		probes = append(probes, fmt.Sprintf("k%06d", rng.Intn(500000)))
	}
	pos, err := rt.LookupBatchString(probes)
	if err != nil {
		t.Fatalf("LookupBatchString: %v", err)
	}
	for i, p := range probes {
		if want := oracle.LookupString(p); pos[i] != want {
			t.Fatalf("probe %q: pos %d, want %d", p, pos[i], want)
		}
	}
	bs, err := rt.ContainsBatchString(probes)
	if err != nil {
		t.Fatalf("ContainsBatchString: %v", err)
	}
	for i, p := range probes {
		if bs[i] != oracle.ContainsString(p) {
			t.Fatalf("probe %q: contains %v", p, bs[i])
		}
	}
	got, err := rt.ScanBatchString("k1", "k4", nil)
	if err != nil {
		t.Fatalf("ScanBatchString: %v", err)
	}
	if want := oracle.ScanBatchString("k1", "k4", nil); !slices.Equal(got, want) {
		t.Fatalf("ScanBatchString: %d keys, want %d", len(got), len(want))
	}
	cnt, err := rt.CountRangeString("k1", "k4")
	if err != nil {
		t.Fatalf("CountRangeString: %v", err)
	}
	if want := oracle.CountRangeString("k1", "k4"); cnt != want {
		t.Fatalf("CountRangeString = %d, want %d", cnt, want)
	}
	cnt, err = rt.CountFromString("k3")
	if err != nil {
		t.Fatalf("CountFromString: %v", err)
	}
	if want := oracle.CountFromString("k3"); cnt != want {
		t.Fatalf("CountFromString = %d, want %d", cnt, want)
	}

	if err := rt.InsertDurableString("a-new", "k200000x", "zzzz"); err != nil {
		t.Fatalf("InsertDurableString: %v", err)
	}
	for _, st := range stores {
		st.Flush()
	}
	bs, err = rt.ContainsBatchString([]string{"a-new", "k200000x", "zzzz"})
	if err != nil {
		t.Fatalf("contains after insert: %v", err)
	}
	for i, b := range bs {
		if !b {
			t.Fatalf("routed string insert %d not visible", i)
		}
	}
}

// TestRouterFollowerReads: with ReadFollowers on, read RPCs for a node
// route to a lag-bounded connected follower (and are tallied), writes
// keep landing on the primary, and when the follower dies the router
// falls back to primary reads without ever returning a wrong answer.
func TestRouterFollowerReads(t *testing.T) {
	tr := repl.NewMemTransport()
	prim, err := serve.Open(nil, core.Config{}, serve.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	pr, err := prim.ServeReplication(tr, "repl0", repl.PrimaryOptions{
		Epoch: 1, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := serve.OpenFollower(core.Config{}, serve.Options{Dir: t.TempDir()},
		repl.FollowerOptions{
			Addr: pr.Addr(), Transport: tr,
			ReconnectBase: 2 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
			JitterSeed: 1, FlushEvery: 100,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	ps := server.NewServer(prim, server.Options{})
	if err := ps.Serve(tr, "p0"); err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	fs := server.NewServer(fol, server.Options{})
	if err := fs.Serve(tr, "f0"); err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	rt, err := New(
		[]Node{{Addr: "p0", Followers: []string{"f0"}}},
		Options{
			Transport:      tr,
			ReadFollowers:  true,
			MaxFollowerLag: 1 << 30,
			StatusRefresh:  time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	keys := make([]uint64, 0, 500)
	for i := uint64(0); i < 500; i++ {
		keys = append(keys, i*3+1)
	}
	if err := rt.InsertDurable(keys...); err != nil {
		t.Fatalf("InsertDurable: %v", err)
	}
	prim.Flush()
	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wait("follower convergence", func() bool { return fol.Len() == len(keys) })
	wait("applied horizon", func() bool {
		st, ok := fol.FollowerStatus()
		return ok && st.Connected && st.AppliedSeq > 0
	})

	probes := append(append([]uint64(nil), keys[:50]...), 0, 2, 1<<40)
	bs, err := rt.ContainsBatch(probes)
	if err != nil {
		t.Fatalf("ContainsBatch: %v", err)
	}
	for i, p := range probes {
		if bs[i] != prim.Contains(p) {
			t.Fatalf("probe %d: contains %v, primary disagrees", p, bs[i])
		}
	}
	pos, err := rt.LookupBatch(probes)
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	if want := prim.LookupBatch(probes); !slices.Equal(pos, want) {
		t.Fatal("follower-read LookupBatch diverged from primary")
	}
	if rt.Stats().FollowerReads == 0 {
		t.Fatal("no read was ever routed to the follower")
	}

	// Writes must keep landing on the primary — a follower store refuses
	// them, and *server.RemoteError is deterministic (not retried).
	if err := rt.InsertDurable(9_999_999); err != nil {
		t.Fatalf("InsertDurable with follower reads on: %v", err)
	}
	prim.Flush()
	if !prim.Contains(9_999_999) {
		t.Fatal("routed insert did not land on the primary")
	}

	// Kill the follower: once its status check fails, reads fall back to
	// the primary and stay correct.
	fs.Close()
	fol.Close()
	time.Sleep(3 * time.Millisecond) // let the cached status go stale
	bs, err = rt.ContainsBatch(probes)
	if err != nil {
		t.Fatalf("ContainsBatch after follower death: %v", err)
	}
	for i, p := range probes {
		if bs[i] != prim.Contains(p) {
			t.Fatalf("probe %d after follower death: contains %v, primary disagrees", p, bs[i])
		}
	}
}

// TestRouterModePanics locks in the router's cross-mode discipline: every
// uint64 method on a string-keyed router, and every string method on a
// uint64 router, panics before touching the network. The routers have one
// node, so neither mode has fences to index, and nothing listens on the
// transport: a call that skipped the check would fail with a dial error
// instead of panicking.
func TestRouterModePanics(t *testing.T) {
	tr := repl.NewMemTransport()
	ru, err := New(clusterNodes(1), Options{Transport: tr, RetryAttempts: 1})
	if err != nil {
		t.Fatalf("uint64 router: %v", err)
	}
	defer ru.Close()
	rs, err := New(clusterNodes(1), Options{Transport: tr, StringKeys: true, RetryAttempts: 1})
	if err != nil {
		t.Fatalf("string router: %v", err)
	}
	defer rs.Close()
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"LookupBatch", func() { rs.LookupBatch([]uint64{1}) }},
		{"ContainsBatch", func() { rs.ContainsBatch([]uint64{1}) }},
		{"InsertDurable", func() { rs.InsertDurable(1) }},
		{"CountRange", func() { rs.CountRange(1, 2) }},
		{"CountRange/empty", func() { rs.CountRange(2, 1) }},
		{"Scan", func() { rs.Scan(1, 2) }},
		{"ScanBatch", func() { rs.ScanBatch(1, 2, nil) }},
		{"LookupBatchString", func() { ru.LookupBatchString([]string{"a"}) }},
		{"ContainsBatchString", func() { ru.ContainsBatchString([]string{"a"}) }},
		{"InsertDurableString", func() { ru.InsertDurableString("a") }},
		{"CountRangeString", func() { ru.CountRangeString("a", "b") }},
		{"CountRangeString/empty", func() { ru.CountRangeString("b", "a") }},
		{"CountFromString", func() { ru.CountFromString("a") }},
		{"ScanString", func() { ru.ScanString("a", "b") }},
		{"ScanStringFrom", func() { ru.ScanStringFrom("a") }},
		{"ScanBatchString", func() { ru.ScanBatchString("a", "b", nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.call()
		})
	}
}

package router

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
	"learnedindex/internal/server"
)

// threeNodeCluster serves 30k keys over three in-memory nodes split at
// 10_000 and 20_000 and returns it with a router over it.
func threeNodeCluster(t *testing.T, opt Options) (*cluster, *Router) {
	t.Helper()
	keys := make([]uint64, 0, 30_000)
	for i := uint64(0); i < 30_000; i++ {
		keys = append(keys, i)
	}
	opt.Fences = []uint64{10_000, 20_000}
	opt.Transport = repl.NewMemTransport()
	cl := startCluster(t, opt.Transport, keys, opt.Fences)
	rt, err := New(clusterNodes(3), opt)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	return cl, rt
}

// TestContainsBatchAllocs pins the steady-state allocation count of a
// routed 64-key ContainsBatch across three nodes. The count covers the
// whole process — router, client and the in-process servers — so it moves
// with any layer's garbage, not just the router's.
func TestContainsBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, rt := threeNodeCluster(t, Options{})
	rng := rand.New(rand.NewSource(3))
	probes := make([]uint64, 64)
	for i := range probes {
		probes[i] = uint64(rng.Intn(40_000))
	}
	run := func() {
		if _, err := rt.ContainsBatch(probes); err != nil {
			t.Fatal(err)
		}
	}
	run() // dial and pool one connection per node
	if avg := testing.AllocsPerRun(200, run); avg > 30 {
		t.Fatalf("steady-state routed ContainsBatch allocates %.1f per batch, want <= 30", avg)
	}
}

// TestScatterRetriesDeadConn: a pooled connection that died between
// batches fails its scattered attempt; the router retries that node alone
// against a fresh dial and still answers correctly, within the node's
// RetryAttempts budget.
func TestScatterRetriesDeadConn(t *testing.T) {
	const attempts = 4
	cl, rt := threeNodeCluster(t, Options{RetryAttempts: attempts, RetryBackoff: time.Millisecond})
	probes := []uint64{5, 15_000, 25_000, 40_000, 9_999, 10_000}
	want := cl.oracle.ContainsBatch(probes)
	if _, err := rt.ContainsBatch(probes); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	// Restart node 1's server in place: its pooled connection is severed,
	// and the address answers again on a fresh dial.
	cl.servers[1].Close()
	srv := server.NewServer(cl.stores[1], server.Options{})
	if err := srv.Serve(cl.tr, "n1"); err != nil {
		t.Fatalf("restart n1: %v", err)
	}
	cl.servers[1] = srv

	before := rt.Stats()
	got, err := rt.ContainsBatch(probes)
	if err != nil {
		t.Fatalf("ContainsBatch after restart: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ContainsBatch = %v, want %v", got, want)
	}
	after := rt.Stats()
	if after.Retries-before.Retries < 1 {
		t.Fatal("the dead pooled connection was not retried")
	}
	if n := after.NodeRPCs[1] - before.NodeRPCs[1]; n > attempts {
		t.Fatalf("node 1 took %d attempts, budget is %d", n, attempts)
	}
	if n := after.NodeRPCs[0] - before.NodeRPCs[0]; n != 1 {
		t.Fatalf("healthy node 0 took %d attempts, want 1", n)
	}
}

// TestScatterRemoteErrorIsFinal: a durable insert routed at a node whose
// store is a read-only follower fails with the store's RemoteError and no
// retry, while the other nodes' shares of the batch land durably.
func TestScatterRemoteErrorIsFinal(t *testing.T) {
	tr := repl.NewMemTransport()
	var stores []*serve.Store
	for i := 0; i < 3; i++ {
		var st *serve.Store
		var err error
		if i == 1 {
			// A follower of a primary that never comes up: it stays
			// read-only and refuses every write.
			st, err = serve.OpenFollower(core.Config{}, serve.Options{Dir: t.TempDir()},
				repl.FollowerOptions{Addr: "nowhere", Transport: tr})
		} else {
			st, err = serve.Open(nil, core.Config{}, serve.Options{Dir: t.TempDir()})
		}
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		defer st.Close()
		stores = append(stores, st)
		srv := server.NewServer(st, server.Options{})
		if err := srv.Serve(tr, clusterNodes(3)[i].Addr); err != nil {
			t.Fatalf("serve node %d: %v", i, err)
		}
		defer srv.Close()
	}
	rt, err := New(clusterNodes(3), Options{Transport: tr, Fences: []uint64{1000, 2000}})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer rt.Close()

	err = rt.InsertDurable(5, 1500, 2500, 999, 9999)
	var re *server.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("InsertDurable at a follower: want *server.RemoteError, got %v", err)
	}
	if n := rt.Stats().Retries; n != 0 {
		t.Fatalf("a RemoteError was retried %d times", n)
	}
	for _, c := range []struct {
		node int
		keys []uint64
	}{{0, []uint64{5, 999}}, {2, []uint64{2500, 9999}}} {
		if got := stores[c.node].ScanBatch(0, 1<<20, nil); !slices.Equal(got, c.keys) {
			t.Fatalf("node %d holds %v, want %v", c.node, got, c.keys)
		}
	}
}

// TestScatterLargeBatch: a batch whose requests and answers overflow the
// in-memory transport's bounded pipes still completes. Three quarters of
// the 200k probes go to node 0, so its request (~150k two- and three-byte
// keys) and its answer (~150k two-byte positions) each exceed the 256 KiB
// pipe while the router is still writing the other nodes' requests. Every
// server reads its whole request before it writes, so writing all
// requests before reading any answer cannot deadlock.
func TestScatterLargeBatch(t *testing.T) {
	cl, rt := threeNodeCluster(t, Options{})
	rng := rand.New(rand.NewSource(9))
	probes := make([]uint64, 200_000)
	for i := range probes {
		if i%4 == 0 {
			probes[i] = 10_000 + uint64(rng.Int63n(1<<40))
		} else {
			probes[i] = uint64(rng.Intn(10_000))
		}
	}
	done := make(chan struct{})
	var pos []int
	var err error
	go func() {
		defer close(done)
		pos, err = rt.LookupBatch(probes)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("200k-probe LookupBatch did not finish in a minute")
	}
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	if !slices.Equal(pos, cl.oracle.LookupBatch(probes)) {
		t.Fatal("200k-probe LookupBatch diverged from the union oracle")
	}
}

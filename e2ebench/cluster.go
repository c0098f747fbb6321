package main

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"learnedindex/internal/repl"
	"learnedindex/internal/router"
	"learnedindex/internal/serve"
	"learnedindex/internal/server"
	"learnedindex/internal/vfs"
)

// clusterOptions are the seams the benchmark may swap: the client/server
// wire transport and the primaries' filesystem.
type clusterOptions struct {
	wire repl.Transport
	fs   *deviceFS // nil: the real OS filesystem
}

// cluster is three persistent primaries behind wire servers on TCP
// loopback, each shipping its WAL to one follower, and a router over the
// primaries. Everything is built from the packages' public constructors.
// startCluster brings up the primaries, servers and router; startFollowers
// adds the followers.
type cluster[K cmp.Ordered] struct {
	o         *keyOps[K]
	ks        *keySpace[K]
	dir       string
	opt       clusterOptions
	primaries []*serve.Store
	followers []*serve.Store
	servers   []*server.Server
	addrs     []string // wire servers
	replAddrs []string // primaries' replication listeners
	router    *router.Router
}

func startCluster[K cmp.Ordered](o *keyOps[K], ks *keySpace[K], dir string, opt clusterOptions) (c *cluster[K], err error) {
	if opt.wire == nil {
		opt.wire = repl.TCP
	}
	c = &cluster[K]{o: o, ks: ks, dir: dir, opt: opt}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	var fsys vfs.FS
	if opt.fs != nil {
		fsys = opt.fs
	}
	nodes := make([]router.Node, 3)
	for i := 0; i < 3; i++ {
		st, err := o.open(ks.base[ks.splits[i]:ks.splits[i+1]], serve.Options{Dir: filepath.Join(dir, fmt.Sprintf("p%d", i)), FS: fsys})
		if err != nil {
			return c, fmt.Errorf("open primary %d: %w", i, err)
		}
		c.primaries = append(c.primaries, st)
		p, err := st.ServeReplication(repl.TCP, "127.0.0.1:0", repl.PrimaryOptions{Epoch: 1})
		if err != nil {
			return c, fmt.Errorf("primary %d replication: %w", i, err)
		}
		c.replAddrs = append(c.replAddrs, p.Addr())
		srv := server.NewServer(st, server.Options{})
		c.servers = append(c.servers, srv)
		if err := srv.Serve(opt.wire, "127.0.0.1:0"); err != nil {
			return c, fmt.Errorf("serve node %d: %w", i, err)
		}
		c.addrs = append(c.addrs, srv.Addr())
		nodes[i] = router.Node{Addr: srv.Addr()}
	}
	ropt := router.Options{Transport: opt.wire, StringKeys: o.strKeys}
	if err := setFences(&ropt, ks.fences); err != nil {
		return c, err
	}
	if c.router, err = router.New(nodes, ropt); err != nil {
		return c, err
	}
	return c, nil
}

// startFollowers opens one follower per primary; each catches up from its
// primary's replication stream in the background.
func (c *cluster[K]) startFollowers() error {
	for i, addr := range c.replAddrs {
		f, err := c.o.openFollower(serve.Options{Dir: filepath.Join(c.dir, fmt.Sprintf("f%d", i))}, repl.FollowerOptions{Addr: addr})
		if err != nil {
			return fmt.Errorf("open follower %d: %w", i, err)
		}
		c.followers = append(c.followers, f)
	}
	return nil
}

func setFences[K cmp.Ordered](ropt *router.Options, fences []K) error {
	switch f := any(fences).(type) {
	case []uint64:
		ropt.Fences = f
	case []string:
		ropt.FencesStr = f
	default:
		return errors.New("unsupported key type")
	}
	return nil
}

// nodeCount counts node i's keys on one store over its whole range.
func (c *cluster[K]) nodeCount(st *serve.Store, i int) int {
	lo, hi := c.ks.nodeRange(i)
	return c.o.sCount(st, lo, hi)
}

// waitReplicated blocks until every follower holds as many keys as its
// primary (the primaries must be quiet), or the timeout passes.
func (c *cluster[K]) waitReplicated(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, f := range c.followers {
		want := c.nodeCount(c.primaries[i], i)
		for c.nodeCount(f, i) != want {
			if time.Now().After(deadline) {
				st, _ := f.FollowerStatus()
				return fmt.Errorf("follower %d not caught up after %v: %d of %d keys, status %+v", i, timeout, c.nodeCount(f, i), want, st)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// quiesce flushes every follower and waits until no store has buffered
// keys or compaction debt left, so the heap is measured in one state: a
// follower applies a snapshot as many small segments, and the compactions
// merging them run in the background.
func (c *cluster[K]) quiesce(timeout time.Duration) error {
	for _, f := range c.followers {
		f.Flush()
	}
	deadline := time.Now().Add(timeout)
	for _, st := range append(append([]*serve.Store(nil), c.primaries...), c.followers...) {
		for {
			m := st.Metrics()
			if m.Gauge("lix_storage_compaction_debt") == 0 && m.Gauge("lix_storage_pending_keys") == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("stores not quiet after %v", timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// scanNode reads node i's whole range from one store.
func (c *cluster[K]) scanNode(st *serve.Store, i int) []K {
	lo, hi := c.ks.nodeRange(i)
	it := c.o.sScan(st, lo, hi)
	defer it.Close()
	var out []K
	for it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// checkNode verifies one store holds exactly node i's base keys plus every
// acknowledged fresh key (and no unsent one).
func (c *cluster[K]) checkNode(st *serve.Store, i int, what string) error {
	a, b := c.ks.splits[i], c.ks.splits[i+1]
	if err := checkRange(c.ks, a, b, c.scanNode(st, i), c.ks.ackedRequired(a, b), c.ks.issuedMask); err != nil {
		return fmt.Errorf("%s node %d: %w", what, i, err)
	}
	return nil
}

// diskBytes is the primaries' segment plus WAL footprint.
func (c *cluster[K]) diskBytes() int64 {
	var n int64
	for _, p := range c.primaries {
		if s, ok := p.StorageStats(); ok {
			n += s.DiskBytes + s.WALBytes
		}
	}
	return n
}

// close stops everything the cluster started: the router's connections,
// the wire servers, then followers before their primaries.
func (c *cluster[K]) close() error {
	var errs []error
	if c.router != nil {
		errs = append(errs, c.router.Close())
	}
	for _, s := range c.servers {
		errs = append(errs, s.Close())
	}
	for _, f := range c.followers {
		errs = append(errs, f.Close())
	}
	for _, p := range c.primaries {
		errs = append(errs, p.Close())
	}
	c.router, c.servers, c.followers, c.primaries = nil, nil, nil, nil
	return errors.Join(errs...)
}

// reopenCheck closes the cluster cleanly, reopens every node's directory
// as a plain persistent store and checks each holds exactly its node's
// acknowledged keys.
func (c *cluster[K]) reopenCheck() error {
	if err := c.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	for i := 0; i < 3; i++ {
		for _, role := range []struct{ dir, name string }{{"p", "primary"}, {"f", "follower"}} {
			dir := filepath.Join(c.dir, fmt.Sprintf("%s%d", role.dir, i))
			st, err := c.o.open(nil, serve.Options{Dir: dir})
			if err != nil {
				return fmt.Errorf("reopen %s %d: %w", role.name, i, err)
			}
			err = c.checkNode(st, i, "reopened "+role.name)
			if cerr := st.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("close reopened %s %d: %w", role.name, i, cerr)
			}
			if err != nil {
				return err
			}
		}
	}
	return os.RemoveAll(c.dir)
}

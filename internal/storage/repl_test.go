package storage

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"learnedindex/internal/vfs"
)

// TestReplPromoteExcludesMidFsyncFrames: the group-commit leader drops the
// engine mutex for the fsync itself, so appends keep encoding WAL frames
// while the disk wait is in flight — into the bufio buffer the fsync does
// NOT cover. Those frames must ride the NEXT fsync: promoting them on the
// in-flight one would hand the replication sink (and so followers) keys a
// primary crash could still lose, breaking served ⊆ primary-durable.
func TestReplPromoteExcludesMidFsyncFrames(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { replPromoteExcludesMidFsyncFrames(t, uint64Mode) })
	t.Run("string", func(t *testing.T) { replPromoteExcludesMidFsyncFrames(t, stringMode) })
}

func replPromoteExcludesMidFsyncFrames[K keyType](t *testing.T, m keyMode[K]) {
	ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	ffs.Disarm()
	e := openT(t, t.TempDir(), Options{FS: ffs, CompactFanout: 3, StringKeys: m.strKeys})
	defer e.Close()

	var mu sync.Mutex
	var promoted []uint64 // frame seqs handed to the sink, in arrival order
	e.SetReplSink(func(frames []ReplFrame) {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range frames {
			promoted = append(promoted, f.Seq)
		}
	})
	promotedNow := func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(promoted)
	}

	// Park the next WAL fsync: the hook blocks the leader mid-disk-wait
	// with the engine mutex released, which is exactly the race window.
	var trap atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	ffs.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpSync && trap.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return nil
	})
	ffs.Arm()
	trap.Store(true)

	done := make(chan error, 1)
	go func() { done <- m.commit(e, m.key(1)) }() // leader: frame seq 1
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("commit fsync never reached the vfs hook")
	}
	// Fsync in flight, mutex free: this append encodes frame seq 2 into the
	// WAL's write buffer. Its bytes are not covered by the parked fsync.
	if err := m.append(e, []K{m.key(2)}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got := promotedNow(); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("after the commit's fsync, promoted frames = %v, want [1] only — frame 2's bytes are not on disk", got)
	}
	if ds := e.ReplDurableSeq(); ds != 1 {
		t.Fatalf("ReplDurableSeq = %d, want 1", ds)
	}

	// The next durability barrier covers frame 2 and promotes it.
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := promotedNow(); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("after Sync, promoted frames = %v, want [1 2]", got)
	}
	if ds := e.ReplDurableSeq(); ds != 2 {
		t.Fatalf("ReplDurableSeq = %d, want 2", ds)
	}
}

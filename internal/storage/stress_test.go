package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"learnedindex/internal/data"
)

// TestEngineStressWritePath is the -race stress for the concurrent write
// plane: committers (Commit), appenders (Append+Sync), flushers, and
// readers (Contains/Lookup/Len/Stats) all hammer one engine at once.
// Writers own disjoint key ranges so the oracle is exact: after a final
// flush, the engine serves every inserted key, Len equals the distinct
// insert count, and probes from an untouched range miss.
func TestEngineStressWritePath(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { stressWritePath(t, uint64Mode) })
	t.Run("string", func(t *testing.T) { stressWritePath(t, stringMode) })
}

// keyMode is one key mode's exported write and read calls, so a test body
// written once over K drives either mode through the public API. key maps
// a uint64 to the mode's key, preserving order.
type keyMode[K keyType] struct {
	strKeys  bool
	key      func(k uint64) K
	append   func(e *Engine, keys []K) error
	commit   func(e *Engine, keys ...K) error
	contains func(e *Engine, key K) bool
	lookup   func(e *Engine, key K) int
}

var uint64Mode = keyMode[uint64]{
	key:      func(k uint64) uint64 { return k },
	append:   (*Engine).AppendBatch,
	commit:   (*Engine).Commit,
	contains: (*Engine).Contains,
	lookup:   (*Engine).Lookup,
}

var stringMode = keyMode[string]{
	strKeys:  true,
	key:      func(k uint64) string { return fmt.Sprintf("%016x", k) },
	append:   (*Engine).AppendStringBatch,
	commit:   (*Engine).CommitString,
	contains: (*Engine).ContainsString,
	lookup:   (*Engine).LookupString,
}

func stressWritePath[K keyType](t *testing.T, m keyMode[K]) {
	dir := t.TempDir()
	e := openT(t, dir, Options{CompactFanout: 3, StringKeys: m.strKeys})
	defer e.Close()

	const (
		writers      = 4
		committers   = 4
		keysPerGor   = 400
		writerStride = 1 << 32 // disjoint key ranges per goroutine
	)
	var wg sync.WaitGroup
	var inserted atomic.Int64
	errCh := make(chan error, writers+committers+2)

	// Append+Sync writers: batch appends with explicit durability barriers.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			base := uint64(g) * writerStride
			for i := 0; i < keysPerGor; i += 8 {
				batch := make([]K, 0, 8)
				for j := 0; j < 8 && i+j < keysPerGor; j++ {
					batch = append(batch, m.key(base+uint64(i+j)))
				}
				if err := m.append(e, batch); err != nil {
					errCh <- err
					return
				}
				inserted.Add(int64(len(batch)))
				if rng.Intn(4) == 0 {
					if err := e.Sync(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	// Commit writers: the group-commit hot path, one durable call per batch.
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(writers+g) * writerStride
			for i := 0; i < keysPerGor; i += 4 {
				batch := make([]K, 0, 4)
				for j := 0; j < 4 && i+j < keysPerGor; j++ {
					batch = append(batch, m.key(base+uint64(i+j)))
				}
				if err := m.commit(e, batch...); err != nil {
					errCh <- err
					return
				}
				inserted.Add(int64(len(batch)))
			}
		}(g)
	}
	// A flusher racing the writers (paced: every flush trains a segment
	// and pays fsyncs, so an unthrottled loop would grind the test into
	// compaction churn), and readers racing everything. Both stop after
	// the writers finish, via rwg.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if err := e.Flush(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := m.key(uint64(rng.Intn(writers+committers))*writerStride + uint64(rng.Intn(keysPerGor)))
				m.contains(e, k)
				m.lookup(e, k)
				e.Len()
				e.Stats()
			}
		}(int64(g))
	}

	wg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	total := (writers + committers) * keysPerGor
	if got := int(inserted.Load()); got != total {
		t.Fatalf("writers inserted %d keys, want %d", got, total)
	}
	if e.Len() != total {
		t.Fatalf("Len=%d, want %d", e.Len(), total)
	}
	for g := 0; g < writers+committers; g++ {
		base := uint64(g) * writerStride
		for i := 0; i < keysPerGor; i += 37 {
			if !m.contains(e, m.key(base+uint64(i))) {
				t.Fatalf("lost key %d from writer %d", base+uint64(i), g)
			}
		}
	}
	for i := 0; i < 500; i++ {
		k := uint64(writers+committers+1)*writerStride + uint64(i)
		if m.contains(e, m.key(k)) {
			t.Fatalf("phantom key %d", k)
		}
	}
	// Group commit must have amortized fsyncs: strictly fewer than one
	// fsync per durable call would require under the old plane (an exact
	// bound is timing-dependent; the hard claim — acked keys survive — is
	// the crash oracle's job).
	st := e.Stats()
	if st.Commits == 0 || st.WALSyncs == 0 {
		t.Fatalf("stats did not record the commit plane: %+v", st)
	}
}

// TestEngineCommitDurabilityContract drives Commit single-threaded and
// checks the basics the oracle relies on: acked keys are pending until
// flush, served after it, and an empty commit acts as a pure barrier.
func TestEngineCommitDurabilityContract(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true})
	keys := data.Uniform(2_000, 1_000_000, 77)
	for i := 0; i < len(keys); i += 100 {
		if err := e.CommitBatch(keys[i:min(i+100, len(keys))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(); err != nil { // empty: pure durability barrier
		t.Fatal(err)
	}
	if e.PendingLen() != len(keys) {
		t.Fatalf("PendingLen=%d, want %d", e.PendingLen(), len(keys))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]bool{}
	for _, k := range keys {
		distinct[k] = true
	}
	if e.Len() != len(distinct) {
		t.Fatalf("Len=%d after flush, want %d distinct", e.Len(), len(distinct))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: everything committed+flushed survives.
	re := openT(t, dir, Options{NoCompactor: true})
	defer re.Close()
	for _, k := range keys[:200] {
		if !re.Contains(k) {
			t.Fatalf("committed key %d lost across reopen", k)
		}
	}
}

// TestWALChunkBoundaries drives an Append and a Commit one key past the
// WAL record bound in each key mode (maxAppendChunk keys for uint64,
// maxStringChunkBytes encoded bytes for strings). Each batch must split
// into two records, every key must recover from a crash copy, and the
// replication sink must receive every key exactly once.
func TestWALChunkBoundaries(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		chunkBoundaries(t, uint64Mode, uint64Keys, maxAppendChunk+1)
	})
	t.Run("string", func(t *testing.T) {
		// 16-byte keys padded to 1022 bytes plus a 2-byte length prefix:
		// exactly 1 KiB each, so maxStringChunkBytes/1024 keys fill a record.
		pad := strings.Repeat("~", 1022-16)
		m := stringMode
		m.key = func(k uint64) string { return fmt.Sprintf("%016x", k) + pad }
		chunkBoundaries(t, m, stringKeys, maxStringChunkBytes/1024+1)
	})
}

func chunkBoundaries[K keyType](t *testing.T, m keyMode[K], d *domain[K], n int) {
	dir := t.TempDir()
	e := openT(t, dir, Options{StringKeys: m.strKeys, NoCompactor: true})
	defer e.Close()
	var mu sync.Mutex
	var shipped []K
	e.SetReplSink(func(frames []ReplFrame) {
		mu.Lock()
		defer mu.Unlock()
		for i := range frames {
			shipped = append(shipped, *d.frameKeys(&frames[i])...)
		}
	})
	appended, committed := make([]K, n), make([]K, n)
	for i := 0; i < n; i++ {
		appended[i], committed[i] = m.key(uint64(i)), m.key(uint64(n+i))
	}
	if err := m.append(e, appended); err != nil {
		t.Fatal(err)
	}
	if err := m.commit(e, committed...); err != nil {
		t.Fatal(err)
	}
	want := append(slices.Clone(appended), committed...)

	// The commit's fsync covered both batches: the live log holds two
	// records per batch.
	walImg, err := os.ReadFile(filepath.Join(dir, d.walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for off := 0; off+walHeaderLen <= len(walImg); records++ {
		off += walHeaderLen + int(binary.LittleEndian.Uint32(walImg[off:]))
	}
	if records != 4 {
		t.Fatalf("WAL holds %d records, want 4 (each batch split in two)", records)
	}
	if got, _ := d.replay(walImg); !slices.Equal(got, want) {
		t.Fatalf("WAL replays %d keys, want %d in append order", len(got), len(want))
	}

	mu.Lock()
	got := slices.Clone(shipped)
	mu.Unlock()
	if !slices.Equal(got, want) {
		t.Fatalf("sink received %d keys, want each of %d exactly once in order", len(got), len(want))
	}

	crashDir := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := openT(t, crashDir, Options{StringKeys: m.strKeys, NoCompactor: true})
	defer r.Close()
	slices.Sort(want)
	if got := d.served(*r.segs.Load()); !slices.Equal(got, want) {
		t.Fatalf("crash copy recovered %d keys, want %d", len(got), len(want))
	}
}

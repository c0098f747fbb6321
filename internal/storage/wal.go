package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"learnedindex/internal/binenc"
	"learnedindex/internal/slicepool"
	"learnedindex/internal/vfs"
)

// Write-ahead log. Every Append is one framed record:
//
//	[payloadLen uint32 LE][crc32c(payload) uint32 LE][payload]
//	payload = uvarint keyCount, then keyCount uvarint keys
//
// for uint64 logs; string logs length-prefix each key (see stringKeys).
//
// Durability contract: Append is buffered; only Sync makes previously
// appended records crash-safe (flush + fsync). Concurrent committers are
// group-committed: a whole cohort's keys are encoded as one frame and
// covered by one fsync (see the Engine's commit plane). Recovery scans records
// front to back, stops at the first frame whose length, checksum, or
// payload fails validation, and truncates everything after it — a torn
// tail (the bytes past the last fsync that partially reached disk) is cut
// off without surfacing any invented key, while every record fully on
// disk is replayed.
//
// Logs rotate rather than truncate: files are named wal-<seq>.log, and a
// flush freezes the active log (fsync), starts a fresh one, and deletes
// the frozen file only after its contents are committed to a segment.
// Keys therefore always live in at least one durable place, and the
// engine's write mutex is never held across segment training. Recovery
// replays every wal-*.log in sequence order.
const (
	// maxWALRecord bounds a single record's payload; a length prefix beyond
	// it is treated as a torn/corrupt frame rather than an allocation.
	maxWALRecord = 1 << 26
	walHeaderLen = 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func walFileName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

// walStrFileName names a string-keyed engine's logs. The distinct prefix is
// the mode tag: records of the two key kinds are not self-describing, so
// the filename keeps a uint64-mode Open from ever replaying string frames
// (and vice versa) — a mode mismatch is an error at Open, not a
// misdecoded key.
func walStrFileName(seq uint64) string { return fmt.Sprintf("wals-%016x.log", seq) }

// parseWALFileName extracts the sequence number, rejecting anything that
// does not match the canonical name.
func parseWALFileName(name string) (seq uint64, ok bool) {
	n, err := fmt.Sscanf(name, "wal-%016x.log", &seq)
	if err != nil || n != 1 || name != walFileName(seq) {
		return 0, false
	}
	return seq, true
}

// parseWALStrFileName is parseWALFileName for string-keyed logs.
func parseWALStrFileName(name string) (seq uint64, ok bool) {
	n, err := fmt.Sscanf(name, "wals-%016x.log", &seq)
	if err != nil || n != 1 || name != walStrFileName(seq) {
		return 0, false
	}
	return seq, true
}

// wal is one open log file. Appends and buffer flushes are serialized by
// the Engine's write mutex; fsync and close additionally coordinate
// through fsyncMu so a group-commit leader's fsync — which runs *off* the
// engine mutex — can never race the file's close. A sync on a closed wal
// is a no-op by design: the only closers are Flush (which fsyncs the
// frozen log before rotating past it) and Engine.Close, so a closed wal's
// bytes are already durable or the engine has latched an error.
type wal struct {
	f    vfs.File
	w    *bufio.Writer
	path string
	size int64 // logical end of the last appended record (incl. buffered)

	fsyncMu sync.Mutex
	closed  bool
}

// newWAL creates a fresh, empty log at path on the given filesystem.
func newWAL(fs vfs.FS, path string) (*wal, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// replay scans data for intact records and returns the decoded keys
// plus the byte offset of the end of the last intact record — the
// truncation point for everything after it. It never panics on arbitrary
// input and never returns a key from a frame that fails validation.
func (d *domain[K]) replay(data []byte) (keys []K, good int64) {
	off := 0
	for {
		if len(data)-off < walHeaderLen {
			return keys, int64(off)
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if plen > maxWALRecord || len(data)-off-walHeaderLen < plen {
			return keys, int64(off)
		}
		payload := data[off+walHeaderLen : off+walHeaderLen+plen]
		if crc32.Checksum(payload, crcTable) != sum {
			return keys, int64(off)
		}
		r := binenc.NewReader(payload)
		n := r.Count(plen, 1)
		recKeys := make([]K, 0, n)
		for i := 0; i < n; i++ {
			k, ok := d.decode(r)
			if !ok {
				break
			}
			recKeys = append(recKeys, k)
		}
		// A checksummed record must decode exactly; leftovers or a decode
		// error mean the frame was written by something else — stop here.
		if r.Err() != nil || r.Remaining() != 0 || len(recKeys) != n {
			return keys, int64(off)
		}
		keys = append(keys, recKeys...)
		off += walHeaderLen + plen
	}
}

// walBufPool recycles record encode buffers so the append hot path is
// allocation-free under sustained ingest — a full varint-encoded record is
// built in a pooled scratch and memcpy'd into the write buffer.
var walBufPool slicepool.Pool[byte]

// writeRecord frames all batches as ONE record — the group-commit frame:
// a whole cohort of committers shares a single header, checksum, and
// (later) fsync. The caller keeps batches non-empty and their total
// weight within chunkLimit.
func (d *domain[K]) writeRecord(w *wal, batches [][]K) error {
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	payload := walBufPool.Get()
	payload = binenc.AppendUvarint(payload, uint64(total))
	for _, b := range batches {
		payload = d.encode(payload, b)
	}
	err := w.writeFrame(payload)
	walBufPool.Put(payload)
	return err
}

// writeFrame checksums payload and writes the framed record into the
// write buffer.
func (w *wal) writeFrame(payload []byte) error {
	if len(payload) > maxWALRecord {
		return fmt.Errorf("storage: WAL record of %d bytes exceeds limit", len(payload))
	}
	var hdr [walHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	w.size += int64(walHeaderLen + len(payload))
	return nil
}

// sync makes every appended record durable: buffer flush plus fsync. The
// caller must hold the engine write mutex (the buffer is not
// goroutine-safe); the fsync itself goes through the close guard.
func (w *wal) sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.fsync()
}

// fsync flushes OS-buffered bytes to stable storage. Safe to call off the
// engine mutex (group-commit leaders do); on an already-closed wal it is
// a no-op — see the struct comment for why that is sound.
func (w *wal) fsync() error {
	w.fsyncMu.Lock()
	defer w.fsyncMu.Unlock()
	if w.closed {
		return nil
	}
	return w.f.Sync()
}

// close flushes and closes the file without fsync (callers sync first
// when they need durability). The close guard waits out any in-flight
// leader fsync so the descriptor is never pulled from under one.
func (w *wal) close() error {
	ferr := w.w.Flush()
	w.fsyncMu.Lock()
	w.closed = true
	cerr := w.f.Close()
	w.fsyncMu.Unlock()
	if ferr != nil {
		return ferr
	}
	return cerr
}

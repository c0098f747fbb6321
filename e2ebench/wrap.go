package main

import (
	"os"
	"sync/atomic"
	"time"

	"learnedindex/internal/repl"
	"learnedindex/internal/vfs"
)

// deviceFS wraps the filesystem a persistent store runs on. It counts bytes
// written and syncs (the device layer of the ledger) and can delay every
// file and directory sync, which the sensitivity check uses to slow one
// layer without editing it.
type deviceFS struct {
	vfs.FS
	syncDelay time.Duration
	written   atomic.Int64
	syncs     atomic.Int64
}

type deviceFile struct {
	vfs.File
	fs *deviceFS
}

func (d *deviceFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &deviceFile{File: f, fs: d}, nil
}

func (d *deviceFS) SyncDir(dir string) error {
	d.sync()
	return d.FS.SyncDir(dir)
}

func (d *deviceFS) sync() {
	d.syncs.Add(1)
	if d.syncDelay > 0 {
		time.Sleep(d.syncDelay)
	}
}

func (f *deviceFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *deviceFile) Sync() error {
	f.fs.sync()
	return f.File.Sync()
}

// slowTransport delays every write on its connections, so each wire
// message (request or response) arrives later. Used by the sensitivity
// check on the client/server wire only; replication keeps plain TCP. The
// delay parks the goroutine (time.Sleep) rather than blocking its thread
// (nanosleep): a blocked thread keeps its processor until the runtime
// notices, which would slow the router's concurrent fan-out more than the
// wire itself and blame the wrong layer.
type slowTransport struct {
	repl.Transport
	delay time.Duration
}

type slowListener struct {
	repl.Listener
	delay time.Duration
}

type slowConn struct {
	repl.Conn
	delay time.Duration
}

func (t slowTransport) Dial(addr string) (repl.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return slowConn{c, t.delay}, nil
}

func (t slowTransport) Listen(addr string) (repl.Listener, error) {
	ln, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return slowListener{ln, t.delay}, nil
}

func (l slowListener) Accept() (repl.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowConn{c, l.delay}, nil
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

package server

import (
	"errors"
	"fmt"
	"time"

	"learnedindex/internal/repl"
)

// RemoteError is a store-level failure relayed over a healthy connection
// (for example a durable insert refused by a read-only follower). The
// connection remains usable; retrying the same request will fail the same
// way, so callers should not treat it like a transport fault.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "server: remote: " + e.Msg }

// Status is the server's replication/status snapshot (the Status RPC).
type Status struct {
	// Follower is true when the served store replays a primary rather
	// than accepting writes.
	Follower bool
	// Connected, AppliedSeq, PrimaryDurableSeq, LagFrames, and MaxEpoch
	// mirror repl.FollowerStatus; all zero on a primary.
	Connected         bool
	AppliedSeq        uint64
	PrimaryDurableSeq uint64
	LagFrames         uint64
	MaxEpoch          uint64
	// Len is the store's visible key count at the time of the request.
	Len int
}

// ClientOptions tunes a Client. The zero value is ready to use.
type ClientOptions struct {
	// Timeout bounds each RPC end to end (default 30s), enforced — like
	// every deadline on this transport seam — by a watchdog that closes
	// the connection.
	Timeout time.Duration
}

// Client is one wire connection to a Server. It is NOT safe for concurrent
// use: the protocol is strict request/response, so callers that want
// parallelism hold several clients (the router keeps a pool per node) or
// split each call into its send and receive halves across several clients.
type Client struct {
	c        repl.Conn
	strMode  bool
	follower bool
	timeout  time.Duration
	wd       *time.Timer // the one watchdog: armed by send, stopped by recv

	rbuf, wbuf []byte
	req, resp  wmsg
	want       byte // response kind of the request in flight, 0 when idle
	sent       int  // keys in the request in flight
}

var (
	errMode     = errors.New("server: method does not match the client's key mode")
	errSequence = errors.New("server: send and receive out of turn")
)

// Dial connects to a server at addr over t and performs the handshake.
// strMode must match the served store's key mode; a mismatch is a handshake
// error, not a latent panic.
func Dial(t repl.Transport, addr string, strMode bool, opt ClientOptions) (*Client, error) {
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	conn, err := t.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		c:       conn,
		strMode: strMode,
		timeout: opt.Timeout,
		wd:      time.AfterFunc(opt.Timeout, func() { conn.Close() }),
		rbuf:    make([]byte, 0, 4096),
		wbuf:    make([]byte, 0, 4096),
	}
	c.req = wmsg{kind: msgHello, strMode: strMode}
	resp, err := c.rpc(&c.req, msgServerHello)
	if err != nil {
		c.Close()
		return nil, err
	}
	if resp.strMode != strMode {
		c.Close()
		return nil, fmt.Errorf("server: handshake key-mode mismatch")
	}
	c.follower = resp.follower
	return c, nil
}

// Follower reports whether the remote store is a replication follower
// (read-only over this protocol), as learned at the handshake.
func (c *Client) Follower() bool { return c.follower }

// Close severs the connection. Safe to call twice.
func (c *Client) Close() error {
	c.wd.Stop()
	return c.c.Close()
}

// rpc writes one request and reads its one response.
func (c *Client) rpc(req *wmsg, want byte) (*wmsg, error) {
	if err := c.send(req, want, 0); err != nil {
		return nil, err
	}
	return c.recv(want)
}

// send writes req as the connection's one request in flight, expecting a
// response of kind want that answers sent keys. It re-arms the watchdog,
// which closes the connection unless recv reads the answer within the
// client timeout: the deadline covers the whole request, however late the
// caller comes back for it.
func (c *Client) send(req *wmsg, want byte, sent int) error {
	if c.want != 0 {
		return errSequence
	}
	c.wd.Reset(c.timeout)
	if err := writeWmsg(c.c, &c.wbuf, req); err != nil {
		c.wd.Stop()
		return err
	}
	c.want, c.sent = want, sent
	return nil
}

// recv reads the answer to the request send wrote and stops the watchdog.
// A msgErr response surfaces as *RemoteError with the connection still
// usable; any other failure means the connection is broken and the caller
// should Close.
func (c *Client) recv(want byte) (*wmsg, error) {
	if c.want != want {
		return nil, errSequence
	}
	c.want = 0
	err := readWmsg(c.c, &c.rbuf, c.strMode, &c.resp)
	c.wd.Stop()
	if err != nil {
		return nil, err
	}
	if c.resp.kind == msgErr {
		return nil, &RemoteError{Msg: c.resp.errMsg}
	}
	if c.resp.kind != want {
		return nil, errWire
	}
	return &c.resp, nil
}

// key is the client's key domain, which must match the served store's.
type key interface{ uint64 | string }

// begin is the client's one key-mode check: it loads c.req with a request
// of kind carrying keys and the lo/hi bounds in K's wire fields, or
// returns errMode when K is not the client's key mode.
func begin[K key](c *Client, kind byte, keys []K, lo, hi K) error {
	c.req = wmsg{kind: kind, strMode: c.strMode}
	switch ks := any(keys).(type) {
	case []uint64:
		if c.strMode {
			return errMode
		}
		c.req.keys, c.req.lo, c.req.hi = ks, any(lo).(uint64), any(hi).(uint64)
	case []string:
		if !c.strMode {
			return errMode
		}
		c.req.strs, c.req.loS, c.req.hiS = ks, any(lo).(string), any(hi).(string)
	}
	return nil
}

// The batch RPCs come in two forms. The blocking methods (LookupBatch,
// ContainsBatch, CountRange, Insert and their string twins) send a request
// and wait for its answer. The split form sends with a Send function and
// reads the answer with the matching Recv method later, so one goroutine
// can put requests on several clients before reading any answer and the
// servers work on them at once (the router's scatter/gather). A client
// holds one request in flight: Send while one is outstanding, or Recv of
// another kind, fails with no I/O. The blocking methods are Send then Recv.

// LookupBatch answers Lookup for every probe in probe order, plus the
// store's visible length at the same instant (the router turns per-node
// positions into global ones with it).
func (c *Client) LookupBatch(probes []uint64) (pos []int, storeLen int, err error) {
	return lookupBatch(c, probes)
}

// LookupBatchString is LookupBatch for a string-keyed store.
func (c *Client) LookupBatchString(probes []string) (pos []int, storeLen int, err error) {
	return lookupBatch(c, probes)
}

func lookupBatch[K key](c *Client, probes []K) ([]int, int, error) {
	if err := SendLookupBatch(c, probes); err != nil {
		return nil, 0, err
	}
	return c.RecvLookupBatch()
}

// SendLookupBatch writes a LookupBatch request; RecvLookupBatch reads its
// answer.
func SendLookupBatch[K key](c *Client, probes []K) error {
	var z K
	if err := begin(c, msgLookupBatch, probes, z, z); err != nil {
		return err
	}
	return c.send(&c.req, msgPositions, len(probes))
}

// RecvLookupBatch reads the answer to SendLookupBatch.
func (c *Client) RecvLookupBatch() (pos []int, storeLen int, err error) {
	resp, err := c.recv(msgPositions)
	if err != nil {
		return nil, 0, err
	}
	if len(resp.keys) != c.sent {
		return nil, 0, errWire
	}
	pos = make([]int, len(resp.keys))
	for i, p := range resp.keys {
		pos[i] = int(p)
	}
	return pos, int(resp.storeLen), nil
}

// ContainsBatch answers Contains for every probe in probe order.
func (c *Client) ContainsBatch(probes []uint64) ([]bool, error) { return containsBatch(c, probes) }

// ContainsBatchString is ContainsBatch for a string-keyed store.
func (c *Client) ContainsBatchString(probes []string) ([]bool, error) {
	return containsBatch(c, probes)
}

func containsBatch[K key](c *Client, probes []K) ([]bool, error) {
	if err := SendContainsBatch(c, probes); err != nil {
		return nil, err
	}
	return c.RecvContainsBatch()
}

// SendContainsBatch writes a ContainsBatch request; RecvContainsBatch
// reads its answer.
func SendContainsBatch[K key](c *Client, probes []K) error {
	var z K
	if err := begin(c, msgContainsBatch, probes, z, z); err != nil {
		return err
	}
	return c.send(&c.req, msgBools, len(probes))
}

// RecvContainsBatch reads the answer to SendContainsBatch.
func (c *Client) RecvContainsBatch() ([]bool, error) {
	resp, err := c.recv(msgBools)
	if err != nil {
		return nil, err
	}
	if len(resp.bools) != c.sent {
		return nil, errWire
	}
	return resp.bools, nil
}

// Scan returns one page of up to limit keys from [lo, hi) in ascending
// order (hi ignored when bounded is false: scan to the end), and whether
// more keys exist past the page. Resume by calling again with lo set to
// the successor of the last key.
func (c *Client) Scan(lo, hi uint64, bounded bool, limit int) (keys []uint64, more bool, err error) {
	return scanPage(c, lo, hi, bounded, limit)
}

// ScanString is Scan for a string-keyed store.
func (c *Client) ScanString(lo, hi string, bounded bool, limit int) (keys []string, more bool, err error) {
	return scanPage(c, lo, hi, bounded, limit)
}

func scanPage[K key](c *Client, lo, hi K, bounded bool, limit int) ([]K, bool, error) {
	if err := begin[K](c, msgScan, nil, lo, hi); err != nil {
		return nil, false, err
	}
	c.req.bounded, c.req.limit = bounded, uint64(limit)
	resp, err := c.rpc(&c.req, msgKeys)
	if err != nil {
		return nil, false, err
	}
	var page any = resp.keys
	if c.strMode {
		page = resp.strs
	}
	return page.([]K), resp.more, nil
}

// CountRange returns the exact number of keys in [lo, hi) (or [lo, ∞) when
// bounded is false).
func (c *Client) CountRange(lo, hi uint64, bounded bool) (int, error) {
	return countRange(c, lo, hi, bounded)
}

// CountRangeString is CountRange for a string-keyed store.
func (c *Client) CountRangeString(lo, hi string, bounded bool) (int, error) {
	return countRange(c, lo, hi, bounded)
}

func countRange[K key](c *Client, lo, hi K, bounded bool) (int, error) {
	if err := SendCountRange(c, lo, hi, bounded); err != nil {
		return 0, err
	}
	return c.RecvCountRange()
}

// SendCountRange writes a CountRange request; RecvCountRange reads its
// answer.
func SendCountRange[K key](c *Client, lo, hi K, bounded bool) error {
	if err := begin[K](c, msgCountRange, nil, lo, hi); err != nil {
		return err
	}
	c.req.bounded = bounded
	return c.send(&c.req, msgCount, 0)
}

// RecvCountRange reads the answer to SendCountRange.
func (c *Client) RecvCountRange() (int, error) {
	resp, err := c.recv(msgCount)
	if err != nil {
		return 0, err
	}
	return int(resp.count), nil
}

// Insert durably inserts keys via the store's group-commit write path: when
// it returns nil the keys are fsync-durable on the server. Duplicate keys
// are no-ops (set semantics), which is what makes retry-after-timeout safe.
func (c *Client) Insert(keys []uint64) error { return insert(c, keys) }

// InsertString is Insert for a string-keyed store.
func (c *Client) InsertString(keys []string) error { return insert(c, keys) }

func insert[K key](c *Client, keys []K) error {
	if err := SendInsert(c, keys); err != nil {
		return err
	}
	return c.RecvInsert()
}

// SendInsert writes an Insert request; RecvInsert reads its answer.
func SendInsert[K key](c *Client, keys []K) error {
	var z K
	if err := begin(c, msgInsert, keys, z, z); err != nil {
		return err
	}
	return c.send(&c.req, msgOK, 0)
}

// RecvInsert reads the answer to SendInsert: nil means the keys are
// fsync-durable on the server.
func (c *Client) RecvInsert() error {
	_, err := c.recv(msgOK)
	return err
}

// StatusRPC fetches the server's replication status and visible length.
func (c *Client) StatusRPC() (Status, error) {
	c.req = wmsg{kind: msgStatus, strMode: c.strMode}
	resp, err := c.rpc(&c.req, msgStatusInfo)
	if err != nil {
		return Status{}, err
	}
	return Status{
		Follower:          resp.follower,
		Connected:         resp.connected,
		AppliedSeq:        resp.applied,
		PrimaryDurableSeq: resp.durable,
		LagFrames:         resp.lag,
		MaxEpoch:          resp.epoch,
		Len:               int(resp.storeLen),
	}, nil
}

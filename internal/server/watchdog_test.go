package server

import (
	"errors"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
)

// mutePeer listens on addr and accepts connections that never answer a
// request; with hello set it first completes the handshake in uint64 mode.
func mutePeer(t *testing.T, tr repl.Transport, addr string, hello bool) {
	t.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var buf []byte
				var m wmsg
				if hello {
					if readWmsg(c, &buf, false, &m) != nil {
						return
					}
					writeWmsg(c, &buf, &wmsg{kind: msgServerHello})
				}
				for readWmsg(c, &buf, false, &m) == nil {
				}
			}()
		}
	}()
}

// TestClientWatchdog: the client timeout bounds every request by closing
// the connection — during the handshake, on a blocking call, and from a
// split call's send to its receive.
func TestClientWatchdog(t *testing.T) {
	const timeout = 50 * time.Millisecond
	tr := repl.NewMemTransport()
	within := func(name string, start time.Time, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: a mute peer answered", name)
		}
		if d := time.Since(start); d < timeout || d > 40*timeout {
			t.Fatalf("%s failed after %v, want about %v", name, d, timeout)
		}
	}

	mutePeer(t, tr, "silent", false)
	start := time.Now()
	_, err := Dial(tr, "silent", false, ClientOptions{Timeout: timeout})
	within("Dial", start, err)

	mutePeer(t, tr, "stalls", true)
	c, err := Dial(tr, "stalls", false, ClientOptions{Timeout: timeout})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	start = time.Now()
	_, err = c.ContainsBatch([]uint64{1, 2, 3})
	within("ContainsBatch", start, err)

	c2, err := Dial(tr, "stalls", false, ClientOptions{Timeout: timeout})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c2.Close()
	start = time.Now()
	if err := SendCountRange(c2, uint64(1), 9, true); err != nil {
		t.Fatalf("send: %v", err)
	}
	time.Sleep(2 * timeout) // the deadline runs while the caller is away
	_, err = c2.RecvCountRange()
	within("RecvCountRange", start, err)
}

// TestClientSplitSequence: a client holds one request in flight; sending
// a second, or receiving a kind that was not sent, fails without I/O and
// leaves the outstanding request answerable.
func TestClientSplitSequence(t *testing.T) {
	st := serve.New([]uint64{1, 2, 3}, core.Config{}, serve.Options{Shards: 1})
	defer st.Close()
	_, tr := startServer(t, st, Options{})
	c, err := Dial(tr, "node0", false, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.RecvContainsBatch(); !errors.Is(err, errSequence) {
		t.Fatalf("receive with nothing sent: want errSequence, got %v", err)
	}
	if err := SendContainsBatch(c, []uint64{2, 7}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := SendInsert(c, []uint64{9}); !errors.Is(err, errSequence) {
		t.Fatalf("second send: want errSequence, got %v", err)
	}
	if _, err := c.RecvCountRange(); !errors.Is(err, errSequence) {
		t.Fatalf("receive of another kind: want errSequence, got %v", err)
	}
	bs, err := c.RecvContainsBatch()
	if err != nil || len(bs) != 2 || !bs[0] || bs[1] {
		t.Fatalf("RecvContainsBatch = %v, %v; want [true false]", bs, err)
	}
}

// TestServerIdleTimeout: a connection that sends nothing for IdleTimeout
// is closed by the server's watchdog, which counts it in
// lix_server_timeouts_total.
func TestServerIdleTimeout(t *testing.T) {
	st := serve.New([]uint64{1, 2, 3}, core.Config{}, serve.Options{Shards: 1})
	defer st.Close()
	_, tr := startServer(t, st, Options{IdleTimeout: 30 * time.Millisecond})
	c, err := Dial(tr, "node0", false, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.ContainsBatch([]uint64{1}); err != nil {
		t.Fatalf("request inside the idle window: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Metrics().Counter("lix_server_timeouts_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never timed out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.ContainsBatch([]uint64{1}); err == nil {
		t.Fatal("request on an idle-closed connection succeeded")
	}
}

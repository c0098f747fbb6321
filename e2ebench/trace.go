package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"learnedindex/internal/server"
)

// traceEvery: in a traced phase every traceEvery-th request a client sends
// is replayed at each lower boundary.
const traceEvery = 4

// scanPage is the page size the router uses for cross-node scans; the
// server.Client boundary pages the same way.
const scanPage = 4096

// span is one timed call at one layer boundary. Spans of one request share
// Req; Parent is the span of the boundary above.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Keys   int    `json:"keys"`
	Pages  int    `json:"pages,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// clientTracer replays a client's sampled requests at the server.Client,
// serve.Store and core boundaries. Spans stay in memory until the run ends.
type clientTracer[K cmp.Ordered] struct {
	c      *client[K]
	conns  []*server.Client // one per node
	epoch  time.Time
	spans  []span
	nextID uint64
	failed int64 // boundary calls that returned an error
	buf    []K
	out    []bool
}

func (t *clientTracer[K]) now() int64 { return int64(time.Since(t.epoch)) }

func (t *clientTracer[K]) add(s span) uint64 {
	t.nextID++
	s.ID = uint64(t.c.id)<<48 | t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

// nodeOf returns the node owning key k.
func nodeOf[K cmp.Ordered](ks *keySpace[K], k K) int {
	switch {
	case k < ks.fences[0]:
		return 0
	case k < ks.fences[1]:
		return 1
	}
	return 2
}

// replay prices req, which the router just answered in d starting at
// start, at every lower boundary in turn. Reads repeat the same keys at
// each boundary; inserts use fresh keys at each boundary.
func (t *clientTracer[K]) replay(req *request[K], start time.Time, d time.Duration) {
	c := t.c
	r := c.r
	ks, o := r.ks, r.o
	reqID := uint64(c.id)<<48 | (t.nextID + 1)
	rs := int64(start.Sub(t.epoch))
	root := t.add(span{Req: reqID, Name: "router." + opNames[req.op], Node: -1, Start: rs, End: rs + int64(d), Keys: len(req.keys)})
	check := func(err error) {
		if err != nil {
			r.wrong.set(err)
		}
	}
	switch req.op {
	case opContains:
		for i := 0; i < 3; i++ {
			sub := &request[K]{op: opContains}
			for j, k := range req.keys {
				if nodeOf(ks, k) == i {
					sub.keys = append(sub.keys, k)
					sub.want = append(sub.want, req.want[j])
				}
			}
			if len(sub.keys) == 0 {
				continue
			}
			s0 := t.now()
			got, err := o.cContains(t.conns[i], sub.keys)
			cs := t.add(span{Req: reqID, Parent: root, Name: "server.contains", Node: i, Start: s0, End: t.now(), Keys: len(sub.keys)})
			if err != nil {
				t.fail(i, err)
				continue
			}
			check(checkContains(sub, got))
			s0 = t.now()
			got = o.sContains(r.c.primaries[i], sub.keys)
			ss := t.add(span{Req: reqID, Parent: cs, Name: "serve.contains", Node: i, Start: s0, End: t.now(), Keys: len(sub.keys)})
			check(checkContains(sub, got))
			if cap(t.out) < len(sub.keys) {
				t.out = make([]bool, len(sub.keys))
			}
			out := t.out[:len(sub.keys)]
			s0 = t.now()
			r.cores[i].contains(sub.keys, out)
			t.add(span{Req: reqID, Parent: ss, Name: "core.contains", Node: i, Start: s0, End: t.now(), Keys: len(sub.keys)})
			check(checkContains(sub, out))
		}
	case opInsert:
		t.replayInsert(reqID, root, c.wireIns.insert(), "server.insert")
		t.replayInsert(reqID, root, c.storIns.insert(), "serve.insert")
	case opScan, opCount:
		for i := 0; i < 3; i++ {
			a, b := max(req.a, ks.splits[i]), min(req.b, ks.splits[i+1])
			if a >= b {
				continue
			}
			t.replayRange(reqID, root, req.op, i, a, b)
		}
	}
}

// replayInsert sends one fresh insert batch, split by owner, at the
// server.Client or serve.Store boundary.
func (t *clientTracer[K]) replayInsert(reqID, parent uint64, req request[K], name string) {
	r := t.c.r
	for i := 0; i < 3; i++ {
		var keys []K
		var ranks []int32
		for j, k := range req.keys {
			if nodeOf(r.ks, k) == i {
				keys = append(keys, k)
				ranks = append(ranks, req.ranks[j])
			}
		}
		if len(keys) == 0 {
			continue
		}
		s0 := t.now()
		var err error
		if name == "server.insert" {
			err = r.o.cInsert(t.conns[i], keys)
		} else {
			err = r.o.sInsert(r.c.primaries[i], keys)
		}
		t.add(span{Req: reqID, Parent: parent, Name: name, Node: i, Start: s0, End: t.now(), Keys: len(keys)})
		if err != nil {
			t.fail(i, err)
			continue
		}
		r.ks.markAcked(ranks, req.tag)
	}
}

// replayRange prices node i's part, ranks [a, b), of a scan or count.
func (t *clientTracer[K]) replayRange(reqID, parent uint64, op opKind, i, a, b int) {
	r := t.c.r
	ks, o := r.ks, r.o
	lo, hi := ks.base[a], ks.base[b]
	required := ks.snapshotMasks(a, b, nil)
	check := func(err error) {
		if err != nil {
			r.wrong.set(err)
		}
	}
	if op == opCount {
		s0 := t.now()
		n, err := o.cCount(t.conns[i], lo, hi)
		cs := t.add(span{Req: reqID, Parent: parent, Name: "server.count", Node: i, Start: s0, End: t.now()})
		if err != nil {
			t.fail(i, err)
			return
		}
		check(checkCount(ks, a, b, n, required))
		s0 = t.now()
		n = o.sCount(r.c.primaries[i], lo, hi)
		ss := t.add(span{Req: reqID, Parent: cs, Name: "serve.count", Node: i, Start: s0, End: t.now()})
		check(checkCount(ks, a, b, n, required))
		s0 = t.now()
		n = r.cores[i].rangeCount(lo, hi)
		t.add(span{Req: reqID, Parent: ss, Name: "core.count", Node: i, Start: s0, End: t.now()})
		if n != b-a {
			check(fmt.Errorf("core count [%v, %v): got %d, want %d", lo, hi, n, b-a))
		}
		return
	}
	// Scan: page through the wire exactly as the router does.
	t.buf = t.buf[:0]
	pages := 0
	s0 := t.now()
	from := lo
	for {
		page, more, err := o.cScan(t.conns[i], from, hi, scanPage)
		if err != nil {
			t.fail(i, err)
			return
		}
		pages++
		t.buf = append(t.buf, page...)
		if !more || len(page) == 0 {
			break
		}
		from = o.succ(page[len(page)-1])
	}
	cs := t.add(span{Req: reqID, Parent: parent, Name: "server.scan", Node: i, Start: s0, End: t.now(), Keys: len(t.buf), Pages: pages})
	check(checkRange(ks, a, b, t.buf, required, ks.issuedMask))

	t.buf = t.buf[:0]
	s0 = t.now()
	it := o.sScan(r.c.primaries[i], lo, hi)
	s1 := t.now()
	for it.Next() {
		t.buf = append(t.buf, it.Key())
	}
	it.Close()
	ss := t.add(span{Req: reqID, Parent: cs, Name: "serve.scan", Node: i, Start: s0, End: t.now(), Keys: len(t.buf)})
	t.add(span{Req: reqID, Parent: ss, Name: "scan.open", Node: i, Start: s0, End: s1})
	check(checkRange(ks, a, b, t.buf, required, ks.issuedMask))

	s0 = t.now()
	n := r.cores[i].rangeCount(lo, hi)
	t.add(span{Req: reqID, Parent: ss, Name: "core.scan", Node: i, Start: s0, End: t.now(), Keys: n})
	if n != b-a {
		check(fmt.Errorf("core range [%v, %v): got %d keys, want %d", lo, hi, n, b-a))
	}
}

// fail counts a boundary call that returned an error and redials the node,
// since a failed call may leave the connection mid-message.
func (t *clientTracer[K]) fail(i int, err error) {
	t.failed++
	fmt.Fprintf(os.Stderr, "e2ebench: traced call on node %d: %v\n", i, err)
	t.conns[i].Close()
	r := t.c.r
	c, derr := server.Dial(r.c.opt.wire, r.c.addrs[i], r.o.strKeys, server.ClientOptions{})
	if derr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: redial node %d: %v\n", i, derr)
		return
	}
	t.conns[i] = c
}

// ledger turns spans into per-layer self times. A layer's self time is its
// span minus the span of the boundary below it for the same request.
type ledger struct {
	routerSelf, wire              []float64 // µs
	serveContains, serveInsert    []float64 // µs
	serveCount, scanOpen, scanNxt []float64 // µs; ns per key for scanNxt
	corePerKey                    []float64 // ns per key
	pages, scans                  int
}

func buildLedger(spans []span) *ledger {
	l := &ledger{}
	byReq := map[uint64][]*span{}
	for i := range spans {
		s := &spans[i]
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, ss := range byReq {
		var root *span
		clients := map[int]*span{}
		stores := map[int]*span{}
		opens := map[int]*span{}
		for _, s := range ss {
			switch {
			case strings.HasPrefix(s.Name, "router."):
				root = s
			case strings.HasPrefix(s.Name, "server."):
				clients[s.Node] = s
			case strings.HasPrefix(s.Name, "serve."):
				stores[s.Node] = s
			case s.Name == "scan.open":
				opens[s.Node] = s
			case s.Name == "core.contains" && s.Keys > 0:
				l.corePerKey = append(l.corePerKey, s.dur()/float64(s.Keys))
			}
		}
		if root == nil {
			continue
		}
		read := root.Name != "router.insert"
		slowest := 0.0
		for node, cs := range clients {
			slowest = max(slowest, cs.dur())
			if st, ok := stores[node]; ok && read {
				l.wire = append(l.wire, (cs.dur()-st.dur())/1e3)
			}
			l.pages += cs.Pages
		}
		switch root.Name {
		case "router.contains":
			if len(clients) > 0 {
				l.routerSelf = append(l.routerSelf, (root.dur()-slowest)/1e3)
			}
		case "router.scan":
			l.scans++
		}
		for node, st := range stores {
			switch st.Name {
			case "serve.contains":
				l.serveContains = append(l.serveContains, st.dur()/1e3)
			case "serve.insert":
				l.serveInsert = append(l.serveInsert, st.dur()/1e3)
			case "serve.count":
				l.serveCount = append(l.serveCount, st.dur()/1e3)
			case "serve.scan":
				if op, ok := opens[node]; ok {
					l.scanOpen = append(l.scanOpen, op.dur()/1e3)
					if st.Keys > 0 {
						l.scanNxt = append(l.scanNxt, (st.dur()-op.dur())/float64(st.Keys))
					}
				}
			}
		}
	}
	return l
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

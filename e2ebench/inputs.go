package main

import (
	"cmp"
	"math/rand"
)

type opKind uint8

const (
	opContains opKind = iota
	opInsert
	opScan
	opCount
	numOps
)

var opNames = [numOps]string{"contains", "insert", "scan", "count"}

const (
	containsBatch = 64 // probes per routed membership batch
	insertBatch   = 16 // keys per routed durable insert batch
	missEvery     = 8  // one probe in missEvery comes from the miss pool
	zipfS         = 1.2
)

// workload is one traffic mix. Every mix carries all four operations so
// that every end-to-end metric exists on every workload; the shares set
// which layers do most of the work.
type workload struct {
	name    string
	strKeys bool
	keys    int             // base keys across the cluster
	clients int             // closed-loop clients, at most min(2, nproc)
	share   [numOps]float64 // request shares, summing to 1
	zipf    bool            // membership hits follow Zipf(s=1.2) instead of uniform
	width   int             // base keys spanned by a scan or count
	// crossEvery places one range request in crossEvery across a node
	// fence, so cross-node paging and merging run on a known share.
	crossEvery int
}

var workloads = []workload{
	{
		// Per-RPC read path: router fan-out, wire codec, server, serve batch,
		// core plan. Storage sits nearly idle.
		name: "point-read", keys: 1_000_000, clients: 2, zipf: true, width: 128,
		share: [numOps]float64{opContains: 0.85, opInsert: 0.05, opScan: 0.05, opCount: 0.05},
	},
	{
		// Group commit, fsync, flush/retrain, compaction and replication.
		// One client: with two, fsync waits and background compaction
		// saturated both vCPUs of the host this was tuned on, and medians
		// of unchanged code moved by a fifth between runs as its spare CPU
		// drifted; with one they moved by a tenth.
		name: "durable-write", keys: 1_000_000, clients: 1, width: 128,
		share: [numOps]float64{opContains: 0.20, opInsert: 0.70, opScan: 0.05, opCount: 0.05},
	},
	{
		// Loser-tree merge, cross-node scan paging, the keycodec prefix plan
		// and suffix dictionary: the string twin paths.
		name: "string-scan", strKeys: true, keys: 500_000, clients: 2, width: 1000, crossEvery: 10,
		share: [numOps]float64{opContains: 0.25, opInsert: 0.05, opScan: 0.50, opCount: 0.20},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated operation with what the oracle needs to judge
// its answer.
type request[K cmp.Ordered] struct {
	op    opKind
	keys  []K     // membership probes or insert keys
	want  []bool  // expected membership answers
	ranks []int32 // base ranks of insert keys
	tag   int     // fresh tag of insert keys
	a, b  int     // range requests cover base ranks [a, b): [base[a], base[b])
}

// stream generates one client's requests. It is deterministic in its seed:
// the oracle masks it writes are read back only for its own tag, which no
// other stream sets.
type stream[K cmp.Ordered] struct {
	ks   *keySpace[K]
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int32 // Zipf rank -> base rank, scattering the hot set
	tag  int
}

func newStream[K cmp.Ordered](ks *keySpace[K], w *workload, perm []int32, seed int64, tag int) *stream[K] {
	rng := rand.New(rand.NewSource(seed))
	return &stream[K]{
		ks:   ks,
		w:    w,
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(ks.base)-1)),
		perm: perm,
		tag:  tag,
	}
}

// zipfPerm is the shared Zipf rank permutation of a seed.
func zipfPerm(n int, seed int64) []int32 {
	p := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]int32, n)
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}

func (s *stream[K]) next() request[K] {
	u := s.rng.Float64()
	op := opContains
	for o := opKind(0); o < numOps; o++ {
		if u < s.w.share[o] {
			op = o
			break
		}
		u -= s.w.share[o]
	}
	switch op {
	case opInsert:
		return s.insert()
	case opScan, opCount:
		r := s.rangeReq()
		r.op = op
		return r
	}
	return s.contains()
}

func (s *stream[K]) contains() request[K] {
	n := len(s.ks.base)
	req := request[K]{op: opContains, keys: make([]K, containsBatch), want: make([]bool, containsBatch)}
	for i := range req.keys {
		if s.rng.Intn(missEvery) == 0 {
			req.keys[i] = s.ks.tagged(s.rng.Intn(n), tagMiss)
			continue
		}
		r := s.rng.Intn(n)
		if s.w.zipf {
			r = int(s.perm[s.zipf.Uint64()])
		}
		req.keys[i], req.want[i] = s.ks.base[r], true
	}
	return req
}

// insert draws insertBatch fresh keys at uniform base ranks, never reusing
// a rank for this stream's tag, and marks them issued.
func (s *stream[K]) insert() request[K] {
	n := len(s.ks.base)
	req := request[K]{op: opInsert, keys: make([]K, 0, insertBatch), ranks: make([]int32, 0, insertBatch), tag: s.tag}
	bit := uint32(1) << s.tag
	for len(req.keys) < insertBatch {
		r := s.rng.Intn(n)
		if s.ks.issued[r].Load()&bit != 0 {
			continue
		}
		orBits(&s.ks.issued[r], bit)
		req.keys = append(req.keys, s.ks.tagged(r, s.tag))
		req.ranks = append(req.ranks, int32(r))
	}
	return req
}

func (s *stream[K]) rangeReq() request[K] {
	n, w := len(s.ks.base), s.w.width
	a := s.rng.Intn(n - w)
	if s.w.crossEvery > 0 && s.rng.Intn(s.w.crossEvery) == 0 {
		f := s.ks.splits[1+s.rng.Intn(2)]
		a = f - 1 - s.rng.Intn(w-1)
	}
	return request[K]{a: a, b: a + w}
}

package main

import (
	"fmt"
	"math"
	"time"
)

// The sensitivity check slows one layer from the benchmark's side, without
// editing it, and tests that the benchmark notices where it should and
// only there:
//
//   - A delay on every client/server wire message must move contains_p50_us
//     on point-read beyond its bound, and the traced ledger must name
//     server.wire_us as the layer whose self time grew most.
//   - A delay on every fsync must move insert_p50_us on durable-write beyond
//     its bound and leave contains_p50_us on point-read within its bound.
const (
	sensWireDelay = time.Millisecond
	sensSyncDelay = time.Millisecond
	sensPairs     = 3 // alternating baseline/delayed runs per comparison
)

func sensitivityCheck(cfg config, con *contract) error {
	cfg.setups = 1
	runs := func(workload string, trace bool, wire, sync time.Duration) ([]*report, []*report, error) {
		var base, slow []*report
		for i := 0; i < sensPairs; i++ {
			for _, delayed := range []bool{i%2 == 1, i%2 == 0} {
				c := cfg
				c.workload, c.trace, c.seed = workload, trace, cfg.seed+int64(i)
				if delayed {
					c.wireDelay, c.syncDelay = wire, sync
				}
				rep, err := runWorkload(c)
				if err != nil {
					return nil, nil, fmt.Errorf("%s (wire %v, sync %v): %w", workload, c.wireDelay, c.syncDelay, err)
				}
				if delayed {
					slow = append(slow, rep)
				} else {
					base = append(base, rep)
				}
			}
			if trace {
				break // one traced pair names the layer
			}
		}
		return base, slow, nil
	}
	var failures []string
	verdict := func(ok bool, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if ok {
			fmt.Println("PASS", msg)
		} else {
			fmt.Println("FAIL", msg)
			failures = append(failures, msg)
		}
	}

	pointBase, pointWire, err := runs("point-read", false, sensWireDelay, 0)
	if err != nil {
		return err
	}
	b, s := medianOf(pointBase, "contains_p50_us"), medianOf(pointWire, "contains_p50_us")
	bound := con.bound("contains_p50_us")
	verdict(s/b-1 > bound, "wire delay %v: point-read contains_p50_us %.1f -> %.1f us (%+.0f%%, bound %.0f%%)",
		sensWireDelay, b, s, 100*(s/b-1), 100*bound)

	tBase, tWire, err := runs("point-read", true, sensWireDelay, 0)
	if err != nil {
		return err
	}
	layer, table := growth(tBase[0], tWire[0])
	fmt.Print(table)
	verdict(layer == "server.wire_us", "wire delay %v: ledger names %s", sensWireDelay, layer)

	writeBase, writeSync, err := runs("durable-write", false, 0, sensSyncDelay)
	if err != nil {
		return err
	}
	b, s = medianOf(writeBase, "insert_p50_us"), medianOf(writeSync, "insert_p50_us")
	bound = con.bound("insert_p50_us")
	verdict(s/b-1 > bound, "sync delay %v: durable-write insert_p50_us %.1f -> %.1f us (%+.0f%%, bound %.0f%%)",
		sensSyncDelay, b, s, 100*(s/b-1), 100*bound)

	_, pointSync, err := runs("point-read", false, 0, sensSyncDelay)
	if err != nil {
		return err
	}
	b, s = medianOf(pointBase, "contains_p50_us"), medianOf(pointSync, "contains_p50_us")
	bound = con.bound("contains_p50_us")
	verdict(math.Abs(s/b-1) <= bound, "sync delay %v: point-read contains_p50_us %.1f -> %.1f us (%+.0f%%, bound %.0f%%)",
		sensSyncDelay, b, s, 100*(s/b-1), 100*bound)

	if len(failures) > 0 {
		return fmt.Errorf("%d prediction(s) failed", len(failures))
	}
	return nil
}

func medianOf(reps []*report, name string) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, r.metrics[name].Value)
	}
	return median(xs)
}

// ledgerLayers are the self times of one membership batch, in µs, that
// the ledger splits a routed call into.
var ledgerLayers = []string{"router.self_us", "server.wire_us", "serve.contains_batch_us", "core.plan_us"}

// growth returns the ledger layer whose self time grew most between two
// traced runs, and a table of every layer's change.
func growth(base, slow *report) (string, string) {
	self := func(r *report, name string) float64 {
		if name == "core.plan_us" {
			return r.metrics["core.plan_ns_per_key"].Value * containsBatch / 3 / 1e3
		}
		return r.metrics[name].Value
	}
	table := ""
	best, bestDelta := "", math.Inf(-1)
	for _, name := range ledgerLayers {
		b, s := self(base, name), self(slow, name)
		table += fmt.Sprintf("  %-26s %9.1f -> %9.1f us (%+.1f)\n", name, b, s, s-b)
		if s-b > bestDelta {
			best, bestDelta = name, s-b
		}
	}
	return best, table
}

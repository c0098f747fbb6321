// Command e2ebench is the repository's end-to-end benchmark. It builds a
// three-node cluster in process over TCP loopback (persistent primaries
// behind wire servers, one replication follower each, and a router), drives
// it with closed-loop clients, checks every answer against an oracle built
// from the generated inputs, and prints every metric by name and unit. The
// last line of standard output is one JSON result. See README.md. Run it
// from the repository root, where it reads BENCHMARK.json:
//
//	bash e2ebench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var cfg config
	var trace int
	var sensitivity bool
	flag.StringVar(&cfg.workload, "workload", "", "point-read, durable-write or string-scan")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer ledger")
	flag.StringVar(&cfg.out, "out", ".bench_build/e2ebench", "directory for node data and span files")
	flag.BoolVar(&sensitivity, "sensitivity", false, "run the sensitivity check instead of one workload")
	flag.Parse()
	cfg.trace, cfg.setups = trace == 1, setups
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	con, err := readContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if sensitivity {
		if err := sensitivityCheck(cfg, con); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: sensitivity:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		if rep != nil {
			// A wrong answer or a broken run: print what was measured, marked
			// incorrect, and fail.
			rep.print(os.Stdout, false, con.metrics(cfg.trace))
		}
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, true, con.metrics(cfg.trace)); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// runWorkload prints the environment stamp, then generates the inputs and
// runs one workload.
func runWorkload(cfg config) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return runWith(cfg, w)
}

func runWith(cfg config, w workload) (*report, error) {
	env, _ := json.Marshal(stamp(cfg))
	fmt.Printf("env %s\n", env)
	t0 := time.Now()
	if w.strKeys {
		ks := stringSpace(w.keys, cfg.seed)
		fmt.Printf("inputs: %d string keys in %.2fs\n", len(ks.base), time.Since(t0).Seconds())
		return run(cfg, w, stringOps, ks)
	}
	ks := uint64Space(w.keys, cfg.seed)
	fmt.Printf("inputs: %d uint64 keys in %.2fs\n", len(ks.base), time.Since(t0).Seconds())
	return run(cfg, w, uint64Ops, ks)
}

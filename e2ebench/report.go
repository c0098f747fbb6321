package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics with their sample counts.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	order     []string
	attempted int64
	failed    int64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// add records a metric. A value with no samples behind it (NaN or an
// infinity) is reported as 0 and flagged on stderr.
func (r *report) add(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "e2ebench: %s has no finite value (%d samples)\n", name, n)
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contract is the part of BENCHMARK.json, at the root of the checkout,
// that the program reads: which metrics a result line carries, and their
// bounds.
type contract struct {
	EndToEnd []struct {
		Name  string
		Bound float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func readContract() (*contract, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// metrics returns the names a result line carries: end_to_end for an
// untraced run, per_layer for a traced one.
func (c *contract) metrics(trace bool) []string {
	var names []string
	if trace {
		for _, m := range c.PerLayer {
			names = append(names, m.Name)
		}
		return names
	}
	for _, m := range c.EndToEnd {
		names = append(names, m.Name)
	}
	return names
}

// bound is a metric's bound, or the largest bound the format allows for a
// metric the contract does not gate.
func (c *contract) bound(name string) float64 {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0.25
}

// print writes the human-readable table of every metric, then the result
// line with the contract's metrics. A contract metric the run did not
// produce is an error.
func (r *report) print(w io.Writer, correct bool, names []string) error {
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-36s %16.6g %-6s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-36s %16.6g %-6s n=%d\n", "error_rate", rate, "ratio", r.attempted)
	res := result{Correct: correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = m
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	if len(missing) > 0 && correct {
		return fmt.Errorf("run produced no value for %s", strings.Join(missing, ", "))
	}
	return nil
}

// environment is the stamp printed with every result.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
}

func stamp(cfg config) environment {
	return environment{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SourceHash: sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the checkout's git commit, or "none" when the checkout is not
// a git work tree. git is stopped from searching above the checkout.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash identifies the code under test when there is no commit: the
// SHA-256 of every Go source and go.mod file under root, by path.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

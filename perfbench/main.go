// Command perfbench is the repository benchmark: four seeded workloads
// driven through the public surfaces (gpustream.Spec/NewFromSpec,
// ProcessSlice, Snapshot, Close, and the internal/service HTTP handler over
// loopback), every answer checked against an exact reference, end-to-end
// metrics from untraced runs and per-layer metrics from a traced run.
//
//	bash perfbench/run.sh --workload batch-quantile --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result the BENCHMARK.json
// contract asks for; the full result, with host fingerprint, tail
// percentiles and snapshot digests, is written under the build directory.
// README.md beside this file documents the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gpustream"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a run's metrics by name, with the percentile and sample
// count behind every *_tail_* metric.
type metricSet struct {
	values map[string]metric
	tails  map[string]tailInfo
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]metric{}, tails: map[string]tailInfo{}}
}

func (m *metricSet) set(name string, v float64, unit string) { m.values[name] = metric{v, unit} }

// latency records a distribution as name_p50_<unit> and name_tail_<unit>;
// scale converts milliseconds to the unit.
func (m *metricSet) latency(prefix string, d *dist, unit string, scale float64) {
	if d.n() == 0 {
		return
	}
	m.set(prefix+"_p50_"+unit, d.median()*scale, unit)
	tail, info := d.tail()
	m.set(prefix+"_tail_"+unit, tail*scale, unit)
	m.tails[prefix+"_tail_"+unit] = info
}

// outcome is what a workload run reports back to main.
type outcome struct {
	metrics   *metricSet
	attempted int64 // operations issued: ingest calls, queries, requests
	verdict   verdict
	// digests maps each snapshot the run ended with to the SHA-256 of its
	// MarshalSnapshot bytes, for comparing traced and untraced runs.
	digests map[string]string
	// work is the time a unit of the workload took, the quantity
	// tracing_overhead compares between the traced and untraced halves.
	work  float64
	notes map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: newMetricSet(), digests: map[string]string{}, notes: map[string]any{}}
}

// digest hashes a snapshot's wire bytes.
func digest(s gpustream.Snapshot[float32]) (string, error) {
	b, err := gpustream.MarshalSnapshot(s)
	if err != nil {
		return "", err
	}
	return sha256hex(b), nil
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// finish derives the correctness metrics from the counts and the oracle.
func (o *outcome) finish() {
	o.metrics.set("error_rate", float64(o.verdict.failed)/float64(max(o.attempted, 1)), "ratio")
	if o.verdict.ranks > 0 {
		o.metrics.set("rank_err", o.verdict.rankErr, "ratio")
	}
	if o.verdict.freqs > 0 {
		o.metrics.set("freq_err", o.verdict.freqErr, "ratio")
	}
}

// runConfig is one invocation's inputs.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	out      string // build directory for result and trace files
}

// workload runs once for cfg.seconds; tr is nil for an untraced run.
type workload func(cfg runConfig, tr *tracer) (*outcome, error)

var workloads = map[string]workload{
	"batch-quantile":  batchQuantile,
	"batch-frequency": batchFrequency,
	"sliding-query":   slidingQuery,
	"service-mix":     serviceMix,
}

// benchmarkSpec is the part of BENCHMARK.json this program reads: the
// metric names each mode must print.
type benchmarkSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: batch-quantile, batch-frequency, sliding-query or service-mix")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		traceOn = flag.Int("trace", 0, "1 runs the workload untraced and traced and reports per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for result and trace files")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn == 1, *out, *spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, out, specPath string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", seconds)
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("read benchmark definition: %w", err)
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		return fmt.Errorf("parse %s: %w", specPath, err)
	}
	cfg := runConfig{workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second, out: out}
	for _, dir := range []string{"results", "traces"} {
		if err := os.MkdirAll(filepath.Join(out, dir), 0o755); err != nil {
			return err
		}
	}

	var res *outcome
	steal0 := hostSteal()
	if traced {
		res, err = runTraced(wl, cfg)
	} else {
		res, err = wl(cfg, nil)
	}
	if err != nil {
		return err
	}
	res.notes["host_steal_share"] = hostSteal().since(steal0)
	res.finish()
	wanted := bs.EndToEnd
	if traced {
		wanted = bs.PerLayer
	}
	printed := map[string]metric{}
	for _, w := range wanted {
		v, ok := res.metrics.values[w.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", name, w.Name)
		}
		printed[w.Name] = v
	}

	failed := res.verdict.failed
	correct := failed == 0
	if err := writeResult(cfg, traced, res, correct); err != nil {
		return err
	}
	printTable(res)
	for _, v := range res.verdict.violations {
		fmt.Fprintln(os.Stderr, "violation:", v)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(res.attempted, 1), failed, printed})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%s: %d of %d operations failed or broke the eps guarantee", name, failed, res.attempted)
	}
	return nil
}

// runTraced runs the workload untraced and then traced for half the time
// each. Per-layer metrics come from the traced half; the untraced half
// proves both built the same summaries (equal snapshot digests) and gives
// the tracing overhead.
func runTraced(wl workload, cfg runConfig) (*outcome, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := wl(half, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced half: %w", err)
	}
	tr := newTracer()
	res, err := wl(half, tr)
	if err != nil {
		return nil, fmt.Errorf("traced half: %w", err)
	}
	if len(res.digests) == 0 {
		return nil, fmt.Errorf("traced half recorded no snapshot digests")
	}
	for k, d := range res.digests {
		if plain.digests[k] != d {
			res.verdict.fail("%s: traced and untraced snapshot bytes differ", k)
		}
	}
	res.notes["untraced_digests"] = plain.digests
	if plain.work > 0 {
		res.metrics.set("tracing_overhead", res.work/plain.work, "ratio")
	}
	// Layer metrics (dotted names) come from the traced half, end-to-end
	// ones and the runtime counters from the untraced half.
	for n, v := range plain.metrics.values {
		if !strings.Contains(n, ".") || strings.HasPrefix(n, "runtime.") {
			res.metrics.values[n] = v
		}
	}
	for n, t := range plain.metrics.tails {
		res.metrics.tails[n] = t
	}
	res.attempted += plain.attempted
	res.verdict.merge(plain.verdict)
	path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.notes["trace_file"] = path
	return res, nil
}

// host is the fingerprint every result file records.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	h.Commit = commit()
	return h
}

// commit reads HEAD from the checkout's .git directory when there is one;
// a source export has none and reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// writeResult stores the full result: every metric, tail percentiles,
// oracle findings, digests and the host fingerprint.
func writeResult(cfg runConfig, traced bool, res *outcome, correct bool) error {
	mode := 0
	if traced {
		mode = 1
	}
	doc := map[string]any{
		"workload":                 cfg.workload,
		"seed":                     cfg.seed,
		"seconds":                  cfg.seconds.Seconds(),
		"trace":                    mode,
		"host":                     fingerprint(),
		"time":                     time.Now().UTC().Format(time.RFC3339),
		"correct":                  correct,
		"attempted":                res.attempted,
		"failed":                   res.verdict.failed,
		"metrics":                  res.metrics.values,
		"tails":                    res.metrics.tails,
		"quantile_answers_checked": res.verdict.ranks,
		"heavy_items_checked":      res.verdict.freqs,
		"violations":               res.verdict.violations,
		"digests":                  res.digests,
		"notes":                    res.notes,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, mode))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints every measured metric, one per line, before the
// result line.
func printTable(res *outcome) {
	names := make([]string, 0, len(res.metrics.values))
	for n := range res.metrics.values {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, n := range names {
		v := res.metrics.values[n]
		fmt.Fprintf(&b, "%-40s %14.6g %s", n, v.Value, v.Unit)
		if t, ok := res.metrics.tails[n]; ok {
			fmt.Fprintf(&b, "  (p%g of %d)", t.Percentile, t.Samples)
		}
		b.WriteByte('\n')
	}
	os.Stdout.Write(b.Bytes())
}

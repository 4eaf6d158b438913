package main

import (
	"fmt"
	"runtime"
	"time"

	"gpustream"
	"gpustream/internal/frequency"
	"gpustream/internal/quantile"
	"gpustream/internal/samplesort"
)

// Batch workloads: one goroutine ingests a seeded zipf stream through
// ProcessSlice in fixed batches, probes a snapshot every probeEvery values,
// and closes. A run repeats this pass, each on a fresh estimator, until the
// measured time is used up.
const (
	batchValues = 10_000_000
	batchSize   = 50_000
	probeEvery  = 500_000
	batchVocab  = 100_000
	batchSkew   = 1.1
)

var probePhis = []float64{0.5, 0.9, 0.99}

// batchQuantile is a whole-history GK quantile stream: the merge/compress
// cascade does most of the ingest work.
func batchQuantile(cfg runConfig, tr *tracer) (*outcome, error) {
	spec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 1e-3, Backend: gpustream.BackendSampleSort}
	build := func(s gpustream.Sorter[float32]) gpustream.Estimator[float32] {
		return quantile.NewEstimator[float32](spec.Eps, spec.Capacity, s)
	}
	return runBatch(cfg, tr, spec, build, "quantile")
}

// batchFrequency is a whole-history lossy-counting stream: sorting the
// 1000-value windows does most of the ingest work.
func batchFrequency(cfg runConfig, tr *tracer) (*outcome, error) {
	spec := gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 1e-3, Support: 0.01, Backend: gpustream.BackendSampleSort}
	build := func(s gpustream.Sorter[float32]) gpustream.Estimator[float32] {
		return frequency.NewEstimator[float32](spec.Eps, s)
	}
	return runBatch(cfg, tr, spec, build, "frequency")
}

// batchRun accumulates what every pass of a batch run measured.
type batchRun struct {
	passWall      []float64 // seconds
	ingest, query dist
	quantiles     []quantileAnswer
	heavy         []heavyAnswer
	stats         gpustream.Stats
	entries       []float64
	digest        string
	attempted     int64
	v             verdict
}

// runBatch drives the passes. Untraced passes build the estimator with
// NewFromSpec; traced passes time NewFromSpec under a span but ingest into
// an estimator built by the family's internal constructor on a
// span-recording sorter, which for static samplesort is the program
// NewFromSpec builds (the equal snapshot digests check this).
func runBatch(cfg runConfig, tr *tracer, spec gpustream.Spec, build func(gpustream.Sorter[float32]) gpustream.Estimator[float32], layer string) (*outcome, error) {
	data, free := zipfValues(cfg.seed, batchValues, batchSkew, batchVocab)
	defer free()
	r := &batchRun{}
	setup, err := medianSetup(spec)
	if err != nil {
		return nil, err
	}

	heap := startHeapSampler()
	rt0, cpu0, start := readRuntime(), cpuTime(), time.Now()
	for len(r.passWall) < 2 || time.Since(start).Seconds()+r.passWall[len(r.passWall)-1] <= cfg.seconds.Seconds() {
		if err := r.pass(data, spec, build, tr); err != nil {
			return nil, err
		}
	}
	cpu, rt1 := cpuTime()-cpu0, readRuntime()
	heapMB := heap.stopMB()
	ingested := int64(len(r.passWall)) * batchValues

	o := newOutcome()
	o.attempted, o.verdict = r.attempted, r.v
	m := o.metrics
	m.set("setup_s", setup, "s")
	m.set("values_per_s", batchValues/medianOf(r.passWall), "1/s")
	m.latency("ingest", &r.ingest, "ms", 1)
	m.latency("query", &r.query, "ms", 1)
	m.set("cpu_s_per_mvalue", cpu.Seconds()/(float64(ingested)/1e6), "s")
	m.set("heap_peak_mb", heapMB, "MB")
	o.digests[layer] = r.digest
	o.notes["passes"] = len(r.passWall)
	o.work = medianOf(r.passWall)

	oracle := newPrefixOracle(data, batchVocab)
	if layer == "quantile" {
		oracle.checkQuantiles(&o.verdict, spec.Eps, r.quantiles, layer)
	} else {
		oracle.checkHeavy(&o.verdict, spec.Eps, r.heavy, layer)
	}

	runtimeMetrics(m, rt0, rt1, ingested)
	if tr != nil {
		layerMetrics(tr, m, layer, r, ingested)
	}
	return o, nil
}

// Set-up is timed in setupReps rounds of setupBatch builds, each round
// after a collection; setup_s is the median over rounds of the mean build
// time, which keeps a microsecond-scale constructor steady.
const (
	setupReps  = 21
	setupBatch = 1000
)

// medianSetup reports the median time to build an engine and estimator
// from spec, in seconds.
func medianSetup(spec gpustream.Spec) (float64, error) {
	var ts []float64
	ests := make([]gpustream.Estimator[float32], setupBatch)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := range ests {
			est, err := gpustream.New(spec.Backend).NewFromSpec(spec)
			if err != nil {
				return 0, fmt.Errorf("NewFromSpec: %w", err)
			}
			ests[j] = est
		}
		ts = append(ts, time.Since(t0).Seconds()/setupBatch)
		for _, est := range ests {
			if err := est.Close(); err != nil {
				return 0, err
			}
		}
	}
	return medianOf(ts), nil
}

// pass ingests the whole stream once into a fresh estimator.
func (r *batchRun) pass(data []float32, spec gpustream.Spec, build func(gpustream.Sorter[float32]) gpustream.Estimator[float32], tr *tracer) error {
	id := tr.begin("gpustream.newfromspec", 0)
	est, err := gpustream.New(spec.Backend).NewFromSpec(spec)
	tr.end(id, 0)
	if err != nil {
		return fmt.Errorf("NewFromSpec: %w", err)
	}
	if tr != nil {
		if err := est.Close(); err != nil {
			return err
		}
		est = build(&tracingSorter{inner: samplesort.NewSorter[float32](), tr: tr, attach: true})
	}

	start := time.Now()
	for off := 0; off < len(data); off += batchSize {
		c0 := time.Now()
		id := tr.begin("gpustream.process_slice", 0)
		if tr != nil {
			tr.ingest.Store(id)
		}
		err := est.ProcessSlice(data[off : off+batchSize])
		tr.end(id, batchSize)
		r.ingest.add(time.Since(c0))
		r.attempted++
		if err != nil {
			r.v.fail("ProcessSlice at %d: %v", off, err)
		}
		if (off+batchSize)%probeEvery == 0 {
			r.probe(est, spec, tr)
		}
	}
	id = tr.begin("gpustream.close", 0)
	err = est.Close()
	tr.end(id, 0)
	r.passWall = append(r.passWall, time.Since(start).Seconds())
	r.attempted++
	if err != nil {
		r.v.fail("Close: %v", err)
	}

	snap := est.Snapshot()
	d, err := digest(snap)
	if err != nil {
		return err
	}
	if r.digest != "" && d != r.digest {
		r.v.fail("pass %d ended with different snapshot bytes than pass 1", len(r.passWall))
	}
	r.digest = d
	r.stats.Add(est.Stats())
	r.entries = append(r.entries, float64(snap.Size()))
	return nil
}

// probe takes a snapshot and asks every phi, or the heavy hitters at the
// spec's support, recording the answers for the oracle.
func (r *batchRun) probe(est gpustream.Estimator[float32], spec gpustream.Spec, tr *tracer) {
	q0 := time.Now()
	qid := tr.begin("gpustream.query", 0)
	id := tr.begin("gpustream.snapshot", qid)
	snap := est.Snapshot()
	tr.end(id, 0)
	n := snap.Count()
	if spec.Family.AnswersQuantiles() {
		for _, phi := range probePhis {
			id := tr.begin("gpustream.quantile_call", qid)
			v, ok := snap.Quantile(phi)
			tr.end(id, 0)
			if !ok {
				r.v.fail("Quantile(%v) at n=%d: not ok", phi, n)
				continue
			}
			r.quantiles = append(r.quantiles, quantileAnswer{count: n, phi: phi, value: v})
		}
	} else {
		id := tr.begin("gpustream.heavyhitters_call", qid)
		items, ok := snap.HeavyHitters(spec.Support)
		tr.end(id, 0)
		if !ok {
			r.v.fail("HeavyHitters at n=%d: not ok", n)
		} else {
			r.heavy = append(r.heavy, heavyAnswer{count: n, support: spec.Support, items: items})
		}
	}
	tr.end(qid, 0)
	r.query.add(time.Since(q0))
	r.attempted++
}

// layerMetrics derives the gpustream, samplesort, summary-family and
// pipeline metrics of a batch run from its spans and pipeline stats.
func layerMetrics(tr *tracer, m *metricSet, layer string, r *batchRun, ingested int64) {
	m.set("gpustream.newfromspec_ms", tr.durations("gpustream.newfromspec").median(), "ms")
	m.latency("gpustream.process_slice", tr.durations("gpustream.process_slice"), "us", 1e3)
	m.set("gpustream.close_ms", tr.durations("gpustream.close").median(), "ms")
	m.latency("gpustream.snapshot", tr.durations("gpustream.snapshot"), "us", 1e3)
	if d := tr.durations("gpustream.quantile_call"); d.n() > 0 {
		m.set("gpustream.quantile_call_p50_ms", d.median(), "ms")
	}
	if d := tr.durations("gpustream.heavyhitters_call"); d.n() > 0 {
		m.set("gpustream.heavyhitters_call_p50_ms", d.median(), "ms")
	}
	sortMetrics(tr, ingested, m)

	// Self time of the summary layer: ProcessSlice spans minus the sort
	// spans they caused.
	sorts := tr.childTime("samplesort.sort")
	var self time.Duration
	for _, s := range tr.byName("gpustream.process_slice") {
		self += s.dur() - sorts[s.ID]
	}
	m.set(layer+".self_ns_per_value", float64(self)/float64(ingested), "ns")
	m.set(layer+".summary_entries", medianOf(r.entries), "count")
	pipelineMetrics(m, r.stats)
}

// pipelineMetrics reports the public Stats() split per sorted value.
func pipelineMetrics(m *metricSet, st gpustream.Stats) {
	if st.SortedValues == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(st.SortedValues) }
	m.set("pipeline.windows", float64(st.Windows)/(float64(st.SortedValues)/1e6), "1/Mvalue")
	m.set("pipeline.sort_ns_per_value", per(st.Sort), "ns")
	m.set("pipeline.merge_ns_per_value", per(st.Merge), "ns")
	m.set("pipeline.compress_ns_per_value", per(st.Compress), "ns")
	m.set("pipeline.stall_ns_per_value", per(st.Stall), "ns")
	m.set("pipeline.merge_ops_per_value", float64(st.MergeOps)/float64(st.SortedValues), "count")
	m.set("pipeline.compress_ops_per_value", float64(st.CompressOps)/float64(st.SortedValues), "count")
	if busy := st.Total(); busy > 0 {
		m.set("pipeline.overlap_frac", float64(st.Overlap)/float64(busy), "ratio")
	}
}

// runtimeMetrics reports allocation and GC activity over the measured
// phase. Every run measures them; a traced run reports its untraced
// half's, which the span storage does not inflate.
func runtimeMetrics(m *metricSet, a, b runtimeCounters, ingested int64) {
	mv := float64(ingested) / 1e6
	m.set("runtime.alloc_bytes_per_value", float64(b.allocBytes-a.allocBytes)/float64(ingested), "B")
	m.set("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles)/mv, "1/Mvalue")
	m.set("runtime.gc_pause_ms", (b.pauseNs-a.pauseNs)/1e6/mv, "ms/Mvalue")
}

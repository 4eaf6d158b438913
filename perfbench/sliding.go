package main

import (
	"fmt"
	"sync"
	"time"

	"gpustream"
	"gpustream/internal/samplesort"
	"gpustream/internal/window"
)

// sliding-query: one writer and one querier share a sliding-window quantile
// stream, each on a fixed open-loop schedule. The writer's rate is a small
// share of its closed-loop capacity, so its latency measured from each
// batch's due time shows how much querying slows ingestion. A 3-phi query
// took about 5 s on a quiet 2-vCPU host when the benchmark was defined and
// up to twice that while the host was busy; the querier's interval leaves
// room for most of that, so queries rarely queue behind each other.
const (
	slidingWindow   = 100_000
	slidingBatch    = 1_250
	slidingInterval = 6250 * time.Microsecond // writer: 200k values/s, 3200 batches in 20s
	queryFirst      = 500 * time.Millisecond
	queryInterval   = 9500 * time.Millisecond
)

func slidingQuery(cfg runConfig, tr *tracer) (*outcome, error) {
	spec := gpustream.Spec{Family: gpustream.FamilySlidingQuantile, Eps: 1e-3, Window: slidingWindow, Backend: gpustream.BackendSampleSort}
	batches := int(cfg.seconds / slidingInterval)
	data, free := zipfValues(cfg.seed, batches*slidingBatch, batchSkew, batchVocab)
	defer free()

	setup, err := medianSetup(spec)
	if err != nil {
		return nil, err
	}
	id := tr.begin("gpustream.newfromspec", 0)
	est, err := gpustream.New(spec.Backend).NewFromSpec(spec)
	tr.end(id, 0)
	if err != nil {
		return nil, fmt.Errorf("NewFromSpec: %w", err)
	}
	var sq *window.SlidingQuantile[float32]
	if tr != nil {
		if err := est.Close(); err != nil {
			return nil, err
		}
		// Writer and querier share the sorter, so sort spans carry no
		// parent.
		sq = window.NewSlidingQuantile[float32](spec.Eps, spec.Window, &tracingSorter{inner: samplesort.NewSorter[float32](), tr: tr})
		est = sq
	}

	var (
		ingest, query, lag dist
		lagMu              sync.Mutex
		answers            []quantileAnswer
		attempted          int64
		qAttempted         int64
		v, qv              verdict // the writer's and the querier's failures
		wg                 sync.WaitGroup
	)
	heap := startHeapSampler()
	rt0, cpu0, start := readRuntime(), cpuTime(), time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for due := start.Add(queryFirst); due.Before(start.Add(cfg.seconds)); due = due.Add(queryInterval) {
			time.Sleep(time.Until(due))
			lagMu.Lock()
			lag.add(time.Since(due))
			lagMu.Unlock()
			qid := tr.begin("gpustream.query", 0)
			id := tr.begin("gpustream.snapshot", qid)
			snap := est.Snapshot()
			tr.end(id, 0)
			for _, phi := range probePhis {
				id := tr.begin("gpustream.quantile_call", qid)
				q, ok := snap.Quantile(phi)
				tr.end(id, 0)
				if !ok {
					qv.fail("Quantile(%v) at n=%d: not ok", phi, snap.Count())
					continue
				}
				answers = append(answers, quantileAnswer{count: snap.Count(), phi: phi, value: q})
			}
			tr.end(qid, 0)
			query.add(time.Since(due))
			qAttempted++
		}
	}()
	var end time.Time
	for k := 0; k < batches; k++ {
		due := start.Add(time.Duration(k) * slidingInterval)
		time.Sleep(time.Until(due))
		lagMu.Lock()
		lag.add(time.Since(due))
		lagMu.Unlock()
		id := tr.begin("gpustream.process_slice", 0)
		err := est.ProcessSlice(data[k*slidingBatch : (k+1)*slidingBatch])
		tr.end(id, slidingBatch)
		end = time.Now()
		ingest.add(end.Sub(due))
		attempted++
		if err != nil {
			v.fail("ProcessSlice: %v", err)
		}
	}
	ingestWall := end.Sub(start)
	wg.Wait()
	id = tr.begin("gpustream.close", 0)
	err = est.Close()
	tr.end(id, 0)
	attempted++
	if err != nil {
		v.fail("Close: %v", err)
	}
	cpu, rt1 := cpuTime()-cpu0, readRuntime()
	heapMB := heap.stopMB()

	o := newOutcome()
	o.attempted = attempted + qAttempted
	o.verdict = v
	o.verdict.merge(qv)
	m := o.metrics
	m.set("setup_s", setup, "s")
	m.set("values_per_s", float64(len(data))/ingestWall.Seconds(), "1/s")
	m.latency("ingest", &ingest, "ms", 1)
	m.latency("query", &query, "ms", 1)
	m.set("cpu_s_per_mvalue", cpu.Seconds()/(float64(len(data))/1e6), "s")
	m.set("heap_peak_mb", heapMB, "MB")
	final := est.Snapshot()
	d, err := digest(final)
	if err != nil {
		return nil, err
	}
	o.digests["sliding-quantile"] = d
	// Tracing touches every ingest call and query; their summed busy time
	// is the work the overhead ratio compares.
	var busy float64
	for _, x := range ingest.ms {
		busy += x
	}
	for _, x := range query.ms {
		busy += x
	}
	o.work = busy

	checkWindow(&o.verdict, data, spec.Window, spec.Eps, answers)
	runtimeMetrics(m, rt0, rt1, int64(len(data)))

	if tr != nil {
		ingested := int64(len(data))
		m.set("gpustream.newfromspec_ms", tr.durations("gpustream.newfromspec").median(), "ms")
		m.latency("gpustream.process_slice", tr.durations("gpustream.process_slice"), "us", 1e3)
		m.set("gpustream.close_ms", tr.durations("gpustream.close").median(), "ms")
		m.latency("gpustream.snapshot", tr.durations("gpustream.snapshot"), "us", 1e3)
		m.set("gpustream.quantile_call_p50_ms", tr.durations("gpustream.quantile_call").median(), "ms")
		m.set("window.snapshot_us", tr.durations("gpustream.snapshot").median()*1e3, "us")
		m.set("window.quantile_call_ms", tr.durations("gpustream.quantile_call").median(), "ms")
		m.set("window.panes", float64(sq.Panes()), "count")
		m.set("window.summary_entries", float64(final.Size()), "count")
		sortMetrics(tr, ingested, m)
		pipelineMetrics(m, est.Stats())
		lagTail, info := lag.tail()
		m.set("loadgen.lag_tail_ms", lagTail, "ms")
		m.tails["loadgen.lag_tail_ms"] = info
	}
	return o, nil
}

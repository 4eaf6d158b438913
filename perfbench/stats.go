package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles a *_tail_* metric may report: the
// highest one with at least minBeyond samples above it. A coarse ladder
// keeps the chosen percentile the same from run to run when the sample
// count moves a little.
var tailLadder = []float64{99.9, 99, 90, 50}

const minBeyond = 10

// dist is one latency distribution in milliseconds.
type dist struct{ ms []float64 }

func (d *dist) add(x time.Duration) { d.ms = append(d.ms, float64(x)/1e6) }

func (d *dist) n() int { return len(d.ms) }

func (d *dist) median() float64 { return medianOf(d.ms) }

// tailInfo records which percentile a *_tail_* metric reports and the
// sample count behind it.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// tail reports the highest ladder percentile (nearest rank) with at least
// minBeyond samples above it. With fewer than 2*minBeyond samples no
// percentile qualifies and the maximum is reported as percentile 100.
func (d *dist) tail() (float64, tailInfo) {
	if len(d.ms) == 0 {
		return 0, tailInfo{}
	}
	s := slices.Sorted(slices.Values(d.ms))
	for _, p := range tailLadder {
		i := int(math.Ceil(p/100*float64(len(s)))) - 1
		if len(s)-(i+1) >= minBeyond {
			return s[max(i, 0)], tailInfo{Percentile: p, Samples: len(s)}
		}
	}
	return s[len(s)-1], tailInfo{Percentile: 100, Samples: len(s)}
}

// medianOf reports the median of xs (the mean of the middle pair for an
// even count); zero for none.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuTime reports the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealCounters are the host's cumulative CPU time and the part of it the
// hypervisor gave to other guests, in clock ticks, from /proc/stat.
type stealCounters struct{ total, steal uint64 }

func hostSteal() stealCounters {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealCounters{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var c stealCounters
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// since reports the share of the host's CPU time since a that was stolen:
// wall-clock metrics of a run with a high share read slow, while CPU-time
// and memory metrics stay put.
func (c stealCounters) since(a stealCounters) float64 {
	if c.total <= a.total {
		return 0
	}
	return float64(c.steal-a.steal) / float64(c.total-a.total)
}

// runtimeCounters are the Go runtime's cumulative allocation and GC
// counters, read without stopping the world.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/pauses:seconds"},
}

func readRuntime() runtimeCounters {
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	var rc runtimeCounters
	rc.allocBytes = s[0].Value.Uint64()
	rc.gcCycles = s[1].Value.Uint64()
	// The pause histogram has no exact sum; weight each bucket by its
	// lower bound (upper for the first), which is within a bucket's width.
	h := s[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo := h.Buckets[i]
		if math.IsInf(lo, -1) {
			lo = h.Buckets[i+1]
		}
		rc.pauseNs += float64(c) * lo * 1e9
	}
	return rc
}

// heapSampler samples the heap's object bytes (live and not yet swept)
// every 2ms above a baseline taken after a forced collection. A run-wide
// maximum depends on where single collections land; the 99th percentile
// of the samples is the peak the run held for more than a moment, and
// repeats from run to run.
type heapSampler struct {
	base    uint64
	samples []uint64
	stop    chan struct{}
	done    sync.WaitGroup
}

const heapPercentile = 0.99

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func heapObjects() uint64 {
	s := slices.Clone(heapSample)
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler forces a collection, records the baseline, and samples
// the heap every 2ms until stop.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{base: heapObjects(), samples: make([]uint64, 0, 1<<14), stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.samples = append(h.samples, heapObjects())
			}
		}
	}()
	return h
}

// stopMB stops sampling and reports the 99th-percentile sample above the
// baseline in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	h.samples = append(h.samples, heapObjects())
	slices.Sort(h.samples)
	p := h.samples[int(heapPercentile*float64(len(h.samples)-1))]
	return float64(max(p, h.base)-h.base) / 1e6
}

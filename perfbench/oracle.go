package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"syscall"
	"unsafe"

	"gpustream"
)

// zipfValues generates n zipf-distributed integer identifiers in [0, vocab)
// with exponent s, as float32. Every workload input comes from here, seeded
// from the command line, so the same seed gives the same stream.
//
// The values live outside the Go heap, so heap_peak_mb measures the
// program under test and not the benchmark's copy of its input. Call free
// once nothing reads them.
func zipfValues(seed int64, n int, s float64, vocab int) (values []float32, free func()) {
	mem, err := syscall.Mmap(-1, 0, max(n, 1)*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("map %d input values: %v", n, err))
	}
	out := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), n)
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(vocab-1))
	for i := range out {
		out[i] = float32(z.Uint64())
	}
	return out, func() { _ = syscall.Munmap(mem) }
}

// quantileAnswer is one quantile probe answer over the stream prefix of
// length count.
type quantileAnswer struct {
	count int64
	phi   float64
	value float32
}

// heavyAnswer is one heavy-hitter probe answer over the stream prefix of
// length count.
type heavyAnswer struct {
	count   int64
	support float64
	items   []gpustream.Item[float32]
}

// verdict accumulates a run's failures, operations that errored and
// answers the oracle rejected, with the worst observed error as a share of
// the eps guarantee.
type verdict struct {
	rankErr    float64  // max rank error / (eps·n)
	freqErr    float64  // max undercount / (eps·n)
	ranks      int64    // quantile answers checked
	freqs      int64    // heavy-hitter items checked
	failed     int64    // failed operations
	violations []string // the first few, for the report
}

func (v *verdict) merge(w verdict) {
	v.rankErr = math.Max(v.rankErr, w.rankErr)
	v.freqErr = math.Max(v.freqErr, w.freqErr)
	v.ranks += w.ranks
	v.freqs += w.freqs
	v.failed += w.failed
	v.violations = append(v.violations, w.violations...)
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.violations) < 20 {
		v.violations = append(v.violations, fmt.Sprintf(format, args...))
	}
}

// prefixOracle answers exact rank and count queries over growing prefixes
// of an integer-valued stream with a Fenwick tree over the vocabulary.
type prefixOracle struct {
	data   []float32
	counts []int64
	tree   []int64
	pos    int
}

func newPrefixOracle(data []float32, vocab int) *prefixOracle {
	return &prefixOracle{data: data, counts: make([]int64, vocab), tree: make([]int64, vocab+1)}
}

// advance extends the counted prefix to the first n values.
func (o *prefixOracle) advance(n int64) {
	for ; o.pos < int(n); o.pos++ {
		v := int(o.data[o.pos])
		o.counts[v]++
		for i := v + 1; i < len(o.tree); i += i & -i {
			o.tree[i]++
		}
	}
}

// below counts prefix values < k for integer k.
func (o *prefixOracle) below(k int) int64 {
	k = min(max(k, 0), len(o.counts))
	var s int64
	for i := k; i > 0; i -= i & -i {
		s += o.tree[i]
	}
	return s
}

// rankRange returns the number of counted values < v and <= v.
func (o *prefixOracle) rankRange(v float32) (lt, le int64) {
	f := float64(v)
	if f == math.Trunc(f) {
		return o.below(int(f)), o.below(int(f) + 1)
	}
	lt = o.below(int(math.Floor(f)) + 1)
	return lt, lt
}

// rankError is the distance from the target rank phi·n to the ranks v
// occupies, [lt, le].
func rankError(lt, le int64, phi float64, n int64) float64 {
	r := phi * float64(n)
	return math.Max(0, math.Max(float64(lt)-r, r-float64(le)))
}

// checkQuantiles gates every answer on rank error <= eps·n over its
// prefix. It sorts answers by count and sweeps the prefix once.
func (o *prefixOracle) checkQuantiles(v *verdict, eps float64, answers []quantileAnswer, label string) {
	slices.SortFunc(answers, func(a, b quantileAnswer) int { return int(a.count - b.count) })
	for _, a := range answers {
		if a.count <= 0 || a.count > int64(len(o.data)) {
			v.fail("%s: snapshot count %d outside the %d values sent", label, a.count, len(o.data))
			continue
		}
		o.advance(a.count)
		lt, le := o.rankRange(a.value)
		e := rankError(lt, le, a.phi, a.count)
		bound := eps * float64(a.count)
		v.rankErr = math.Max(v.rankErr, e/bound)
		v.ranks++
		if e > bound {
			v.fail("%s: phi %.3f at n=%d answered %v, rank error %.0f > eps·n %.0f", label, a.phi, a.count, a.value, e, bound)
		}
	}
}

// checkHeavy gates heavy-hitter answers: every value with true count >=
// support·n is reported (recall 1), no reported count exceeds the truth or
// undercounts it by more than eps·n, and nothing below (support-eps)·n is
// reported.
func (o *prefixOracle) checkHeavy(v *verdict, eps float64, answers []heavyAnswer, label string) {
	slices.SortFunc(answers, func(a, b heavyAnswer) int { return int(a.count - b.count) })
	for _, a := range answers {
		if a.count <= 0 || a.count > int64(len(o.data)) {
			v.fail("%s: snapshot count %d outside the %d values sent", label, a.count, len(o.data))
			continue
		}
		o.advance(a.count)
		n := float64(a.count)
		bound := eps * n
		reported := make(map[int]bool, len(a.items))
		for _, it := range a.items {
			k := int(it.Value)
			if float32(k) != it.Value || k < 0 || k >= len(o.counts) {
				v.fail("%s: reported value %v was never sent", label, it.Value)
				continue
			}
			reported[k] = true
			truth := o.counts[k]
			under := float64(truth - it.Freq)
			v.freqErr = math.Max(v.freqErr, under/bound)
			v.freqs++
			switch {
			case it.Freq > truth:
				v.fail("%s: value %d at n=%d counted %d > true %d", label, k, a.count, it.Freq, truth)
			case under > bound:
				v.fail("%s: value %d at n=%d undercounted by %.0f > eps·n %.0f", label, k, a.count, under, bound)
			case float64(truth) < (a.support-eps)*n:
				v.fail("%s: value %d at n=%d reported with true count %d < (s-eps)·n", label, k, a.count, truth)
			}
		}
		for k, c := range o.counts {
			if float64(c) >= a.support*n && !reported[k] {
				v.fail("%s: heavy hitter %d (count %d) missing at n=%d", label, k, c, a.count)
			}
		}
	}
}

// checkWindow gates sliding-window answers on rank error <= eps·W over the
// exact trailing window of the prefix each snapshot covered.
func checkWindow(v *verdict, data []float32, w int, eps float64, answers []quantileAnswer) {
	var sorted []float32
	var at int64 = -1
	bound := eps * float64(w)
	for _, a := range answers {
		if a.count <= 0 || a.count > int64(len(data)) {
			v.fail("sliding: snapshot count %d outside the %d values sent", a.count, len(data))
			continue
		}
		if a.count != at {
			lo := max(a.count-int64(w), 0)
			sorted = append(sorted[:0], data[lo:a.count]...)
			slices.Sort(sorted)
			at = a.count
		}
		lt := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= a.value }))
		le := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > a.value }))
		e := rankError(lt, le, a.phi, int64(len(sorted)))
		v.rankErr = math.Max(v.rankErr, e/bound)
		v.ranks++
		if e > bound {
			v.fail("sliding: phi %.3f at n=%d answered %v, rank error %.0f > eps·W %.0f", a.phi, a.count, a.value, e, bound)
		}
	}
}

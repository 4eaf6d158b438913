// Package window implements the paper's sliding-window variants of the
// epsilon-approximate frequency and quantile queries (Section 5.3): queries
// over the most recent W stream elements, for both fixed-size windows and
// variable-size ("any suffix up to W") queries.
//
// The published text truncates partway through Section 5.3; the
// reconstruction here follows the setup it describes — the stream is cut
// into panes whose per-pane summaries are built by sorting (the GPU-
// accelerated step, identical to the whole-stream algorithms) and a ring of
// recent panes answers queries, with the pane size chosen so that boundary
// quantization and per-pane summarization each cost at most eps*W/2.
// DESIGN.md records this assumption.
//
// Pane buffering, lifecycle, locking, and telemetry come from the shared
// internal/pipeline core (a pane is just a window by another name); this
// file contributes the sort -> histogram -> compress pane sink and the
// pane ring. Queries are safe under concurrent ingestion; Snapshot returns
// an immutable view whose pane histograms are protected from the expiry
// freelist by a copy-on-write mark.
package window

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"gpustream/internal/histogram"
	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
)

// Item is a reported element with its estimated in-window frequency.
type Item[T sorter.Value] = pipeline.Item[T]

// Option configures a sliding estimator (either kind; the knobs tune the
// execution mode, not the summaries).
type Option func(*config)

type config struct {
	async bool
}

// WithAsync enables staged asynchronous ingestion: panes sort on a dedicated
// stage goroutine overlapping the histogram/summary sealing of the previous
// pane. Answers are bit-identical to synchronous mode.
func WithAsync() Option { return func(c *config) { c.async = true } }

// paneSize derives the pane length from eps and W, clamped to [1, W].
func paneSize(eps float64, w int) int {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("window: eps %v out of (0, 1)", eps))
	}
	if w <= 0 {
		panic("window: window size must be positive")
	}
	pane := int(math.Ceil(eps * float64(w) / 2))
	if pane < 1 {
		pane = 1
	}
	if pane > w {
		pane = w
	}
	return pane
}

// freqPane is one completed pane: its filtered histogram and total count.
// shared marks the bins as aliased by a FrequencySnapshot, which excludes
// them from the expiry freelist (copy-on-write: the ring allocates fresh
// storage instead of overwriting what a snapshot still reads).
type freqPane[T sorter.Value] struct {
	bins   []histogram.Bin[T]
	total  int64
	shared bool
}

// SlidingFrequency answers eps-approximate frequency queries over the most
// recent W elements. The stream is split into panes of ceil(eps*W/2)
// elements; each completed pane is sorted, collapsed to a histogram, and
// compressed by dropping bins with count <= eps*pane/2. Estimates are within
// eps*W of the true frequency over the window, with no false negatives at
// support s when querying with threshold (s-eps)*W.
//
// One writer and any number of query goroutines may use the estimator
// concurrently.
type SlidingFrequency[T sorter.Value] struct {
	eps   float64
	w     int
	core  *pipeline.Core[T]
	panes []freqPane[T] // oldest first
	// binScratch is the reusable histogram scratch; binFree recycles the
	// bins storage of expired panes so steady-state panes allocate nothing.
	binScratch []histogram.Bin[T]
	binFree    [][]histogram.Bin[T]
}

// NewSlidingFrequency returns a sliding-window frequency estimator of window
// size w and error eps, sorting panes with s.
func NewSlidingFrequency[T sorter.Value](eps float64, w int, s sorter.Sorter[T], opts ...Option) *SlidingFrequency[T] {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	f := &SlidingFrequency[T]{eps: eps, w: w}
	f.core = pipeline.NewStagedCore(paneSize(eps, w), s, f.sealSorted)
	if cfg.async {
		f.core.StartAsync()
	}
	return f
}

// Eps reports the configured error bound.
func (f *SlidingFrequency[T]) Eps() float64 { return f.eps }

// WindowSize reports W.
func (f *SlidingFrequency[T]) WindowSize() int { return f.w }

// PaneSize reports the pane length.
func (f *SlidingFrequency[T]) PaneSize() int { return f.core.WindowSize() }

// SetTuner installs a runtime controller over the pipeline's sorter knob;
// it must be called before ingestion. Sliding estimators adapt the backend
// only: the pane size is query semantics (it fixes the eps*W error split),
// so the engine configures window tuning off for this family.
func (f *SlidingFrequency[T]) SetTuner(t pipeline.Tuner[T]) { f.core.SetTuner(t) }

// Knobs reports the currently selected sorter and pane size.
func (f *SlidingFrequency[T]) Knobs() (sorter.Sorter[T], int) { return f.core.Tuning() }

// Async reports the commanded execution mode of the pane pipeline.
func (f *SlidingFrequency[T]) Async() bool { return f.core.Async() }

// Count reports the number of elements processed so far (whole stream).
func (f *SlidingFrequency[T]) Count() int64 { return f.core.Count() }

// Stats returns the unified per-stage pipeline telemetry. Safe to call
// mid-ingestion; counters are internally consistent.
func (f *SlidingFrequency[T]) Stats() pipeline.Stats { return f.core.Stats() }

// SortedValues reports how many values have passed through the sorter.
func (f *SlidingFrequency[T]) SortedValues() int64 { return f.core.Stats().SortedValues }

// Panes reports the number of retained panes.
func (f *SlidingFrequency[T]) Panes() int {
	f.core.Lock()
	defer f.core.Unlock()
	f.core.BarrierLocked()
	return len(f.panes)
}

// Process consumes one stream element. After Close it returns an error
// wrapping pipeline.ErrClosed.
func (f *SlidingFrequency[T]) Process(v T) error { return f.core.Process(v) }

// ProcessSlice consumes a batch of elements. After Close it returns an
// error wrapping pipeline.ErrClosed.
func (f *SlidingFrequency[T]) ProcessSlice(data []T) error { return f.core.ProcessSlice(data) }

// Flush seals the buffered partial pane. Queries do not need it — the
// partial pane is always visible — but it makes the state self-contained
// before Close or hand-off.
func (f *SlidingFrequency[T]) Flush() error { return f.core.Flush() }

// Close flushes and releases the pane buffer back to the shared pool. The
// estimator remains queryable; further ingestion reports
// pipeline.ErrClosed. Close is idempotent.
func (f *SlidingFrequency[T]) Close() error { return f.core.Close() }

// sealSorted is the merge-stage half of the pane pipeline: it receives a
// pane the core has already sorted (inline, or on the sort stage goroutine
// in async mode), collapses it to a histogram, compresses it, and expires
// old panes. The core holds the lock around the call in both modes.
func (f *SlidingFrequency[T]) sealSorted(win []T) {
	// The histogram collapse belongs to the paper's sort stage accounting;
	// the values were already counted when the core timed the sort itself.
	t0 := time.Now()
	f.binScratch = histogram.AppendSorted(f.binScratch[:0], win)
	bins := f.binScratch
	f.core.AddSort(time.Since(t0), 0)

	// Compress: drop light bins; each drop undercounts an item by at most
	// eps*pane/2, and with <= 2/eps panes in a window the total stays
	// under eps*W/2.
	t2 := time.Now()
	thresh := int64(f.eps * float64(len(win)) / 2)
	kept := bins[:0]
	var total int64
	for _, b := range bins {
		total += b.Count
		if b.Count > thresh {
			kept = append(kept, b)
		}
	}
	f.core.AddCompress(time.Since(t2), int64(len(bins)))

	// The pane copy reuses storage recycled from expired panes.
	var paneBins []histogram.Bin[T]
	if n := len(f.binFree); n > 0 {
		paneBins = f.binFree[n-1][:0]
		f.binFree = f.binFree[:n-1]
	}
	f.panes = append(f.panes, freqPane[T]{bins: append(paneBins, kept...), total: total})

	// Keep enough panes to cover W elements beyond the buffer. Bins aliased
	// by a snapshot are abandoned to it rather than recycled.
	maxPanes := (f.w + f.core.WindowSizeLocked() - 1) / f.core.WindowSizeLocked()
	if len(f.panes) > maxPanes {
		for _, p := range f.panes[:len(f.panes)-maxPanes] {
			if !p.shared {
				f.binFree = append(f.binFree, p.bins)
			}
		}
		f.panes = f.panes[len(f.panes)-maxPanes:]
	}
}

// foldTree merges parts as a balanced binary tree with the earlier half
// always as operand a. For an associative merge that keeps operand a first
// on ties it equals the left fold merge(...merge(parts[0], parts[1])...,
// parts[n-1]), but it copies each element once per tree level: O(N*log P)
// for N elements over P parts where the left fold copies its growing
// accumulator P times. parts must be non-empty.
func foldTree[S any](parts []S, merge func(a, b S) S) S {
	if len(parts) == 1 {
		return parts[0]
	}
	mid := len(parts) / 2
	return merge(foldTree(parts[:mid], merge), foldTree(parts[mid:], merge))
}

// mergePaneBins combines the newest panes covering at least span elements
// with an already-binned partial pane, returning the merged histogram and
// the element count it represents. Panes are selected newest first and
// merged as a balanced tree (foldTree), in O(N*log P); histogram merges are
// associative, so the result equals a one-pane-at-a-time fold.
// histogram.Merge always writes a fresh output slice, so the inputs are
// never mutated.
func mergePaneBins[T sorter.Value](panes []freqPane[T], partialBins []histogram.Bin[T], partialCount int64, span int) ([]histogram.Bin[T], int64) {
	parts := [][]histogram.Bin[T]{partialBins}
	covered := partialCount
	for i := len(panes) - 1; i >= 0 && covered < int64(span); i-- {
		parts = append(parts, panes[i].bins)
		covered += panes[i].total
	}
	return foldTree(parts, histogram.Merge[T]), covered
}

// heavyFromBins answers the support-s frequency query over a merged
// histogram covering `covered` of the requested w elements.
func heavyFromBins[T sorter.Value](bins []histogram.Bin[T], covered int64, w int, eps, s float64) []Item[T] {
	span := int64(w)
	if covered < span {
		span = covered
	}
	thresh := (s - eps) * float64(span)
	var out []Item[T]
	for _, b := range bins {
		if float64(b.Count) >= thresh {
			out = append(out, Item[T]{Value: b.Value, Freq: b.Count})
		}
	}
	// Values are distinct, so the order is total and any sort agrees.
	slices.SortFunc(out, func(x, y Item[T]) int {
		if c := cmp.Compare(y.Freq, x.Freq); c != 0 {
			return c
		}
		return cmp.Compare(x.Value, y.Value)
	})
	return out
}

// estimateFromBins binary-searches a value-ascending merged histogram for v.
func estimateFromBins[T sorter.Value](bins []histogram.Bin[T], v T) int64 {
	i := sort.Search(len(bins), func(i int) bool { return !(bins[i].Value < v) })
	if i < len(bins) && bins[i].Value == v {
		return bins[i].Count
	}
	return 0
}

// partialBinsLocked sorts a copy of the buffered partial pane into a fresh
// histogram. Caller must hold the core lock.
func (f *SlidingFrequency[T]) partialBinsLocked() []histogram.Bin[T] {
	if f.core.BufferedLocked() == 0 {
		return nil
	}
	tmp := append(f.core.Scratch(f.core.BufferedLocked()), f.core.Partial()...)
	f.core.SorterLocked().Sort(tmp)
	return histogram.FromSorted(tmp)
}

// Query returns the elements whose estimated frequency over the most recent
// W elements is at least (s - eps) * min(W, N), ordered by decreasing
// frequency. Safe under concurrent ingestion.
func (f *SlidingFrequency[T]) Query(s float64) []Item[T] {
	return f.QueryWindow(s, f.w)
}

// QueryWindow answers the variable-size query over the most recent w
// elements, w <= W. Error is bounded by eps*W (absolute, in elements).
// Safe under concurrent ingestion.
//
// Only the pane capture holds the ingest lock; the pane fold runs after it
// is released, and no query time is charged to Stats.
func (f *SlidingFrequency[T]) QueryWindow(s float64, w int) []Item[T] {
	return f.capture().QueryWindow(s, w)
}

// Estimate returns the estimated frequency of v over the most recent W
// elements. Safe under concurrent ingestion; folds outside the ingest lock
// like QueryWindow.
func (f *SlidingFrequency[T]) Estimate(v T) int64 { return f.capture().Estimate(v) }

// FrequencySnapshot is an immutable point-in-time view of a sliding-window
// frequency estimator. It aliases the live pane histograms under the
// copy-on-write discipline (the ring abandons shared bins to the snapshot
// instead of recycling them on expiry), so taking one costs O(partial pane).
// The full-window merged histogram is folded in O(N*log P) on the first
// whole-window query and reused by every later one; narrower QueryWindow
// spans fold their own suffix. A FrequencySnapshot is safe for concurrent
// use and implements pipeline.View.
type FrequencySnapshot[T sorter.Value] struct {
	eps          float64
	w            int
	count        int64
	panes        []freqPane[T] // oldest first; bins shared with the estimator
	partialBins  []histogram.Bin[T]
	partialCount int64

	fullOnce    sync.Once
	fullBins    []histogram.Bin[T] // merged view over all w; set by fullOnce
	fullCovered int64
}

// Snapshot returns an immutable view of the current window state. The view
// answers HeavyHitters/Frequency (and variable-span QueryWindow) queries
// and never sees ingestion that happens after this call.
func (f *SlidingFrequency[T]) Snapshot() pipeline.View[T] { return f.capture() }

// capture takes the snapshot under the ingest lock: it drains in-flight
// panes, bins the partial pane and marks the ring shared, but folds
// nothing.
func (f *SlidingFrequency[T]) capture() *FrequencySnapshot[T] {
	f.core.Lock()
	defer f.core.Unlock()
	// Drain in-flight panes so the ring covers the whole emitted prefix and
	// the sorter is idle for the partial-pane sort.
	f.core.BarrierLocked()
	for i := range f.panes {
		f.panes[i].shared = true
	}
	return &FrequencySnapshot[T]{
		eps:          f.eps,
		w:            f.w,
		count:        f.core.CountLocked(),
		panes:        append([]freqPane[T](nil), f.panes...),
		partialBins:  f.partialBinsLocked(),
		partialCount: int64(f.core.BufferedLocked()),
	}
}

// Count reports the whole-stream length the snapshot was taken at.
func (s *FrequencySnapshot[T]) Count() int64 { return s.count }

// Size reports the retained histogram bins across panes and the partial
// pane.
func (s *FrequencySnapshot[T]) Size() int {
	total := len(s.partialBins)
	for _, p := range s.panes {
		total += len(p.bins)
	}
	return total
}

// Eps reports the snapshot's error bound.
func (s *FrequencySnapshot[T]) Eps() float64 { return s.eps }

// WindowSize reports W.
func (s *FrequencySnapshot[T]) WindowSize() int { return s.w }

// Query answers the support-sp frequency query over the most recent W
// elements as of the snapshot.
func (s *FrequencySnapshot[T]) Query(sp float64) []Item[T] { return s.QueryWindow(sp, s.w) }

// QueryWindow answers the variable-size query over the most recent w
// elements as of the snapshot, w <= W.
func (s *FrequencySnapshot[T]) QueryWindow(sp float64, w int) []Item[T] {
	if sp < 0 || sp > 1 {
		panic(fmt.Sprintf("window: support %v out of [0, 1]", sp))
	}
	if w <= 0 || w > s.w {
		panic(fmt.Sprintf("window: query window %d out of (0, %d]", w, s.w))
	}
	bins, covered := s.merged(w)
	return heavyFromBins(bins, covered, w, s.eps, sp)
}

// merged returns the histogram over the most recent w elements and the
// element count it represents, from the memoized full-window view when w
// is the whole window.
func (s *FrequencySnapshot[T]) merged(w int) ([]histogram.Bin[T], int64) {
	if w != s.w {
		return mergePaneBins(s.panes, s.partialBins, s.partialCount, w)
	}
	s.fullOnce.Do(func() {
		s.fullBins, s.fullCovered = mergePaneBins(s.panes, s.partialBins, s.partialCount, s.w)
	})
	return s.fullBins, s.fullCovered
}

// Estimate returns the estimated frequency of v over the most recent W
// elements as of the snapshot.
func (s *FrequencySnapshot[T]) Estimate(v T) int64 {
	bins, _ := s.merged(s.w)
	return estimateFromBins(bins, v)
}

// Quantile implements pipeline.View; frequency sketches do not answer
// quantile queries.
func (s *FrequencySnapshot[T]) Quantile(float64) (T, bool) { var z T; return z, false }

// HeavyHitters implements pipeline.View.
func (s *FrequencySnapshot[T]) HeavyHitters(support float64) ([]Item[T], bool) {
	return s.Query(support), true
}

// Frequency implements pipeline.View.
func (s *FrequencySnapshot[T]) Frequency(v T) (int64, bool) { return s.Estimate(v), true }

package window

import (
	"fmt"
	"sync"
	"time"

	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/summary"
)

// SlidingQuantile answers eps-approximate quantile queries over the most
// recent W elements. Panes of ceil(eps*W/2) elements are sorted and reduced
// to (eps/2)-approximate GK summaries; a query merges the summaries of the
// panes covering the requested suffix. The merged summary's rank error plus
// the boundary quantization of the oldest pane stays within eps*W.
//
// Pane summaries are immutable once sealed (and may be exposed through
// WindowSummary or a QuantileSnapshot), so unlike SlidingFrequency their
// storage is never recycled on expiry — snapshots alias them for free.
//
// One writer and any number of query goroutines may use the estimator
// concurrently.
type SlidingQuantile[T sorter.Value] struct {
	eps   float64
	w     int
	core  *pipeline.Core[T]
	panes []*summary.Summary[T] // oldest first
}

// NewSlidingQuantile returns a sliding-window quantile estimator of window
// size w and error eps, sorting panes with s.
func NewSlidingQuantile[T sorter.Value](eps float64, w int, s sorter.Sorter[T], opts ...Option) *SlidingQuantile[T] {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	q := &SlidingQuantile[T]{eps: eps, w: w}
	q.core = pipeline.NewStagedCore(paneSize(eps, w), s, q.sealSorted)
	if cfg.async {
		q.core.StartAsync()
	}
	return q
}

// Eps reports the configured error bound.
func (q *SlidingQuantile[T]) Eps() float64 { return q.eps }

// WindowSize reports W.
func (q *SlidingQuantile[T]) WindowSize() int { return q.w }

// PaneSize reports the pane length.
func (q *SlidingQuantile[T]) PaneSize() int { return q.core.WindowSize() }

// SetTuner installs a runtime controller over the pipeline's sorter knob;
// it must be called before ingestion. Sliding estimators adapt the backend
// only: the pane size is query semantics (it fixes the eps*W error split),
// so the engine configures window tuning off for this family.
func (q *SlidingQuantile[T]) SetTuner(t pipeline.Tuner[T]) { q.core.SetTuner(t) }

// Knobs reports the currently selected sorter and pane size.
func (q *SlidingQuantile[T]) Knobs() (sorter.Sorter[T], int) { return q.core.Tuning() }

// Async reports the commanded execution mode of the pane pipeline.
func (q *SlidingQuantile[T]) Async() bool { return q.core.Async() }

// Count reports the number of elements processed so far (whole stream).
func (q *SlidingQuantile[T]) Count() int64 { return q.core.Count() }

// Stats returns the unified per-stage pipeline telemetry. Safe to call
// mid-ingestion; counters are internally consistent.
func (q *SlidingQuantile[T]) Stats() pipeline.Stats { return q.core.Stats() }

// SortedValues reports how many values have passed through the sorter.
func (q *SlidingQuantile[T]) SortedValues() int64 { return q.core.Stats().SortedValues }

// Panes reports the number of retained panes.
func (q *SlidingQuantile[T]) Panes() int {
	q.core.Lock()
	defer q.core.Unlock()
	q.core.BarrierLocked()
	return len(q.panes)
}

// SummaryEntries reports the total retained summary entries, the
// estimator's memory footprint.
func (q *SlidingQuantile[T]) SummaryEntries() int {
	q.core.Lock()
	defer q.core.Unlock()
	q.core.BarrierLocked()
	total := q.core.BufferedLocked()
	for _, p := range q.panes {
		total += p.Size()
	}
	return total
}

// Process consumes one stream element. After Close it returns an error
// wrapping pipeline.ErrClosed.
func (q *SlidingQuantile[T]) Process(v T) error { return q.core.Process(v) }

// ProcessSlice consumes a batch of elements. After Close it returns an
// error wrapping pipeline.ErrClosed.
func (q *SlidingQuantile[T]) ProcessSlice(data []T) error { return q.core.ProcessSlice(data) }

// Flush seals the buffered partial pane. Queries do not need it — the
// partial pane is always visible — but it makes the state self-contained
// before Close or hand-off.
func (q *SlidingQuantile[T]) Flush() error { return q.core.Flush() }

// Close flushes and releases the pane buffer back to the shared pool. The
// estimator remains queryable; further ingestion reports
// pipeline.ErrClosed. Close is idempotent.
func (q *SlidingQuantile[T]) Close() error { return q.core.Close() }

// sealSorted is the merge-stage half of the pane pipeline: it receives a
// pane the core has already sorted (inline, or on the sort stage goroutine
// in async mode), reduces it to a summary, and expires old panes. The core
// holds the lock around the call in both modes.
func (q *SlidingQuantile[T]) sealSorted(win []T) {
	// Summary reduction belongs to the paper's sort stage accounting; the
	// values were already counted when the core timed the sort itself.
	t0 := time.Now()
	s := summary.FromSortedWindow(win, q.eps)
	q.core.AddSort(time.Since(t0), 0)
	q.panes = append(q.panes, s)

	maxPanes := (q.w + q.core.WindowSizeLocked() - 1) / q.core.WindowSizeLocked()
	if len(q.panes) > maxPanes {
		q.panes = q.panes[len(q.panes)-maxPanes:]
	}
}

// mergePaneSummaries merges the newest panes covering span elements with an
// already-summarized partial pane into one queryable summary. It selects
// panes newest first until span elements are covered and merges them as a
// balanced tree (foldTree), so N covered entries over P panes cost
// O(N*log P) rather than the O(P^2*B) of folding B-entry panes one at a
// time into a growing accumulator. The GK merge is associative in both rank
// bounds and keeps operand a first on ties; with the newer half always as
// operand a the result equals the newest-first linear fold entry for
// entry. All inputs are immutable; summary.Merge allocates fresh output.
func mergePaneSummaries[T sorter.Value](panes []*summary.Summary[T], partial *summary.Summary[T], span int) *summary.Summary[T] {
	parts := make([]*summary.Summary[T], 0, len(panes)+1)
	covered := int64(0)
	if partial != nil {
		parts = append(parts, partial)
		covered = partial.N
	}
	for i := len(panes) - 1; i >= 0 && covered < int64(span); i-- {
		parts = append(parts, panes[i])
		covered += panes[i].N
	}
	if len(parts) == 0 {
		return nil
	}
	return foldTree(parts, summary.Merge[T])
}

// partialSummaryLocked summarizes a copy of the buffered partial pane.
// Caller must hold the core lock.
func (q *SlidingQuantile[T]) partialSummaryLocked() *summary.Summary[T] {
	if q.core.BufferedLocked() == 0 {
		return nil
	}
	tmp := append(q.core.Scratch(q.core.BufferedLocked()), q.core.Partial()...)
	q.core.SorterLocked().Sort(tmp)
	return summary.FromSortedWindow(tmp, q.eps)
}

// Query returns an eps-approximate phi-quantile of the most recent W
// elements. It panics if nothing has been processed. Safe under concurrent
// ingestion.
func (q *SlidingQuantile[T]) Query(phi float64) T {
	return q.QueryWindow(phi, q.w)
}

// QueryWindow answers the variable-size query over the most recent w
// elements, w <= W. Rank error is bounded by eps*W (absolute). Safe under
// concurrent ingestion.
//
// Only the pane capture holds the ingest lock; the pane fold runs after
// it is released, and no query time is charged to Stats.
func (q *SlidingQuantile[T]) QueryWindow(phi float64, w int) T {
	return q.capture().QueryWindow(phi, w)
}

// WindowSummary exposes the merged summary over the most recent w
// elements, for validation harnesses. Like QueryWindow it folds the panes
// outside the ingest lock.
func (q *SlidingQuantile[T]) WindowSummary(w int) *summary.Summary[T] {
	return q.capture().merged(w)
}

// QuantileSnapshot is an immutable point-in-time view of a sliding-window
// quantile estimator. Pane summaries are aliased directly — they are never
// mutated or recycled — so taking one costs O(partial pane). The
// full-window merged summary is folded in O(N*log P) on the first
// whole-window query and reused by every later one (each phi of a
// multi-phi query, and cross-process merges); narrower QueryWindow spans
// fold their own suffix. A QuantileSnapshot is safe for concurrent use and
// implements pipeline.View.
type QuantileSnapshot[T sorter.Value] struct {
	eps     float64
	w       int
	count   int64
	panes   []*summary.Summary[T] // oldest first
	partial *summary.Summary[T]   // nil when the pane buffer was empty

	fullOnce sync.Once
	full     *summary.Summary[T] // merged view over all w; set by fullOnce
}

// Snapshot returns an immutable view of the current window state. The view
// answers Quantile (and variable-span QueryWindow) queries and never sees
// ingestion that happens after this call.
func (q *SlidingQuantile[T]) Snapshot() pipeline.View[T] { return q.capture() }

// capture takes the snapshot under the ingest lock: it drains in-flight
// panes and summarizes the partial pane, but folds nothing.
func (q *SlidingQuantile[T]) capture() *QuantileSnapshot[T] {
	q.core.Lock()
	defer q.core.Unlock()
	q.core.BarrierLocked()
	return &QuantileSnapshot[T]{
		eps:     q.eps,
		w:       q.w,
		count:   q.core.CountLocked(),
		panes:   append([]*summary.Summary[T](nil), q.panes...),
		partial: q.partialSummaryLocked(),
	}
}

// Count reports the whole-stream length the snapshot was taken at.
func (s *QuantileSnapshot[T]) Count() int64 { return s.count }

// Size reports the total retained summary entries.
func (s *QuantileSnapshot[T]) Size() int {
	total := 0
	if s.partial != nil {
		total += s.partial.Size()
	}
	for _, p := range s.panes {
		total += p.Size()
	}
	return total
}

// Eps reports the snapshot's error bound.
func (s *QuantileSnapshot[T]) Eps() float64 { return s.eps }

// WindowSize reports W.
func (s *QuantileSnapshot[T]) WindowSize() int { return s.w }

// Query returns an eps-approximate phi-quantile over the most recent W
// elements as of the snapshot. It panics on an empty window (use Quantile
// for the non-panicking form).
func (s *QuantileSnapshot[T]) Query(phi float64) T { return s.QueryWindow(phi, s.w) }

// QueryWindow answers the variable-size query over the most recent w
// elements as of the snapshot, w <= W.
func (s *QuantileSnapshot[T]) QueryWindow(phi float64, w int) T {
	if w <= 0 || w > s.w {
		panic(fmt.Sprintf("window: query window %d out of (0, %d]", w, s.w))
	}
	m := s.merged(w)
	if m == nil || m.N == 0 {
		panic("window: quantile query on empty window")
	}
	return m.Query(phi)
}

// merged returns the summary over the most recent w elements, from the
// memoized full-window view when w is the whole window.
func (s *QuantileSnapshot[T]) merged(w int) *summary.Summary[T] {
	if w != s.w {
		return mergePaneSummaries(s.panes, s.partial, w)
	}
	s.fullOnce.Do(func() { s.full = mergePaneSummaries(s.panes, s.partial, s.w) })
	return s.full
}

// Quantile implements pipeline.View; ok is false on an empty window.
func (s *QuantileSnapshot[T]) Quantile(phi float64) (T, bool) {
	m := s.merged(s.w)
	if m == nil || m.N == 0 {
		var z T
		return z, false
	}
	return m.Query(phi), true
}

// HeavyHitters implements pipeline.View; quantile sketches do not answer
// frequency queries.
func (s *QuantileSnapshot[T]) HeavyHitters(float64) ([]pipeline.Item[T], bool) { return nil, false }

// Frequency implements pipeline.View; quantile sketches do not answer
// point-frequency queries.
func (s *QuantileSnapshot[T]) Frequency(T) (int64, bool) { return 0, false }

package window

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/histogram"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

// linearPaneSummaries is the one-pane-at-a-time fold the balanced tree in
// mergePaneSummaries replaced, kept as its oracle: newest panes first, each
// merged into a growing accumulator as operand b.
func linearPaneSummaries[T sorter.Value](panes []*summary.Summary[T], partial *summary.Summary[T], span int) *summary.Summary[T] {
	acc := partial
	covered := int64(0)
	if acc != nil {
		covered = acc.N
	}
	for i := len(panes) - 1; i >= 0 && covered < int64(span); i-- {
		if acc == nil {
			acc = panes[i]
		} else {
			acc = summary.Merge(acc, panes[i])
		}
		covered += panes[i].N
	}
	return acc
}

// linearPaneBins is the one-pane-at-a-time fold the balanced tree in
// mergePaneBins replaced, kept as its oracle.
func linearPaneBins[T sorter.Value](panes []freqPane[T], partialBins []histogram.Bin[T], partialCount int64, span int) ([]histogram.Bin[T], int64) {
	bins := partialBins
	covered := partialCount
	for i := len(panes) - 1; i >= 0 && covered < int64(span); i-- {
		bins = histogram.Merge(bins, panes[i].bins)
		covered += panes[i].total
	}
	return bins, covered
}

// foldRing is a synthetic pane ring built the way the sliding estimators
// seal panes: sorted, summarized (quantile) or binned and compressed
// (frequency), plus an optional partial pane.
type foldRing[T sorter.Value] struct {
	w            int
	qPanes       []*summary.Summary[T]
	qPartial     *summary.Summary[T]
	fPanes       []freqPane[T]
	partialBins  []histogram.Bin[T]
	partialCount int64
}

type foldCase struct {
	panes   int
	eps     float64 // 1e-3 keeps 50-value panes lossless; 1e-2 makes 500-value panes lossy
	partial bool
	ties    bool // a five-value vocabulary instead of ~2^20 distinct values
}

func (c foldCase) String() string {
	return fmt.Sprintf("P=%d/eps=%g/partial=%v/ties=%v", c.panes, c.eps, c.partial, c.ties)
}

func buildFoldRing[T sorter.Value](c foldCase, seed uint64) foldRing[T] {
	paneLen := paneSize(c.eps, 100_000) // the W=100k pane: 50 or 500 values
	vocab := 1 << 20
	if c.ties {
		vocab = 5
	}
	n := c.panes * paneLen
	if c.partial {
		n += paneLen / 3
	}
	data := stream.UniformIntsOf[T](n, vocab, seed)
	r := foldRing[T]{w: c.panes * paneLen}
	thresh := int64(c.eps * float64(paneLen) / 2)
	for p := 0; p < c.panes; p++ {
		win := data[p*paneLen : (p+1)*paneLen]
		cpusort.QuicksortSorter[T]{}.Sort(win)
		var kept []histogram.Bin[T]
		for _, b := range histogram.FromSorted(win) {
			if b.Count > thresh {
				kept = append(kept, b)
			}
		}
		r.fPanes = append(r.fPanes, freqPane[T]{bins: kept, total: int64(paneLen)})
		r.qPanes = append(r.qPanes, summary.FromSortedWindow(win, c.eps))
	}
	if c.partial {
		win := data[c.panes*paneLen:]
		cpusort.QuicksortSorter[T]{}.Sort(win)
		r.qPartial = summary.FromSortedWindow(win, c.eps)
		r.partialBins = histogram.FromSorted(win)
		r.partialCount = int64(len(win))
	}
	return r
}

// checkFold requires the tree folds to equal the linear oracles exactly for
// every span in spans.
func checkFold[T sorter.Value](t *testing.T, r foldRing[T], spans []int) {
	t.Helper()
	for _, span := range spans {
		if got, want := mergePaneSummaries(r.qPanes, r.qPartial, span), linearPaneSummaries(r.qPanes, r.qPartial, span); !reflect.DeepEqual(got, want) {
			t.Fatalf("span %d: tree-folded summary differs from the linear fold", span)
		}
		gotBins, gotCov := mergePaneBins(r.fPanes, r.partialBins, r.partialCount, span)
		wantBins, wantCov := linearPaneBins(r.fPanes, r.partialBins, r.partialCount, span)
		if gotCov != wantCov || !reflect.DeepEqual(gotBins, wantBins) {
			t.Fatalf("span %d: tree-folded histogram (covered %d) differs from the linear fold (covered %d)", span, gotCov, wantCov)
		}
	}
}

// ringSpans lists the spans to fold over a ring of w elements cut into
// paneLen-element panes: every span for short rings; on long ones every
// 13th span plus each span within one element of a pane boundary, which
// still reaches every pane count the selection can produce.
func ringSpans(w, paneLen int) []int {
	var spans []int
	for span := 1; span <= w; span++ {
		if m := span % paneLen; w <= 500 || span%13 == 1 || m <= 1 || m == paneLen-1 {
			spans = append(spans, span)
		}
	}
	return spans
}

func testFoldEquivalence[T sorter.Value](t *testing.T, large foldCase) {
	seed := uint64(1)
	for _, eps := range []float64{1e-3, 1e-2} {
		for _, panes := range []int{1, 2, 3, 7} {
			for _, partial := range []bool{false, true} {
				for _, ties := range []bool{false, true} {
					c := foldCase{panes: panes, eps: eps, partial: partial, ties: ties}
					seed++
					t.Run(c.String(), func(t *testing.T) {
						r := buildFoldRing[T](c, seed)
						checkFold(t, r, ringSpans(r.w, paneSize(eps, 100_000)))
					})
				}
			}
		}
	}
	// A production-scale ring (W=100k: 2000 lossless panes at eps=1e-3 or
	// 200 lossy ones at eps=1e-2). The linear oracle is quadratic here, so
	// only two unaligned spans are folded: one needing every pane and one
	// needing about half.
	t.Run(large.String(), func(t *testing.T) {
		r := buildFoldRing[T](large, 99)
		checkFold(t, r, []int{r.w - 25, r.w/2 + 17})
	})
}

// TestTreeFoldMatchesLinearFold pins the pane fold's equivalence: the
// balanced-tree pane fold selects the same panes as the linear fold it
// replaced and produces the identical merged summary and histogram, across
// ring sizes, unaligned spans, partial panes, lossless and lossy panes,
// tie-heavy data, and value types.
func TestTreeFoldMatchesLinearFold(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		testFoldEquivalence[float32](t, foldCase{panes: 2000, eps: 1e-3, partial: true})
	})
	t.Run("uint64", func(t *testing.T) {
		testFoldEquivalence[uint64](t, foldCase{panes: 2000, eps: 1e-3, ties: true})
	})
	t.Run("float64", func(t *testing.T) {
		testFoldEquivalence[float64](t, foldCase{panes: 200, eps: 1e-2, partial: true})
	})
}

// TestTreeFoldEmptyRing covers the degenerate inputs: nothing retained, and
// a partial pane alone.
func TestTreeFoldEmptyRing(t *testing.T) {
	if got := mergePaneSummaries[float32](nil, nil, 10); got != nil {
		t.Fatalf("empty ring folded to %v", got)
	}
	if bins, covered := mergePaneBins[float32](nil, nil, 0, 10); bins != nil || covered != 0 {
		t.Fatalf("empty ring folded to %v (covered %d)", bins, covered)
	}
	r := buildFoldRing[float32](foldCase{panes: 0, eps: 1e-2, partial: true}, 3)
	checkFold(t, r, []int{1, 100, 1000})
}

func slidingFixture(t *testing.T) (*SlidingQuantile[float32], *SlidingFrequency[float32]) {
	t.Helper()
	const eps, w = 1e-3, 100_000
	data := stream.Zipf(150_000+123, 1.1, 1<<16, 4)
	q := NewSlidingQuantile(eps, w, cpusort.QuicksortSorter[float32]{})
	f := NewSlidingFrequency(eps, w, cpusort.QuicksortSorter[float32]{})
	if err := q.ProcessSlice(data); err != nil {
		t.Fatal(err)
	}
	if err := f.ProcessSlice(data); err != nil {
		t.Fatal(err)
	}
	return q, f
}

// TestSnapshotMemoizesWindowFold pins that a snapshot folds its full
// window once: after the first whole-window query, later Quantile,
// Frequency and HeavyHitters calls reuse the merged view and allocate
// nothing beyond HeavyHitters' own result slice.
func TestSnapshotMemoizesWindowFold(t *testing.T) {
	q, f := slidingFixture(t)

	qs := q.Snapshot()
	if _, ok := qs.Quantile(0.5); !ok {
		t.Fatal("Quantile not ok on a full window")
	}
	for _, phi := range []float64{0.01, 0.5, 0.99} {
		if a := testing.AllocsPerRun(20, func() { qs.Quantile(phi) }); a != 0 {
			t.Errorf("Quantile(%v) after the first call allocates %v times", phi, a)
		}
	}

	fs := f.Snapshot().(*FrequencySnapshot[float32])
	if _, ok := fs.HeavyHitters(0.01); !ok {
		t.Fatal("HeavyHitters not ok")
	}
	if a := testing.AllocsPerRun(20, func() { fs.Frequency(1) }); a != 0 {
		t.Errorf("Frequency after the first call allocates %v times", a)
	}
	if a := testing.AllocsPerRun(20, func() { fs.HeavyHitters(1) }); a != 0 {
		t.Errorf("empty HeavyHitters after the first call allocates %v times", a)
	}
	result := testing.AllocsPerRun(20, func() { heavyFromBins(fs.fullBins, fs.fullCovered, fs.w, fs.eps, 0.01) })
	if a := testing.AllocsPerRun(20, func() { fs.HeavyHitters(0.01) }); a != result {
		t.Errorf("HeavyHitters after the first call allocates %v times, want only its result's %v", a, result)
	}
}

// TestLiveQueryLeavesIngestStatsAlone pins that live queries fold outside
// the ingest pipeline: none of their work shows up in Stats, whose merge
// counters the adaptive controller reads as ingest critical path.
func TestLiveQueryLeavesIngestStatsAlone(t *testing.T) {
	q, f := slidingFixture(t)
	before := q.Stats()
	q.Query(0.5)
	q.QueryWindow(0.9, 40_000)
	q.WindowSummary(70_000)
	if after := q.Stats(); after != before {
		t.Errorf("SlidingQuantile live query changed Stats:\n before %+v\n after  %+v", before, after)
	}
	before = f.Stats()
	f.Query(0.01)
	f.QueryWindow(0.01, 40_000)
	f.Estimate(1)
	if after := f.Stats(); after != before {
		t.Errorf("SlidingFrequency live query changed Stats:\n before %+v\n after  %+v", before, after)
	}
}

// TestSlidingConcurrentQueryDuringIngest runs a writer beside live and
// snapshot readers on both sliding families (meant for -race): readers
// share one snapshot, so its memoized fold is raced too. After ingestion
// the live answers must equal a serial estimator's.
func TestSlidingConcurrentQueryDuringIngest(t *testing.T) {
	const eps, w, batch = 1e-2, 20_000, 1000
	data := stream.Zipf(200_000, 1.2, 1<<12, 8)
	q := NewSlidingQuantile(eps, w, cpusort.QuicksortSorter[float32]{})
	f := NewSlidingFrequency(eps, w, cpusort.QuicksortSorter[float32]{})
	if err := q.ProcessSlice(data[:w]); err != nil {
		t.Fatal(err)
	}
	if err := f.ProcessSlice(data[:w]); err != nil {
		t.Fatal(err)
	}
	qs, fs := q.Snapshot(), f.Snapshot()
	wantQ, _ := qs.Quantile(0.5)
	wantF, _ := fs.HeavyHitters(0.05)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q.Query(0.5)
				q.QueryWindow(0.25, w/3)
				f.Query(0.05)
				f.Estimate(data[i%len(data)])
				if got, _ := qs.Quantile(0.5); got != wantQ {
					t.Errorf("shared snapshot Quantile changed: %v, want %v", got, wantQ)
				}
				if got, _ := fs.HeavyHitters(0.05); !reflect.DeepEqual(got, wantF) {
					t.Errorf("shared snapshot HeavyHitters changed")
				}
				q.Snapshot().Quantile(0.9)
				f.Snapshot().Frequency(0)
			}
		}()
	}
	for off := w; off < len(data); off += batch {
		if err := q.ProcessSlice(data[off : off+batch]); err != nil {
			t.Error(err)
		}
		if err := f.ProcessSlice(data[off : off+batch]); err != nil {
			t.Error(err)
		}
	}
	close(done)
	readers.Wait()

	sq := NewSlidingQuantile(eps, w, cpusort.QuicksortSorter[float32]{})
	sf := NewSlidingFrequency(eps, w, cpusort.QuicksortSorter[float32]{})
	sq.ProcessSlice(data)
	sf.ProcessSlice(data)
	for _, phi := range []float64{0.1, 0.5, 0.99} {
		if got, want := q.Query(phi), sq.Query(phi); got != want {
			t.Errorf("Query(%v) after concurrent reads = %v, serial %v", phi, got, want)
		}
	}
	if got, want := f.Query(0.02), sf.Query(0.02); !reflect.DeepEqual(got, want) {
		t.Errorf("frequency Query after concurrent reads = %v, serial %v", got, want)
	}
}

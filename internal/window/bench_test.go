package window

import (
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/stream"
)

var benchData = stream.Zipf(1<<16, 1.1, 1<<12, 1)

func BenchmarkSlidingFrequency(b *testing.B) {
	b.SetBytes(int64(len(benchData) * 4))
	for i := 0; i < b.N; i++ {
		f := NewSlidingFrequency(0.01, 1<<14, cpusort.QuicksortSorter[float32]{})
		f.ProcessSlice(benchData)
		_ = f.Query(0.05)
	}
}

func BenchmarkSlidingQuantile(b *testing.B) {
	b.SetBytes(int64(len(benchData) * 4))
	for i := 0; i < b.N; i++ {
		q := NewSlidingQuantile(0.01, 1<<14, cpusort.QuicksortSorter[float32]{})
		q.ProcessSlice(benchData)
		_ = q.Query(0.5)
	}
}

// queryBenchData fills a W=100k, eps=1e-3 window (2000 panes) and leaves a
// partial pane buffered, the geometry of the service's sliding streams.
var queryBenchData = stream.Zipf(150_000+17, 1.1, 1<<16, 3)

const queryBenchEps, queryBenchW = 1e-3, 100_000

// BenchmarkSlidingQuantileQuery measures one multi-phi query as the
// service answers it: a Snapshot, then three phis against it.
func BenchmarkSlidingQuantileQuery(b *testing.B) {
	q := NewSlidingQuantile(queryBenchEps, queryBenchW, cpusort.QuicksortSorter[float32]{})
	q.ProcessSlice(queryBenchData)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := q.Snapshot()
		for _, phi := range []float64{0.5, 0.9, 0.99} {
			if _, ok := snap.Quantile(phi); !ok {
				b.Fatal("empty window")
			}
		}
	}
}

// BenchmarkSlidingFrequencyEstimate measures one live point-frequency
// query over the full window.
func BenchmarkSlidingFrequencyEstimate(b *testing.B) {
	f := NewSlidingFrequency(queryBenchEps, queryBenchW, cpusort.QuicksortSorter[float32]{})
	f.ProcessSlice(queryBenchData)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Estimate(queryBenchData[i%len(queryBenchData)])
	}
}

func BenchmarkCountEH(b *testing.B) {
	r := stream.NewRNG(2)
	bits := make([]bool, 1<<16)
	for i := range bits {
		bits[i] = r.Float64() < 0.5
	}
	b.SetBytes(int64(len(bits)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eh := NewCountEH(1<<12, 8)
		for _, bit := range bits {
			eh.Process(bit)
		}
	}
}

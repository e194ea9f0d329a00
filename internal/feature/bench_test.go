package feature

import (
	"testing"

	"falcon/internal/datagen"
	"falcon/internal/simfn"
	"falcon/internal/table"
)

func benchPairs(a, b *table.Table, n int) []table.Pair {
	pairs := make([]table.Pair, n)
	for i := range pairs {
		pairs[i] = table.Pair{A: (i * 7) % a.Len(), B: (i * 13) % b.Len()}
	}
	return pairs
}

// BenchmarkVectorize measures blocking-vector throughput per tuple pair on
// the bit-parallel default versus the sorted-merge ID baseline and the
// retired string path.
func BenchmarkVectorize(b *testing.B) {
	ds := datagen.Products(0.05, 5)
	set := Generate(ds.A, ds.B)
	pairs := benchPairs(ds.A, ds.B, 1024)
	for _, mode := range []struct {
		name      string
		reference bool
		idsOnly   bool
	}{{"reference", true, false}, {"ids", false, true}, {"bitparallel", false, false}} {
		b.Run(mode.name, func(b *testing.B) {
			vz := NewVectorizer(set, ds.A, ds.B)
			vz.Reference = mode.reference
			vz.IDsOnly = mode.idsOnly
			vz.Warm()
			vz.BlockingVector(pairs[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vz.BlockingVector(pairs[i%len(pairs)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// TestBlockingVectorScratchAllocs pins the hot path's allocation budget:
// after Warm, computing a blocking vector with caller-held scratch performs
// exactly one allocation — the returned Values slice.
func TestBlockingVectorScratchAllocs(t *testing.T) {
	ds := datagen.Products(0.02, 7)
	set := Generate(ds.A, ds.B)
	vz := NewVectorizer(set, ds.A, ds.B)
	vz.Warm()
	s := simfn.GetScratch()
	defer simfn.PutScratch(s)
	pairs := benchPairs(ds.A, ds.B, 16)
	// Warm-up pass grows the scratch buffers to steady state.
	for _, p := range pairs {
		vz.BlockingVectorScratch(p, s)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		vz.BlockingVectorScratch(pairs[i%len(pairs)], s)
		i++
	})
	if allocs > 1 {
		t.Fatalf("BlockingVectorScratch allocates %.1f objects/op after warm-up, want <= 1", allocs)
	}
}

// TestBlockingVectorAllocs sanity-checks the pooled wrapper: the scratch
// pool keeps the DP buffers out of steady-state allocation, so the wrapper
// stays within a few objects per call.
func TestBlockingVectorAllocs(t *testing.T) {
	ds := datagen.Products(0.02, 7)
	set := Generate(ds.A, ds.B)
	vz := NewVectorizer(set, ds.A, ds.B)
	vz.Warm()
	pairs := benchPairs(ds.A, ds.B, 16)
	for _, p := range pairs {
		vz.BlockingVector(p)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		vz.BlockingVector(pairs[i%len(pairs)])
		i++
	})
	if allocs > 4 {
		t.Fatalf("BlockingVector allocates %.1f objects/op after warm-up, want <= 4", allocs)
	}
}

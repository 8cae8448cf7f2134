package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketsAreContiguous(t *testing.T) {
	for i := 1; i < nBuckets; i++ {
		lo, w := bucketBounds(i - 1)
		next, _ := bucketBounds(i)
		if lo+w != next {
			t.Fatalf("bucket %d ends at %d, bucket %d starts at %d", i-1, lo+w, i, next)
		}
	}
	for _, v := range []uint64{0, 1, 255, 256, 257, 1000, 123456, 1 << 30, 1<<40 + 12345} {
		lo, w := bucketBounds(bucketOf(v))
		if v < lo || v >= lo+w {
			t.Fatalf("value %d outside its bucket [%d, %d)", v, lo, lo+w)
		}
	}
}

// TestQuantileMatchesExactSort draws latency-like samples from several
// distributions and checks every reported quantile against the sorted
// samples: the estimate must sit within one bucket width (1/128 of the
// value) of the exact order statistic.
func TestQuantileMatchesExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draws := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(rng.Intn(1_000_000)) },
		"lognormal": func() uint64 { return uint64(math.Exp(rng.NormFloat64()*1.5 + 10)) },
		"bimodal": func() uint64 {
			if rng.Intn(10) == 0 {
				return uint64(5_000_000 + rng.Intn(1000))
			}
			return uint64(20_000 + rng.Intn(5000))
		},
		"tiny": func() uint64 { return uint64(rng.Intn(300)) },
	}
	for name, draw := range draws {
		for _, n := range []int{1, 2, 17, 1000, 100_000} {
			var h hist
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = draw()
				h.record(vals[i])
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
				exact := float64(vals[int(q*float64(n-1))])
				got := h.quantile(q)
				if tol := exact/subBuckets + 1; math.Abs(got-exact) > tol {
					t.Errorf("%s n=%d q=%.2f: histogram %.1f, exact %.1f (tolerance %.1f)", name, n, q, got, exact, tol)
				}
			}
		}
	}
}

func TestMergeAddsCounts(t *testing.T) {
	var a, b hist
	for i := uint64(1); i <= 100; i++ {
		a.record(i)
		b.record(i + 100)
	}
	a.merge(&b)
	if a.n != 200 {
		t.Fatalf("merged count %d, want 200", a.n)
	}
	if got := a.quantile(0.5); got < 99 || got > 102 {
		t.Fatalf("merged median %.1f, want about 100", got)
	}
}

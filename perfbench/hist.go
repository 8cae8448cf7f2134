package main

import (
	"math"
	"math/bits"
)

// The latency histogram: log-linear buckets with 128 linear
// sub-buckets per power of two, so any recorded value lands in a
// bucket no wider than 1/128 of its lower bound. It is a fixed-size
// array: recording allocates nothing, so the heap metrics of a run
// count only the program under test.

const (
	subBits    = 7
	subBuckets = 1 << subBits
	// maxExp covers values up to 2^41 ns (about 36 minutes).
	maxExp   = 41 - subBits
	nBuckets = (maxExp + 2) * subBuckets
)

type hist struct {
	counts [nBuckets]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 2*subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	if e > maxExp {
		return nBuckets - 1
	}
	return e*subBuckets + int(v>>uint(e))
}

// bucketBounds returns the lowest value of bucket i and its width.
func bucketBounds(i int) (low, width uint64) {
	if i < 2*subBuckets {
		return uint64(i), 1
	}
	e := uint(i/subBuckets - 1)
	m := uint64(i - int(e)*subBuckets)
	return m << e, 1 << e
}

func (h *hist) record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) of the recorded values:
// the value of rank floor(q*(n-1)) in the sorted samples, up to the
// width of the bucket that holds it. Inside that bucket the samples
// are taken as evenly spread. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := math.Floor(q * float64(h.n-1))
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			low, width := bucketBounds(i)
			frac := (rank - cum + 0.5) / float64(c)
			return float64(low) + frac*float64(width)
		}
		cum += float64(c)
	}
	low, width := bucketBounds(nBuckets - 1)
	return float64(low + width)
}

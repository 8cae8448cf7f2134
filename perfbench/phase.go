package main

import (
	"runtime"
	"time"
)

// meter is a snapshot of the process-wide costs a timed phase is
// charged with: CPU time, heap allocations and garbage collection.
type meter struct {
	cpu     time.Duration
	mallocs uint64
	numGC   uint64
	pauseNs uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: cpuTime(), mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

func (m *meter) addDelta(from, to meter) {
	m.cpu += to.cpu - from.cpu
	m.mallocs += to.mallocs - from.mallocs
	m.numGC += to.numGC - from.numGC
	m.pauseNs += to.pauseNs - from.pauseNs
}

func (m *meter) sub(o meter) {
	m.cpu -= o.cpu
	m.mallocs -= o.mallocs
	m.numGC -= o.numGC
	m.pauseNs -= o.pauseNs
}

// phase accumulates one timed phase: latencies of the operations that
// succeeded, counts of all attempted and failed, the throughput sample
// and the process-wide costs.
type phase struct {
	lat       [nOps]hist
	counts    opCounts
	completed uint64
	// rateOps operations completed in wall: the whole phase in-process;
	// for the daemons, until the first client ends its last round, so a
	// lone client finishing its round does not count.
	rateOps uint64
	wall    time.Duration
	// chunkRates, where set (lib_place), are the throughputs of the
	// phase's chunks; ops_per_s is then their median.
	chunkRates []float64
	cost       meter
	// liveHeap is read after a forced collection at a fixed amount of
	// work: the end of the last lib_place round, or each daemon
	// client's heapRound-th round.
	liveHeap uint64
	liveBufs int
}

func (p *phase) merge(o *phase) {
	for i := range p.lat {
		p.lat[i].merge(&o.lat[i])
	}
	p.counts.add(&o.counts)
	p.completed += o.completed
}

// liveHeapNow forces a collection and reads the bytes still live.
func liveHeapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// opsPerSec is completed operations over the wall time they took, or
// the median chunk's.
func (p *phase) opsPerSec() float64 {
	if len(p.chunkRates) > 0 {
		return median(p.chunkRates)
	}
	if p.wall <= 0 {
		return 0
	}
	return float64(p.rateOps) / p.wall.Seconds()
}

// e2e fills the end-to-end metrics from a phase and the set-up times.
func (p *phase) e2e(rep *report, setups []float64) {
	us := func(k opKind, q float64) float64 { return p.lat[k].quantile(q) / 1e3 }
	ops := float64(p.completed)
	if ops == 0 {
		ops = 1
	}
	rep.metrics["ops_per_s"] = p.opsPerSec()
	rep.metrics["alloc_p50_us"] = us(opAlloc, 0.5)
	rep.metrics["alloc_p90_us"] = us(opAlloc, 0.9)
	rep.metrics["free_p50_us"] = us(opFree, 0.5)
	rep.metrics["migrate_p50_us"] = us(opMigrate, 0.5)
	rep.metrics["cpu_us_per_op"] = float64(p.cost.cpu.Microseconds()) / ops
	rep.metrics["heap_allocs_per_op"] = float64(p.cost.mallocs) / ops
	rep.metrics["live_heap_mb"] = float64(p.liveHeap) / 1e6
	rep.metrics["setup_s"] = median(setups)
}

// layerCosts fills the per-layer metrics every workload reports from
// its untraced phase: GC work per thousand operations and live heap
// per live lease.
func (p *phase) layerCosts(rep *report) {
	kops := float64(p.completed) / 1e3
	if kops == 0 {
		kops = 1
	}
	rep.metrics["gc.cycles_per_kop"] = float64(p.cost.numGC) / kops
	rep.metrics["gc.pause_us_per_kop"] = float64(p.cost.pauseNs) / 1e3 / kops
	if p.liveBufs > 0 {
		rep.metrics["heap.bytes_per_lease"] = float64(p.liveHeap) / float64(p.liveBufs)
	}
}

// overhead reports the traced phase's throughput loss, in percent,
// against the mean of an untraced phase run before it and one run
// after it on the same inputs, so that drift over the run cancels.
func overhead(rep *report, before, traced, after *phase) {
	u := (before.opsPerSec() + after.opsPerSec()) / 2
	if u > 0 {
		rep.metrics["trace.overhead_pct"] = (u - traced.opsPerSec()) / u * 100
	}
}

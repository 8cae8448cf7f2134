package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"hetmem/internal/alloc"
	"hetmem/internal/bitmap"
	"hetmem/internal/core"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
)

// lib_place: one goroutine calls the paper's in-process API —
// Allocator.AllocSpec, MigrateToBestSpec and Machine.Free — on
// knl-snc4-flat. No daemon: placement (ranking, the candidate cache,
// memsim's capacity accounting) is most of the work.
//
// Each cluster holds a resident set that asks for more than the
// cluster has: 24 large Capacity/Latency buffers (24 GiB against 24 GiB
// of DRAM), 1024 medium Bandwidth buffers (6 GiB against 4 GiB of
// MCDRAM) and 1024 small ones of every attribute. The generator trims a
// draw to what the cluster has left, so both kinds stay full. An
// iteration frees a random slot and allocates its replacement (partial
// splits allowed); every 8th also migrates a random buffer to a random
// attribute. A medium buffer that finds MCDRAM full falls back to DRAM,
// and one that fits on no node whole is split: about 14% of
// allocations fall back and 3% split. Slots are drawn uniformly, so
// every buffer is as likely to be warm in the cache when it is freed.
// The generator runs the model ahead of the program, so every
// decision, fallback and split is predicted exactly, and no operation
// fails.
//
// memsim.Machine keeps every buffer it ever placed, freed or not, so a
// machine's memory grows with each allocation. The run therefore works
// in rounds: each starts a fresh system and places the resident set
// (the set-up, timed as setup_s), then runs a fixed number of
// iterations.

const libPlatform = "knl-snc4-flat"

type libClass struct {
	name     string
	perClust int
	lo, hi   uint64
	attrs    []int
	logSize  bool
}

var libClasses = []libClass{
	{"large", 24, 3 << 28, 5 << 28, []int{attrCapacity, attrLatency}, false},
	{"medium", 1024, 2 << 20, 10 << 20, []int{attrBandwidth}, false},
	{"small", 1024, 4 << 10, 2 << 20, []int{attrBandwidth, attrLatency, attrCapacity}, true},
}

type libSlot struct {
	class, cluster int
	ini, attr      int
	mb             mbuf
}

type libOp struct {
	kind      opKind
	class     int8
	slot      int32
	attr, ini int16
	size      uint64
	wantOS    int16
	wantRank  int16
	wantSplit bool
	gotOS     int16
	gotRank   int16
	gotSplit  bool
	failed    bool
}

type libGen struct {
	rng   *rand.Rand
	model *placeModel
	slots []libSlot
}

func libInitiators() []string {
	var inis []string
	for c := 0; c < 64; c++ {
		inis = append(inis, strconv.Itoa(c))
	}
	for g := 0; g < 4; g++ {
		inis = append(inis, fmt.Sprintf("%d-%d", g*16, g*16+15))
	}
	return inis
}

func (g *libGen) drawIni(cluster int) int {
	if g.rng.Intn(2) == 0 {
		return 64 + cluster
	}
	return cluster*16 + g.rng.Intn(16)
}

// draw picks a replacement for a slot and books it in the model.
func (g *libGen) draw(j int) libOp {
	s := &g.slots[j]
	c := libClasses[s.class]
	s.attr = c.attrs[g.rng.Intn(len(c.attrs))]
	s.ini = g.drawIni(s.cluster)
	var size uint64
	if c.logSize {
		size = logUniform(g.rng, c.lo, c.hi)
	} else {
		size = c.lo + uint64(g.rng.Int63n(int64(c.hi-c.lo)))
	}
	if room := g.model.clusterAvail(s.ini); size+1<<20 > room {
		size = room - 1<<20
	}
	mb, rank, split, ok := g.model.alloc(size, s.attr, s.ini, true)
	if !ok {
		panic(fmt.Sprintf("lib_place generator: %d bytes do not fit cluster %d", size, s.cluster))
	}
	s.mb = mb
	return libOp{kind: opAlloc, class: int8(s.class), slot: int32(j), attr: int16(s.attr), ini: int16(s.ini), size: size,
		wantOS: int16(mb.segs[0].node.os), wantRank: int16(rank), wantSplit: split}
}

// resident generates a round's resident set from scratch.
func (g *libGen) resident(ops []libOp) []libOp {
	m, err := newPlaceModel(libPlatform, libInitiators())
	if err != nil {
		panic(err)
	}
	g.model = m
	g.slots = g.slots[:0]
	for ci, c := range libClasses {
		for cl := 0; cl < 4; cl++ {
			for i := 0; i < c.perClust; i++ {
				g.slots = append(g.slots, libSlot{class: ci, cluster: cl})
			}
		}
	}
	g.rng.Shuffle(len(g.slots), func(i, j int) { g.slots[i], g.slots[j] = g.slots[j], g.slots[i] })
	ops = ops[:0]
	for j := range g.slots {
		ops = append(ops, g.draw(j))
	}
	return ops
}

// chunk generates n iterations of churn.
func (g *libGen) chunk(ops []libOp, n, iter int) []libOp {
	ops = ops[:0]
	for it := 0; it < n; it++ {
		j := g.rng.Intn(len(g.slots))
		ops = append(ops, libOp{kind: opFree, slot: int32(j)})
		g.model.free(&g.slots[j].mb)
		ops = append(ops, g.draw(j))
		if (iter+it+1)%8 != 0 {
			continue
		}
		k, a := g.rng.Intn(len(g.slots)), g.rng.Intn(nAttrs)
		for tries := 0; tries < len(g.slots); tries++ {
			s := &g.slots[k]
			if n, rank, ok := g.model.migrate(&s.mb, a, s.ini); ok {
				ops = append(ops, libOp{kind: opMigrate, slot: int32(k), attr: int16(a), ini: int16(s.ini),
					wantOS: int16(n.os), wantRank: int16(rank)})
				break
			}
			k = (k + 1) % len(g.slots)
		}
	}
	return ops
}

// libExec runs generated operations against one system.
type libExec struct {
	sys  *core.System
	inis []*bitmap.Bitmap
	bufs []*memsim.Buffer
	rec  *recorder
}

var libAttrIDs = [nAttrs]memattr.ID{memattr.Bandwidth, memattr.Latency, memattr.Capacity}

func (x *libExec) exec(ops []libOp, p *phase) {
	a, m := x.sys.Allocator, x.sys.Machine
	for i := range ops {
		op := &ops[i]
		var start time.Time
		var rs int64
		if x.rec != nil {
			rs = x.rec.now()
		} else {
			start = time.Now()
		}
		var dec alloc.Decision
		var err error
		switch op.kind {
		case opFree:
			err = m.Free(x.bufs[op.slot])
		case opAlloc:
			var b *memsim.Buffer
			b, dec, err = a.AllocSpec(libClasses[op.class].name, op.size, libAttrIDs[op.attr], x.inis[op.ini], alloc.Spec{Partial: true})
			x.bufs[op.slot] = b
		case opMigrate:
			_, dec, err = a.MigrateToBestSpec(x.bufs[op.slot], libAttrIDs[op.attr], x.inis[op.ini], alloc.Spec{})
		}
		var d int64
		if x.rec != nil {
			re := x.rec.now()
			d = re - rs
			x.rec.add(span{start: rs, end: re, key: uint64(i), layer: layerPlacement, op: uint8(op.kind)})
		} else {
			d = int64(time.Since(start))
		}
		if p != nil {
			p.counts.attempted[op.kind]++
		}
		if err != nil {
			op.failed = true
			if p != nil {
				p.counts.failed[op.kind]++
			}
			continue
		}
		if p != nil {
			p.lat[op.kind].record(uint64(d))
			p.completed++
		}
		if dec.Target != nil {
			op.gotOS, op.gotRank, op.gotSplit = int16(dec.Target.OSIndex), int16(dec.RankPosition), dec.Partial
		}
	}
}

func (x *libExec) check(rep *report, ops []libOp, what string) {
	for i := range ops {
		op := &ops[i]
		if op.failed {
			rep.failf("lib_place %s: %s of slot %d failed", what, opNames[op.kind], op.slot)
			continue
		}
		if op.kind == opFree {
			continue
		}
		if op.gotOS != op.wantOS || op.gotRank != op.wantRank || op.gotSplit != op.wantSplit {
			rep.failf("lib_place %s: %s of %d bytes (%s) placed on node %d rank %d split %v, model says node %d rank %d split %v",
				what, opNames[op.kind], op.size, attrNames[op.attr], op.gotOS, op.gotRank, op.gotSplit, op.wantOS, op.wantRank, op.wantSplit)
		}
	}
}

// checkTally compares the machine's per-node bytes with the model's.
func (x *libExec) checkTally(rep *report, m *placeModel) {
	for _, n := range m.nodes {
		if got := x.sys.Machine.NodeByOS(n.os).Allocated(); got != n.used {
			rep.failf("lib_place: %s holds %d bytes, model tally %d", n.label, got, n.used)
		}
	}
}

// libStats collects the decision shares of a phase.
type libStats struct {
	allocs, fallbacks, splits uint64
	hits, lookups             uint64
}

func (s *libStats) add(ops []libOp) {
	for i := range ops {
		if ops[i].kind == opAlloc && !ops[i].failed {
			s.allocs++
			if ops[i].gotRank > 0 {
				s.fallbacks++
			}
			if ops[i].gotSplit {
				s.splits++
			}
		}
	}
}

// libPhase runs whole rounds until the timed work reaches seconds. The
// timed work is the execution of the churn: generating it, checking
// it and each round's set-up are left out of the phase's wall time.
// Each chunk's throughput is kept: on a shared host the hypervisor
// steals the CPU in bursts that land on some chunks, so the median
// chunk follows the program where the whole-phase ratio follows the
// host.
func libPhase(o runOpts, rep *report, g *libGen, rec *recorder, st *libStats) (*phase, []float64, error) {
	iters, chunkLen := 50_000, 2048
	if o.small {
		iters, chunkLen = 4096, 1024
	}
	p := &phase{}
	var setups []float64
	ops := make([]libOp, 0, chunkLen*3)
	inis := libInitiators()
	bms := make([]*bitmap.Bitmap, len(inis))
	for i, s := range inis {
		bms[i], _ = bitmap.ParseList(s)
	}
	var x *libExec
	for round := 0; p.wall.Seconds() < o.seconds || round == 0; round++ {
		ops = g.resident(ops)
		t0 := time.Now()
		sys, err := core.NewSystem(libPlatform, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		x = &libExec{sys: sys, inis: bms, bufs: make([]*memsim.Buffer, len(g.slots))}
		x.exec(ops, nil)
		setups = append(setups, time.Since(t0).Seconds())
		x.check(rep, ops, "resident set")
		x.rec = rec
		hits0, misses0 := sys.Allocator.CacheStats()

		for done := 0; done < iters; done += chunkLen {
			ops = g.chunk(ops, chunkLen, done)
			m0 := readMeter()
			c0, n0 := time.Now(), p.completed
			x.exec(ops, p)
			d := time.Since(c0)
			p.wall += d
			p.cost.addDelta(m0, readMeter())
			p.chunkRates = append(p.chunkRates, float64(p.completed-n0)/d.Seconds())
			x.check(rep, ops, "churn")
			if st != nil {
				st.add(ops)
			}
		}
		x.checkTally(rep, g.model)
		if st != nil {
			hits, misses := sys.Allocator.CacheStats()
			st.hits += hits - hits0
			st.lookups += hits - hits0 + misses - misses0
		}
	}
	p.rateOps = p.completed
	p.liveHeap = liveHeapNow()
	p.liveBufs = len(x.bufs)
	return p, setups, nil
}

func runLibPlace(o runOpts) (*report, error) {
	rep := newReport()
	g := &libGen{rng: newRand(o.seed)}
	p, setups, err := libPhase(o, rep, g, nil, nil)
	if err != nil {
		return nil, err
	}
	rep.counts = p.counts
	if !o.trace {
		p.e2e(rep, setups)
		return rep, nil
	}
	p.layerCosts(rep)
	// The traced phase and a second untraced one replay the same
	// stream from the same seed.
	rec := newRecorder(1 << 16)
	var st libStats
	tp, _, err := libPhase(o, rep, &libGen{rng: newRand(o.seed)}, rec, &st)
	if err != nil {
		return nil, err
	}
	p3, _, err := libPhase(o, rep, &libGen{rng: newRand(o.seed)}, nil, nil)
	if err != nil {
		return nil, err
	}
	rep.counts.add(&tp.counts)
	rep.counts.add(&p3.counts)
	overhead(rep, p, tp, p3)
	var byOp [nOps]hist
	for _, s := range rec.spans[:rec.count()] {
		byOp[s.op].record(uint64(s.end - s.start))
	}
	rep.metrics["placement.alloc_ns"] = byOp[opAlloc].quantile(0.5)
	rep.metrics["placement.free_ns"] = byOp[opFree].quantile(0.5)
	rep.metrics["placement.migrate_ns"] = byOp[opMigrate].quantile(0.5)
	if st.lookups > 0 {
		rep.metrics["placement.cache_hit_rate"] = float64(st.hits) / float64(st.lookups)
	}
	if st.allocs > 0 {
		rep.metrics["placement.fallback_rate"] = float64(st.fallbacks) / float64(st.allocs)
		rep.metrics["placement.partial_rate"] = float64(st.splits) / float64(st.allocs)
	}
	return rep, nil
}

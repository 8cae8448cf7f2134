package main

import (
	"strconv"
	"testing"

	"hetmem/internal/alloc"
	"hetmem/internal/bitmap"
	"hetmem/internal/core"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
)

const gib = uint64(1) << 30

func mustModel(t *testing.T, plat string, inis ...string) *placeModel {
	t.Helper()
	m, err := newPlaceModel(plat, inis)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Hand-worked: on knl-snc4-flat, Bandwidth from cores 0-15 goes to the
// cluster's MCDRAM#4 (4 GiB) until it is full, then to DRAM#0 (rank 1);
// a buffer bigger than what is left on either node is split.
func TestModelKNLBandwidthFillsMCDRAMThenDRAM(t *testing.T) {
	m := mustModel(t, "knl-snc4-flat", "0-15", "5")
	for ini := range m.inis {
		if got := m.best(attrBandwidth, ini).label; got != "MCDRAM#4" {
			t.Fatalf("Bandwidth from %s: best %s, want MCDRAM#4", m.inis[ini], got)
		}
	}
	b, rank, split, ok := m.alloc(3*gib, attrBandwidth, 0, false)
	if !ok || rank != 0 || split || b.segs[0].node.label != "MCDRAM#4" {
		t.Fatalf("first 3 GiB: %+v rank %d split %v ok %v", b.segs[0], rank, split, ok)
	}
	b, rank, _, ok = m.alloc(2*gib, attrBandwidth, 1, false)
	if !ok || rank != 1 || b.segs[0].node.label != "DRAM#0" {
		t.Fatalf("2 GiB with 1 GiB of MCDRAM left: %s rank %d, want DRAM#0 rank 1", b.segs[0].node.label, rank)
	}
	// Fill DRAM#0 to 0.5 GiB short of full: MCDRAM#4 has 1 GiB left.
	if _, _, _, ok := m.alloc(24*gib-2*gib-gib/2, attrCapacity, 0, false); !ok {
		t.Fatal("filling DRAM#0 failed")
	}
	if _, _, _, ok := m.alloc(gib+gib/4, attrBandwidth, 0, false); ok {
		t.Fatal("1.25 GiB fits no single node; without partial it must fail")
	}
	b, rank, split, ok = m.alloc(gib+gib/4, attrBandwidth, 0, true)
	if !ok || !split || rank != 0 || b.n != 2 {
		t.Fatalf("partial 1.25 GiB: ok %v split %v rank %d segs %d", ok, split, rank, b.n)
	}
	if b.segs[0].node.label != "MCDRAM#4" || b.segs[0].bytes != gib || b.segs[1].node.label != "DRAM#0" || b.segs[1].bytes != gib/4 {
		t.Fatalf("split %s:%d + %s:%d, want MCDRAM#4:1GiB + DRAM#0:0.25GiB",
			b.segs[0].node.label, b.segs[0].bytes, b.segs[1].node.label, b.segs[1].bytes)
	}
}

// Hand-worked: on knl, Latency and Capacity prefer the cluster's DRAM;
// on xeon, Bandwidth and Latency prefer the package's DRAM and Capacity
// its NVDIMM, from a single core as from the whole package.
func TestModelHandWorkedRankings(t *testing.T) {
	knl := mustModel(t, "knl-snc4-flat", "16-31", "40")
	for _, c := range []struct {
		attr, ini int
		want      string
	}{
		{attrLatency, 0, "DRAM#1"}, {attrCapacity, 0, "DRAM#1"}, {attrBandwidth, 0, "MCDRAM#5"},
		{attrLatency, 1, "DRAM#2"}, {attrBandwidth, 1, "MCDRAM#6"},
	} {
		if got := knl.best(c.attr, c.ini).label; got != c.want {
			t.Errorf("knl %s from %s: %s, want %s", attrNames[c.attr], knl.inis[c.ini], got, c.want)
		}
	}
	xeon := mustModel(t, "xeon", "0-19", "7", "20-39", "33")
	for _, c := range []struct {
		attr, ini int
		want      string
	}{
		{attrBandwidth, 0, "DRAM#0"}, {attrLatency, 1, "DRAM#0"}, {attrCapacity, 1, "NVDIMM#2"},
		{attrBandwidth, 2, "DRAM#1"}, {attrCapacity, 3, "NVDIMM#3"},
	} {
		if got := xeon.best(c.attr, c.ini).label; got != c.want {
			t.Errorf("xeon %s from %s: %s, want %s", attrNames[c.attr], xeon.inis[c.ini], got, c.want)
		}
	}
	// A migrate of a DRAM#0 buffer to Capacity moves it to NVDIMM#2.
	b, _, _, _ := xeon.alloc(gib, attrBandwidth, 1, false)
	if n, rank, ok := xeon.migrate(&b, attrCapacity, 1); !ok || rank != 0 || n.label != "NVDIMM#2" {
		t.Fatalf("migrate to Capacity: %v rank %d ok %v", n, rank, ok)
	}
	if xeon.nodes[0].used != 0 || xeon.nodes[2].used != gib {
		t.Fatalf("tally after migrate: DRAM#0 %d, NVDIMM#2 %d", xeon.nodes[0].used, xeon.nodes[2].used)
	}
}

// TestModelMatchesAllocator drives the real allocator and the model
// through the same seeded sequence on every platform the workloads use
// and compares each decision, fallbacks and splits included.
func TestModelMatchesAllocator(t *testing.T) {
	for _, plat := range []string{"knl-snc4-flat", "xeon", "fictitious", "xeon-snc2"} {
		sys, err := core.NewSystem(plat, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		npu := sys.Topology().Root().CPUSet.Weight()
		var inis []string
		for c := 0; c < npu; c += 3 {
			inis = append(inis, strconv.Itoa(c))
		}
		inis = append(inis, "0-3", "4-7")
		m := mustModel(t, plat, inis...)
		bms := make([]*bitmap.Bitmap, len(inis))
		for i, s := range inis {
			bms[i], _ = bitmap.ParseList(s)
		}
		ids := [...]memattr.ID{memattr.Bandwidth, memattr.Latency, memattr.Capacity}
		rng := newRand(int64(len(plat)))
		type live struct {
			buf *memsim.Buffer
			mb  mbuf
			ini int
		}
		var bufs []live
		for i := 0; i < 3000; i++ {
			if len(bufs) > 40 && rng.Intn(3) == 0 {
				j := rng.Intn(len(bufs))
				if err := sys.Machine.Free(bufs[j].buf); err != nil {
					t.Fatal(err)
				}
				m.free(&bufs[j].mb)
				bufs[j] = bufs[len(bufs)-1]
				bufs = bufs[:len(bufs)-1]
				continue
			}
			if len(bufs) > 0 && rng.Intn(5) == 0 {
				j := rng.Intn(len(bufs))
				a := rng.Intn(nAttrs)
				_, dec, err := sys.Allocator.MigrateToBestSpec(bufs[j].buf, ids[a], bms[bufs[j].ini], alloc.Spec{})
				n, rank, ok := m.migrate(&bufs[j].mb, a, bufs[j].ini)
				if (err == nil) != ok {
					t.Fatalf("%s step %d migrate: allocator err %v, model ok %v", plat, i, err, ok)
				}
				if ok && (dec.RankPosition != rank || dec.Target.OSIndex != n.os) {
					t.Fatalf("%s step %d migrate: allocator %d rank %d, model %s rank %d", plat, i, dec.Target.OSIndex, dec.RankPosition, n.label, rank)
				}
				continue
			}
			a, ini := rng.Intn(nAttrs), rng.Intn(len(inis))
			size := uint64(rng.Intn(int(m.best(a, ini).capacity/8))) + 1
			buf, dec, err := sys.Allocator.AllocSpec("t", size, ids[a], bms[ini], alloc.Spec{Partial: true})
			mb, rank, split, ok := m.alloc(size, a, ini, true)
			if (err == nil) != ok {
				t.Fatalf("%s step %d alloc %d: allocator err %v, model ok %v", plat, i, size, err, ok)
			}
			if !ok {
				continue
			}
			if dec.RankPosition != rank || dec.Partial != split || dec.Target.OSIndex != mb.segs[0].node.os {
				t.Fatalf("%s step %d alloc: allocator %s, model %s rank %d split %v", plat, i, dec, mb.segs[0].node.label, rank, split)
			}
			bufs = append(bufs, live{buf, mb, ini})
		}
		for _, n := range m.nodes {
			if got := sys.Machine.NodeByOS(n.os).Allocated(); got != n.used {
				t.Fatalf("%s %s: allocator holds %d bytes, model %d", plat, n.label, got, n.used)
			}
		}
	}
}

package main

import (
	"fmt"
	"sort"

	"hetmem/internal/bitmap"
	"hetmem/internal/platform"
)

// The placement model: the benchmark's own prediction of where the
// allocator puts each buffer, made apart from the program. It ranks a
// platform's NUMA nodes from the platform's published node models —
// read bandwidth (higher first), idle latency (lower first) and
// capacity (higher first), ties broken by logical index — over the
// nodes local to the initiator, and keeps its own per-node byte tally.
// With one caller the prediction is exact, fallbacks and partial
// splits included; the daemon workloads keep every node far from full,
// so there the best-ranked node is the prediction whatever the
// interleaving of their clients.

// attrNames are the attributes the workloads request, by index.
var attrNames = [...]string{"Bandwidth", "Latency", "Capacity"}

const (
	attrBandwidth = iota
	attrLatency
	attrCapacity
	nAttrs
)

type mnode struct {
	idx      int // position in placeModel.nodes
	os       int
	logical  int
	label    string // "KIND#os", as the daemon prints placements
	kind     string
	cpus     *bitmap.Bitmap
	capacity uint64
	used     uint64
	readBW   float64
	latency  float64
}

func (n *mnode) avail() uint64 {
	if n.used >= n.capacity {
		return 0
	}
	return n.capacity - n.used
}

// mseg is one part of a modelled buffer.
type mseg struct {
	node  *mnode
	bytes uint64
}

// mbuf is a modelled buffer: at most as many segments as local nodes.
type mbuf struct {
	size uint64
	n    int
	segs [4]mseg
}

// placeModel predicts placements on one platform for a fixed list of
// initiators. The rank table is filled at construction, so lookups are
// read-only and safe from several goroutines; the byte tally is not.
type placeModel struct {
	platform string
	nodes    []*mnode
	inis     []string
	rank     [nAttrs][][]*mnode // [attr][initiator] -> local nodes, best first
}

func newPlaceModel(platName string, inis []string) (*placeModel, error) {
	p, err := platform.Get(platName)
	if err != nil {
		return nil, err
	}
	m := &placeModel{platform: platName, inis: inis}
	for _, obj := range p.Topo.NUMANodes() {
		nm, ok := p.Model.Nodes[obj.OSIndex]
		if !ok {
			return nil, fmt.Errorf("model: %s node %d has no published model", platName, obj.OSIndex)
		}
		kind := obj.Subtype
		if kind == "" {
			kind = "DRAM"
		}
		m.nodes = append(m.nodes, &mnode{
			os: obj.OSIndex, logical: obj.LogicalIndex,
			label: fmt.Sprintf("%s#%d", kind, obj.OSIndex), kind: kind,
			cpus: obj.CPUSet, capacity: obj.Memory,
			readBW: nm.ReadBW, latency: nm.IdleLatency,
		})
	}
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i].os < m.nodes[j].os })
	for i, n := range m.nodes {
		n.idx = i
	}
	root := p.Topo.Root().CPUSet
	for a := 0; a < nAttrs; a++ {
		m.rank[a] = make([][]*mnode, len(inis))
		for i, s := range inis {
			ini, err := bitmap.ParseList(s)
			if err != nil {
				return nil, fmt.Errorf("model: initiator %q: %w", s, err)
			}
			m.rank[a][i] = rankLocal(m.nodes, a, ini, root)
		}
	}
	return m, nil
}

// rankLocal orders the nodes local to the initiator for an attribute.
// A node is local when its cpuset meets the initiator's; a CPU-less
// node is local only to the whole machine.
func rankLocal(nodes []*mnode, attr int, ini, root *bitmap.Bitmap) []*mnode {
	var out []*mnode
	for _, n := range nodes {
		if n.cpus == nil || n.cpus.IsZero() {
			if bitmap.Equal(ini, root) {
				out = append(out, n)
			}
			continue
		}
		if bitmap.Intersects(n.cpus, ini) {
			out = append(out, n)
		}
	}
	better := func(x, y *mnode) (bool, bool) { // (x before y, decided)
		switch attr {
		case attrBandwidth:
			return x.readBW > y.readBW, x.readBW != y.readBW
		case attrLatency:
			return x.latency < y.latency, x.latency != y.latency
		default:
			return x.capacity > y.capacity, x.capacity != y.capacity
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if b, ok := better(out[i], out[j]); ok {
			return b
		}
		return out[i].logical < out[j].logical
	})
	return out
}

// best returns the top-ranked node for an attribute and initiator.
func (m *placeModel) best(attr, ini int) *mnode { return m.rank[attr][ini][0] }

// alloc predicts and books one allocation: the first ranked node with
// room, else (with partial) a split filling the ranked nodes in order.
// rank is the chosen node's position (0 for a split, as the allocator
// reports it); ok is false when the allocator must fail.
func (m *placeModel) alloc(size uint64, attr, ini int, partial bool) (b mbuf, rank int, split, ok bool) {
	ranked := m.rank[attr][ini]
	b.size = size
	for i, n := range ranked {
		if n.avail() >= size {
			n.used += size
			b.n = 1
			b.segs[0] = mseg{n, size}
			return b, i, false, true
		}
	}
	if !partial {
		return b, 0, false, false
	}
	var total uint64
	for _, n := range ranked {
		total += n.avail()
	}
	if total < size {
		return b, 0, false, false
	}
	remaining := size
	for _, n := range ranked {
		take := n.avail()
		if take == 0 {
			continue
		}
		if take > remaining {
			take = remaining
		}
		n.used += take
		b.segs[b.n] = mseg{n, take}
		b.n++
		remaining -= take
		if remaining == 0 {
			break
		}
	}
	return b, 0, true, true
}

// free returns a modelled buffer's bytes.
func (m *placeModel) free(b *mbuf) {
	for _, s := range b.segs[:b.n] {
		s.node.used -= s.bytes
	}
	b.n = 0
}

// migrate predicts and books a move to the best ranked node that holds
// the whole buffer already or has room for all of it.
func (m *placeModel) migrate(b *mbuf, attr, ini int) (target *mnode, rank int, ok bool) {
	for i, n := range m.rank[attr][ini] {
		already := b.n == 1 && b.segs[0].node == n
		if already {
			return n, i, true
		}
		if n.avail() < b.size {
			continue
		}
		var on uint64
		for _, s := range b.segs[:b.n] {
			if s.node == n {
				on += s.bytes
			} else {
				s.node.used -= s.bytes
			}
		}
		n.used += b.size - on
		b.n = 1
		b.segs[0] = mseg{n, b.size}
		return n, i, true
	}
	return nil, 0, false
}

// clusterAvail is the room left on the nodes an allocation from the
// initiator may use.
func (m *placeModel) clusterAvail(ini int) uint64 {
	var total uint64
	for _, n := range m.rank[0][ini] {
		total += n.avail()
	}
	return total
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetmem/internal/server"
)

// The daemon workloads (uds_churn, durable_http, router_http) share
// one closed loop: two client goroutines, each owning half of the
// resident set and its own tenant, drive a server.Client. An iteration
// allocates a new buffer into a random slot, renews two random resident
// leases and frees the slot's old lease; every 8th iteration also
// migrates a random lease to another attribute. A round of iterations
// ends with the operator poll (a /metrics scrape and, where the
// workload names it, GET /v1/advisor). Clients stop only at a round's
// end, so every run attempts whole rounds of the same operations.
//
// The poll cadence is Prometheus's: the example configuration shipped
// with Prometheus (documentation/examples/prometheus.yml) scrapes every
// 15 s, and each client polls as one such scraper. A round is the
// iterations one client makes in 15 s at the workload's reference
// rate, so the cadence is fixed in iterations (the failed share of a
// run is exact) and close to 15 s in time.

const (
	nClients     = 2
	migrateEvery = 8
	// scrapeSeconds is Prometheus's example scrape_interval.
	scrapeSeconds = 15
	// heapRound is the round after which both clients pause for the
	// live-heap sample, so that it is taken at a fixed amount of work.
	heapRound = 1
)

// roundIters turns the scrape interval into iterations per client at a
// workload's reference rate (its median ops_per_s when the cadence was
// fixed). An iteration is 4 operations plus 1/migrateEvery migrate.
func roundIters(refOpsPerS float64) int {
	n := int(scrapeSeconds * refOpsPerS / (4 + 1.0/migrateEvery) / nClients)
	return n - n%migrateEvery
}

var tenantNames = [nClients]string{"alpha", "beta"}

// tenantsConfig gives both tenants per-kind quotas far above what the
// workloads place, so admission charges them without ever refusing.
const tenantsConfig = `{"tenants": {
  "alpha": {"class": "burstable", "quotas": {"DRAM": 4398046511104, "NVDIMM": 8796093022208, "MCDRAM": 4398046511104, "HBM": 4398046511104, "NAM": 4398046511104}},
  "beta":  {"class": "burstable", "quotas": {"DRAM": 4398046511104, "NVDIMM": 8796093022208, "MCDRAM": 4398046511104, "HBM": 4398046511104, "NAM": 4398046511104}}
}}
`

// slot is one resident lease as the benchmark books it.
type slot struct {
	lease     uint64
	name      uint64
	size      uint64
	attr, ini int
	member    int
	node      *mnode
}

// streamOp is one data-plane operation of a traced phase, kept so the
// layer probes can replay the run's own request stream.
type streamOp struct {
	kind      opKind
	lease     uint64
	name      uint64
	size      uint64
	attr, ini int
	member    int
	node      *mnode // where the buffer ends up (alloc, migrate)
}

// daemonEnv is one workload's daemon-side world as the clients see it.
type daemonEnv struct {
	workload string
	models   []*placeModel // one per member platform; one for a daemon
	inis     []string
	sizeLo   uint64
	sizeHi   uint64
	cl       *server.Client
	ctx      [nClients]context.Context
	slots    [nClients][]slot
	nextName atomic.Uint64
	advisor  bool // the poll includes GET /v1/advisor
	// roundIters is the iterations between two operator polls.
	roundIters int
	rec        *recorder
	streams    [nClients][]streamOp
	problems   [nClients][]string
	batchTime  []float64 // seconds per item of each set-up AllocBatch
}

func newDaemonEnv(workload string, platforms, inis []string, lo, hi uint64) (*daemonEnv, error) {
	e := &daemonEnv{workload: workload, inis: inis, sizeLo: lo, sizeHi: hi}
	for _, p := range platforms {
		m, err := newPlaceModel(p, inis)
		if err != nil {
			return nil, err
		}
		e.models = append(e.models, m)
	}
	for c := range e.ctx {
		e.ctx[c] = server.ContextWithTenant(context.Background(), tenantNames[c])
	}
	return e, nil
}

func (e *daemonEnv) problemf(c int, format string, args ...any) {
	if len(e.problems[c]) < 20 {
		e.problems[c] = append(e.problems[c], fmt.Sprintf(format, args...))
	}
}

// placed checks a placement string ("DRAM#0", or "m2/DRAM#0" through
// the router) against the model's best node and returns the member
// and the node the buffer sits on.
func (e *daemonEnv) placed(c int, what, placement string, attr, ini int) (int, *mnode) {
	member, label := 0, placement
	if i := strings.IndexByte(placement, '/'); i >= 0 {
		m, err := strconv.Atoi(strings.TrimPrefix(placement[:i], "m"))
		if err != nil || m < 0 || m >= len(e.models) {
			e.problemf(c, "%s: placement %q names no member", what, placement)
		} else {
			member, label = m, placement[i+1:]
		}
	}
	want := e.models[member].best(attr, ini)
	if label != want.label {
		e.problemf(c, "%s %s from %s: placed on %s, model says %s", what, attrNames[attr], e.inis[ini], placement, want.label)
	}
	return member, want
}

func (e *daemonEnv) newRequest(rng *rand.Rand) (server.AllocRequest, int, int) {
	attr, ini := rng.Intn(nAttrs), rng.Intn(len(e.inis))
	id := e.nextName.Add(1)
	return server.AllocRequest{
		Name:      "b" + strconv.FormatUint(id, 10),
		Size:      logUniform(rng, e.sizeLo, e.sizeHi),
		Attr:      attrNames[attr],
		Initiator: e.inis[ini],
	}, attr, ini
}

// placeResident places client c's share of the resident set with
// AllocBatch, checking each placement.
func (e *daemonEnv) placeResident(c, n int, rng *rand.Rand) error {
	const batch = server.MaxBatchAllocs
	for done := 0; done < n; done += batch {
		k := min(batch, n-done)
		reqs := make([]server.AllocRequest, k)
		attrs, inis := make([]int, k), make([]int, k)
		for i := range reqs {
			reqs[i], attrs[i], inis[i] = e.newRequest(rng)
		}
		t0 := time.Now()
		resp, err := e.cl.AllocBatch(e.ctx[c], reqs)
		if err != nil {
			return fmt.Errorf("set-up batch: %w", err)
		}
		e.batchTime = append(e.batchTime, time.Since(t0).Seconds()/float64(k))
		for i, it := range resp.Results {
			if it.Alloc == nil {
				return fmt.Errorf("set-up batch item %d failed: %+v", i, it.Error)
			}
			member, node := e.placed(c, "set-up alloc", it.Alloc.Placement, attrs[i], inis[i])
			e.slots[c] = append(e.slots[c], slot{lease: it.Alloc.Lease, name: nameID(reqs[i].Name),
				size: reqs[i].Size, attr: attrs[i], ini: inis[i], member: member, node: node})
		}
	}
	return nil
}

// observe books one operation of a client's phase: a failed one is
// counted and left out of the latencies.
func (p *phase) observe(k opKind, t0 time.Time, err error) {
	p.counts.attempted[k]++
	if err != nil {
		p.counts.failed[k]++
		return
	}
	p.lat[k].record(uint64(time.Since(t0)))
	p.completed++
}

// heapGate pauses both clients after round heapRound; the last to
// arrive forces a collection and reads the live heap, and the pause is
// taken out of the phase's wall time and costs.
type heapGate struct {
	arrived atomic.Int32
	release chan struct{}
	heap    uint64
	cost    meter // the pause's own costs, from before to after
	end     time.Time
	wall    time.Duration
}

func (g *heapGate) wait() {
	if g.arrived.Add(1) < nClients {
		<-g.release
		return
	}
	t0, m0 := time.Now(), readMeter()
	g.heap = liveHeapNow()
	g.cost.addDelta(m0, readMeter())
	g.end = time.Now()
	g.wall = g.end.Sub(t0)
	close(g.release)
}

// runPhase runs both clients for whole rounds until seconds have
// passed and returns the merged phase.
func (e *daemonEnv) runPhase(seed int64, seconds float64, traced bool) *phase {
	var stats [nClients]phase
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	m0 := readMeter()
	var live atomic.Uint64
	var first sync.Once
	var windowEnd time.Time
	gate := &heapGate{release: make(chan struct{})}
	p := &phase{}
	// finish closes the throughput window when the first client ends
	// its last round, so a lone client finishing its round does not
	// count.
	finish := func() {
		first.Do(func() { p.rateOps, windowEnd = live.Load(), time.Now(); p.wall = windowEnd.Sub(start) })
	}
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.clientLoop(c, newRand(seed*7919+int64(c)), deadline, &stats[c], &live, traced, finish, gate)
		}(c)
	}
	wg.Wait()
	p.cost.addDelta(m0, readMeter())
	// The heap sample's own collection is the benchmark's, not the
	// program's.
	p.cost.sub(gate.cost)
	if windowEnd.After(gate.end) {
		p.wall -= gate.wall
	}
	p.liveHeap, p.liveBufs = gate.heap, e.liveLeases()
	for c := range stats {
		p.merge(&stats[c])
	}
	return p
}

func (e *daemonEnv) clientLoop(c int, rng *rand.Rand, deadline time.Time, st *phase, live *atomic.Uint64, traced bool,
	finish func(), gate *heapGate) {
	ctx, cl, slots := e.ctx[c], e.cl, e.slots[c]
	observe := func(k opKind, t0 time.Time, err error) {
		st.observe(k, t0, err)
		if err == nil {
			live.Add(1)
		}
	}
	record := func(k opKind, key, lease uint64, s0 int64) {
		if traced {
			e.rec.add(span{start: s0, end: e.rec.now(), key: key, lease: lease, layer: layerClient, op: uint8(k)})
		}
	}
	clock := func() int64 {
		if traced {
			return e.rec.now()
		}
		return 0
	}
	for round := 1; ; round++ {
		for it := 0; it < e.roundIters; it++ {
			j := rng.Intn(len(slots))
			req, attr, ini := e.newRequest(rng)
			t0, s0 := time.Now(), clock()
			resp, err := cl.Alloc(ctx, req)
			observe(opAlloc, t0, err)
			var fresh slot
			if err == nil {
				record(opAlloc, nameID(req.Name), resp.Lease, s0)
				member, node := e.placed(c, "alloc", resp.Placement, attr, ini)
				fresh = slot{lease: resp.Lease, name: nameID(req.Name), size: req.Size, attr: attr, ini: ini, member: member, node: node}
				if traced {
					e.streams[c] = append(e.streams[c], streamOp{kind: opAlloc, lease: resp.Lease, name: fresh.name,
						size: req.Size, attr: attr, ini: ini, member: member, node: node})
				}
			} else {
				e.problemf(c, "alloc %s: %v", req.Name, err)
			}
			for r := 0; r < 2; r++ {
				lease := slots[rng.Intn(len(slots))].lease
				t0, s0 := time.Now(), clock()
				_, err := cl.Renew(ctx, lease, 0)
				observe(opRenew, t0, err)
				if err == nil {
					record(opRenew, lease, 0, s0)
				}
			}
			if err == nil {
				old := slots[j]
				t0, s0 := time.Now(), clock()
				ferr := cl.Free(ctx, old.lease)
				observe(opFree, t0, ferr)
				if ferr == nil {
					record(opFree, old.lease, 0, s0)
					if traced {
						e.streams[c] = append(e.streams[c], streamOp{kind: opFree, lease: old.lease, member: old.member, size: old.size})
					}
				} else {
					e.problemf(c, "free %d: %v", old.lease, ferr)
				}
				slots[j] = fresh
			}
			if (it+1)%migrateEvery == 0 {
				k := rng.Intn(len(slots))
				s := &slots[k]
				attr := (s.attr + 1 + rng.Intn(nAttrs-1)) % nAttrs
				t0, s0 := time.Now(), clock()
				mresp, err := cl.Migrate(ctx, server.MigrateRequest{Lease: s.lease, Attr: attrNames[attr], Initiator: e.inis[s.ini]})
				observe(opMigrate, t0, err)
				if err == nil {
					record(opMigrate, s.lease, 0, s0)
					_, node := e.placed(c, "migrate", mresp.Placement, attr, s.ini)
					if traced {
						e.streams[c] = append(e.streams[c], streamOp{kind: opMigrate, lease: s.lease, attr: attr, ini: s.ini,
							member: s.member, node: node, size: s.size})
					}
					s.attr, s.node = attr, node
				} else {
					e.problemf(c, "migrate %d: %v", s.lease, err)
				}
			}
		}
		t0 := time.Now()
		_, err := cl.MetricsRaw(ctx)
		observe(opMetricsPoll, t0, err)
		if e.advisor {
			t0 := time.Now()
			_, err := cl.Advisor(ctx)
			observe(opAdvisorPoll, t0, err)
		}
		last := !time.Now().Before(deadline)
		if last {
			finish()
		}
		if round == heapRound {
			gate.wait()
		}
		if last {
			return
		}
	}
}

// liveLeases is the number of resident leases the clients hold.
func (e *daemonEnv) liveLeases() int {
	n := 0
	for c := range e.slots {
		n += len(e.slots[c])
	}
	return n
}

// tally sums the booked resident set per member: leases and bytes per
// node label; and bytes per tenant.
func (e *daemonEnv) tally() (counts []int, nodes []map[string]uint64, tenants map[string]uint64) {
	counts = make([]int, len(e.models))
	nodes = make([]map[string]uint64, len(e.models))
	for i := range nodes {
		nodes[i] = make(map[string]uint64)
	}
	tenants = make(map[string]uint64)
	for c := range e.slots {
		for _, s := range e.slots[c] {
			counts[s.member]++
			nodes[s.member][s.node.label] += s.size
			tenants[tenantNames[c]] += s.size
		}
	}
	return counts, nodes, tenants
}

// checkBooks compares a daemon's /v1/leases with the benchmark's tally
// of one member (or the only daemon): lease count, per-node bytes and,
// when tenants is non-nil, per-tenant bytes.
func checkBooks(rep *report, what string, got server.LeasesResponse, count int, nodes, tenants map[string]uint64) {
	if got.Count != count {
		rep.failf("%s: %d leases, tally %d", what, got.Count, count)
	}
	for label, b := range nodes {
		if got.NodeBytes[label] != b {
			rep.failf("%s: %s holds %d bytes, tally %d", what, label, got.NodeBytes[label], b)
		}
	}
	for label, b := range got.NodeBytes {
		if _, ok := nodes[label]; !ok && b != 0 {
			rep.failf("%s: %s holds %d bytes, tally 0", what, label, b)
		}
	}
	if tenants == nil {
		return
	}
	for t, b := range tenants {
		if got.TenantBytes[t] != b {
			rep.failf("%s: tenant %s holds %d bytes, tally %d", what, t, got.TenantBytes[t], b)
		}
	}
}

// teardownWorkers bounds the goroutines that free the resident set at
// the end of a run. The teardown is not measured; under group commit,
// concurrent frees share fsyncs, so a journaled daemon's 50k leases are
// freed in seconds rather than minutes.
const teardownWorkers = 32

// freeAll frees every resident lease, as the teardown.
func (e *daemonEnv) freeAll(rep *report) {
	type job struct {
		c     int
		lease uint64
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < teardownWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := e.cl.Free(e.ctx[j.c], j.lease); err != nil {
					mu.Lock()
					rep.failf("teardown free %d: %v", j.lease, err)
					mu.Unlock()
				}
			}
		}()
	}
	for c := range e.slots {
		for _, s := range e.slots[c] {
			jobs <- job{c, s.lease}
		}
		e.slots[c] = nil
	}
	close(jobs)
	wg.Wait()
}

func (e *daemonEnv) collectProblems(rep *report) {
	for c := range e.problems {
		for _, p := range e.problems[c] {
			rep.failf("%s client %d: %s", e.workload, c, p)
		}
		e.problems[c] = nil
	}
}

// metricsText renders a Backend's /metrics body in-process.
func metricsText(b server.Backend) string {
	var sb strings.Builder
	if err := b.WriteMetrics(context.Background(), &sb); err != nil {
		return ""
	}
	return sb.String()
}

// metricSum adds up every series of a /metrics text whose name (with
// labels) starts with prefix.
func metricSum(text, prefix string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				total += v
			}
		}
	}
	return total
}

package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"hetmem/internal/cluster"
	"hetmem/internal/core"
	"hetmem/internal/journal"
	"hetmem/internal/server"
)

// router_http: cluster.Router with its WAL (no fsync) in front of four
// member daemons on the default sim platforms; both hops are HTTP and
// the members keep no journal. The only workload that runs cluster
// code: the forward hop, the router lock, the WAL append and the batch
// fan-out. Initiators are cores 0-15 and their groups of four, which
// exist on every member platform.

// routerRefOpsPerS is router_http's median ops_per_s when its poll
// cadence was fixed (2-CPU machine, go1.24); see roundIters.
const routerRefOpsPerS = 8271

func routerInitiators() []string {
	var inis []string
	for c := 0; c < 16; c++ {
		inis = append(inis, strconv.Itoa(c))
	}
	return append(inis, "0-3", "4-7", "8-11", "12-15")
}

type routerMember struct {
	srv *server.Server
	hs  *http.Server
	sw  *switchHTTP
}

type routerCluster struct {
	env     *daemonEnv
	members []*routerMember
	router  *cluster.Router
	hs      *http.Server
	sw      *switchHTTP
	wal     string
	specs   []cluster.MemberSpec
}

func (r *routerCluster) close() {
	if r.env != nil && r.env.cl != nil {
		r.env.cl.Close()
	}
	if r.hs != nil {
		r.hs.Close()
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, m := range r.members {
		m.hs.Close()
		m.srv.Close()
	}
}

// startRouter is the set-up: four members, the router, and the
// resident set placed through the router with AllocBatch.
func startRouter(o runOpts, i, resident int, tenantsPath string) (*routerCluster, error) {
	env, err := newDaemonEnv("router_http", cluster.DefaultSimPlatforms, routerInitiators(), 64<<10, 4<<20)
	if err != nil {
		return nil, err
	}
	env.roundIters = roundIters(routerRefOpsPerS)
	if o.small {
		env.roundIters = 128
	}
	r := &routerCluster{env: env, wal: filepath.Join(o.dir, fmt.Sprintf("router%d.wal", i))}
	var specs []cluster.MemberSpec
	for k, plat := range cluster.DefaultSimPlatforms {
		sys, err := core.NewSystem(plat, core.Options{})
		if err != nil {
			r.close()
			return nil, err
		}
		srv, err := server.NewWithConfig(sys, serveDefaults(server.Config{TenantsPath: tenantsPath}))
		if err != nil {
			r.close()
			return nil, err
		}
		m := &routerMember{srv: srv, sw: newSwitchHTTP(srv.Handler())}
		var base string
		if m.hs, base, err = listenHTTP(m.sw); err != nil {
			srv.Close()
			r.close()
			return nil, err
		}
		r.members = append(r.members, m)
		specs = append(specs, cluster.MemberSpec{Name: fmt.Sprintf("m%d", k), URL: base})
	}
	r.specs = specs
	if r.router, err = cluster.New(cluster.Config{Members: specs, JournalPath: r.wal}); err != nil {
		r.close()
		return nil, err
	}
	r.sw = newSwitchHTTP(r.router.Handler())
	var base string
	if r.hs, base, err = listenHTTP(r.sw); err != nil {
		r.close()
		return nil, err
	}
	env.cl = server.NewClient(base)
	rng := newRand(o.seed)
	for c := 0; c < nClients; c++ {
		if err := env.placeResident(c, resident/nClients, rng); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// checkRouterBooks checks the router's rollup against the sum over the
// members and both against the benchmark's tally.
func checkRouterBooks(rep *report, r *routerCluster, what string) {
	ctx := context.Background()
	got, err := r.env.cl.Leases(ctx, false)
	if err != nil {
		rep.failf("%s: router /v1/leases: %v", what, err)
		return
	}
	counts, nodes, tenants := r.env.tally()
	memberTotal, count := 0, 0
	for k, m := range r.members {
		ml, err := m.srv.Leases(ctx, false)
		if err != nil {
			rep.failf("%s: member m%d leases: %v", what, k, err)
			continue
		}
		memberTotal += ml.Count
		count += counts[k]
		var sum, tallySum uint64
		for _, b := range ml.NodeBytes {
			sum += b
		}
		for _, b := range nodes[k] {
			tallySum += b
		}
		name := fmt.Sprintf("m%d", k)
		if got.NodeBytes[name] != sum || sum != tallySum {
			rep.failf("%s: router books %d bytes on %s, the member holds %d, tally %d", what, got.NodeBytes[name], name, sum, tallySum)
		}
		checkBooks(rep, what+" member "+name, ml, counts[k], nodes[k], nil)
	}
	if got.Count != memberTotal || got.Count != count {
		rep.failf("%s: router holds %d leases, members %d, tally %d", what, got.Count, memberTotal, count)
	}
	for t, b := range tenants {
		if got.TenantBytes[t] != b {
			rep.failf("%s: router books %d bytes for tenant %s, tally %d", what, got.TenantBytes[t], t, b)
		}
	}
}

func runRouterHTTP(o runOpts) (*report, error) {
	rep := newReport()
	resident := 8192
	if o.small {
		resident = 512
	}
	tp, err := writeTenants(o.dir)
	if err != nil {
		return nil, err
	}
	var r *routerCluster
	var setups []float64
	for i := 0; i < setupRepeats(o); i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		if r, err = startRouter(o, i, resident, tp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	env := r.env
	membersText := func() []string {
		out := make([]string, len(r.members))
		for k, m := range r.members {
			out[k] = metricsText(m.srv)
		}
		return out
	}

	mm0, rm0 := membersText(), metricsText(r.router)
	p := env.runPhase(o.seed, o.seconds, false)
	mm1, rm1 := membersText(), metricsText(r.router)
	rep.counts = p.counts
	checkRouterBooks(rep, r, "router_http")

	if !o.trace {
		p.e2e(rep, setups)
	} else {
		p.layerCosts(rep)
		var hits, misses, allocs, fallbacks, partials, calls float64
		for k := range mm0 {
			d := func(name string) float64 { return metricSum(mm1[k], name) - metricSum(mm0[k], name) }
			hits += d("hetmemd_placement_cache_hits_total")
			misses += d("hetmemd_placement_cache_misses_total")
			allocs += d("hetmemd_alloc_total ")
			fallbacks += d("hetmemd_alloc_fallback_total")
			partials += d("hetmemd_alloc_partial_total")
			calls += d("hetmemd_requests_total")
		}
		if hits+misses > 0 {
			rep.metrics["placement.cache_hit_rate"] = hits / (hits + misses)
		}
		if allocs > 0 {
			rep.metrics["placement.fallback_rate"] = fallbacks / allocs
			rep.metrics["placement.partial_rate"] = partials / allocs
		}
		if p.completed > 0 {
			rep.metrics["router.member_calls_per_op"] = calls / float64(p.completed)
		}
		transportBytes(rep, "http.bytes_per_op", "http", rm0, rm1)
		rep.metrics["backend.batch_item_us"] = median(env.batchTime) * 1e6

		resident := snapshotSlots(env)
		memberKey, err := leaseTranslation(r, resident)
		if err != nil {
			return nil, err
		}
		env.rec = newRecorder(1 << 18)
		tb := &timedBackend{Backend: r.router, rec: env.rec, delay: o.backendDelay}
		r.sw.set(&spanHandler{h: server.NewAPI(tb, server.APIOptions{}).Handler(), rec: env.rec, layer: layerHandler})
		for k, m := range r.members {
			m.sw.set(&spanHandler{h: m.srv.Handler(), rec: env.rec, layer: layerMember, member: uint8(k)})
		}
		tp2 := env.runPhase(o.seed, o.seconds, true)
		r.sw.set(r.router.Handler())
		for _, m := range r.members {
			m.sw.set(m.srv.Handler())
		}
		p3 := env.runPhase(o.seed, o.seconds, false)
		rep.counts.add(&tp2.counts)
		rep.counts.add(&p3.counts)
		overhead(rep, p, tp2, p3)
		spans := env.rec.spans[:env.rec.count()]
		memberKey.learn(spans)
		chains := joinSpans(spans, memberKey.lookup)
		us := func(op opKind, f func(c *chain) (int64, bool)) float64 { return p50Of(chains, op, f) / 1e3 }
		routerSelf := func(c *chain) (int64, bool) {
			if c.member == nil {
				return 0, false
			}
			return dur(c.backend) - dur(c.member), true
		}
		backend := func(c *chain) (int64, bool) {
			if c.backend == nil {
				return 0, false
			}
			return dur(c.backend), true
		}
		rep.metrics["http.alloc_transport_us"] = us(opAlloc, func(c *chain) (int64, bool) {
			if c.handler == nil {
				return 0, false
			}
			return dur(c.client) - dur(c.handler), true
		})
		rep.metrics["router.alloc_self_us"] = us(opAlloc, routerSelf)
		rep.metrics["router.free_self_us"] = us(opFree, routerSelf)
		rep.metrics["router.renew_self_us"] = us(opRenew, routerSelf)
		rep.metrics["member.alloc_handler_us"] = us(opAlloc, func(c *chain) (int64, bool) {
			if c.member == nil {
				return 0, false
			}
			return dur(c.member), true
		})
		rep.metrics["backend.alloc_us"] = us(opAlloc, backend)
		rep.metrics["backend.free_us"] = us(opFree, backend)
		rep.metrics["backend.renew_us"] = us(opRenew, backend)
		rep.metrics["backend.migrate_us"] = us(opMigrate, backend)
		if err := daemonProbes(rep, env, cluster.DefaultSimPlatforms, resident, tp); err != nil {
			return nil, err
		}
		if err := routerJournalProbes(rep, r, o.dir); err != nil {
			return nil, err
		}
		checkRouterBooks(rep, r, "router_http traced")
	}
	env.freeAll(rep)
	checkRouterBooks(rep, r, "router_http after teardown")
	env.collectProblems(rep)
	return rep, nil
}

// leaseKeys translates a member's own lease into the router lease the
// client holds, through the buffer name both sides know.
type leaseKeys struct {
	routerByName map[uint64]uint64    // name -> router lease
	nameByMember map[[2]uint64]uint64 // (member, member lease) -> name
}

// leaseTranslation seeds the translation from the resident set the
// traced phase starts with: the router's and the members' lease lists.
func leaseTranslation(r *routerCluster, resident [nClients][]slot) (*leaseKeys, error) {
	k := &leaseKeys{routerByName: make(map[uint64]uint64), nameByMember: make(map[[2]uint64]uint64)}
	for c := range resident {
		for _, s := range resident[c] {
			k.routerByName[s.name] = s.lease
		}
	}
	for i, m := range r.members {
		ml, err := m.srv.Leases(context.Background(), true)
		if err != nil {
			return nil, err
		}
		for _, l := range ml.Leases {
			k.nameByMember[[2]uint64{uint64(i), l.Lease}] = nameID(l.Name)
		}
	}
	return k, nil
}

// learn adds the leases granted during the traced phase: the client's
// alloc spans carry the router lease, the members' the member lease.
func (k *leaseKeys) learn(spans []span) {
	for _, s := range spans {
		if opKind(s.op) != opAlloc || s.lease == 0 {
			continue
		}
		switch s.layer {
		case layerClient:
			k.routerByName[s.key] = s.lease
		case layerMember:
			k.nameByMember[[2]uint64{uint64(s.member), s.lease}] = s.key
		}
	}
}

func (k *leaseKeys) lookup(member uint8, lease uint64) (uint64, bool) {
	name, ok := k.nameByMember[[2]uint64{uint64(member), lease}]
	if !ok {
		return 0, false
	}
	rl, ok := k.routerByName[name]
	return rl, ok
}

// routerJournalProbes times the journal layers on the router's own WAL
// records, read back from its file: Store.Append without fsync (the
// router's own path), Store.AppendDurable under group commit (the
// daemon's durable path), and a restart — journal.OpenStore, then
// cluster.New, whose time beyond the open is the restore of the lease
// map.
func routerJournalProbes(rep *report, r *routerCluster, dir string) error {
	recs, err := readWAL(r.wal)
	if err != nil {
		return err
	}
	var walBytes float64
	if rep.metrics["router.wal_append_us"], _, walBytes, err = appendProbe(recs, filepath.Join(dir, "probe-wal"), false); err != nil {
		return err
	}
	rep.metrics["journal.bytes_per_record"] = walBytes
	if rep.metrics["journal.append_us"], rep.metrics["journal.records_per_fsync"], _, err = appendProbe(recs, filepath.Join(dir, "probe-durable"), true); err != nil {
		return err
	}
	copyTo := func(dst string) (string, error) {
		return dst + ".wal", copyFile(r.wal, dst+".wal")
	}
	openWAL := func(path string) error {
		st, _, err := journal.OpenStore(path, nil)
		if err != nil {
			return err
		}
		return st.Close()
	}
	restart := func(path string) error {
		rt, err := cluster.New(cluster.Config{Members: r.specs, JournalPath: path})
		if err != nil {
			return err
		}
		if got, want := rt.LeaseCount(), r.router.LeaseCount(); got != want {
			rep.failf("router_http: a router restarted on a copy of the WAL holds %d leases, the live router %d", got, want)
		}
		return rt.Close()
	}
	open, restore, err := restartProbe(dir, copyTo, openWAL, restart)
	if err != nil {
		return err
	}
	rep.metrics["replay.open_s"], rep.metrics["replay.restore_s"] = open, restore
	return nil
}

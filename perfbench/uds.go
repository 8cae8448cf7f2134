package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/server"
	"hetmem/internal/wire"
)

// uds_churn: a hetmemd daemon on xeon with no journal serves the
// binary protocol on a unix socket; both clients share one multiplexed
// connection. Transport, codec, lease table and admission dominate:
// there is no journal and placement is a candidate-cache hit. The
// operator poll includes GET /v1/advisor, which the binary transport
// refuses on every attempt (server.Client maps no wire op to it), so
// every advisor poll counts as failed.

const udsPlatform = "xeon"

// udsRefOpsPerS is uds_churn's median ops_per_s when its poll cadence
// was fixed (2-CPU machine, go1.24); see roundIters.
const udsRefOpsPerS = 41310

// serveDefaults applies what `hetmemd serve` sets when no flag is
// given: the 0.95 shed watermark and the advisor's 10s interval.
func serveDefaults(cfg server.Config) server.Config {
	cfg.ShedWatermark = 0.95
	cfg.AdvisorInterval = 10 * time.Second
	return cfg
}

// xeonInitiators are every core and both packages of xeon.
func xeonInitiators() []string {
	var inis []string
	for c := 0; c < 40; c++ {
		inis = append(inis, strconv.Itoa(c))
	}
	return append(inis, "0-19", "20-39")
}

func writeTenants(dir string) (string, error) {
	p := filepath.Join(dir, "tenants.json")
	return p, os.WriteFile(p, []byte(tenantsConfig), 0o644)
}

// listenHTTP serves h on a loopback port and returns the base URL.
func listenHTTP(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

type udsDaemon struct {
	env *daemonEnv
	srv *server.Server
	hs  *http.Server
	ws  *wire.Server
	sw  *switchWire
}

func (d *udsDaemon) close() {
	if d.env != nil && d.env.cl != nil {
		d.env.cl.Close()
	}
	if d.ws != nil {
		d.ws.Close()
	}
	if d.hs != nil {
		d.hs.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

// startUDS is the set-up: from nothing to a serving daemon holding the
// resident set.
func startUDS(o runOpts, i, resident int, tenantsPath string) (*udsDaemon, error) {
	env, err := newDaemonEnv("uds_churn", []string{udsPlatform}, xeonInitiators(), 64<<10, 16<<20)
	if err != nil {
		return nil, err
	}
	env.advisor = true
	env.roundIters = roundIters(udsRefOpsPerS)
	if o.small {
		env.roundIters = 128
	}
	d := &udsDaemon{env: env}
	sys, err := core.NewSystem(udsPlatform, core.Options{})
	if err != nil {
		return nil, err
	}
	if d.srv, err = server.NewWithConfig(sys, serveDefaults(server.Config{TenantsPath: tenantsPath})); err != nil {
		return nil, err
	}
	if d.hs, _, err = listenHTTP(d.srv.Handler()); err != nil {
		d.close()
		return nil, err
	}
	sock := filepath.Join(o.dir, fmt.Sprintf("w%d.sock", i))
	ln, err := net.Listen("unix", sock)
	if err != nil {
		d.close()
		return nil, err
	}
	d.sw = newSwitchWire(d.srv.WireHandler())
	d.ws = wire.NewServer(d.sw, d.srv.Metrics().TransportStats(server.TransportUDS))
	go d.ws.Serve(ln)
	env.cl = server.NewClient("unix://" + sock)
	rng := newRand(o.seed)
	for c := 0; c < nClients; c++ {
		if err := env.placeResident(c, resident/nClients, rng); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
func setupRepeats(o runOpts) int {
	if o.trace || o.small {
		return 1
	}
	return 5
}

func runUDSChurn(o runOpts) (*report, error) {
	rep := newReport()
	resident := 16384
	if o.small {
		resident = 1024
	}
	tp, err := writeTenants(o.dir)
	if err != nil {
		return nil, err
	}
	var d *udsDaemon
	var setups []float64
	for i := 0; i < setupRepeats(o); i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		if d, err = startUDS(o, i, resident, tp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	env := d.env

	m0 := metricsText(d.srv)
	p := env.runPhase(o.seed, o.seconds, false)
	m1 := metricsText(d.srv)
	rep.counts = p.counts
	checkDaemonBooks(rep, env, "uds_churn")

	if !o.trace {
		p.e2e(rep, setups)
	} else {
		p.layerCosts(rep)
		placementCounters(rep, m0, m1)
		transportBytes(rep, "wire.bytes_per_op", "uds", m0, m1)
		rep.metrics["backend.batch_item_us"] = median(env.batchTime) * 1e6
		resident := snapshotSlots(env)
		env.rec = newRecorder(1 << 18)
		tb := &timedBackend{Backend: d.srv, rec: env.rec, delay: o.backendDelay}
		d.sw.set(&spanWire{h: server.NewWireBackend(tb, d.srv.Metrics(), 1), rec: env.rec})
		tp2 := env.runPhase(o.seed, o.seconds, true)
		d.sw.set(d.srv.WireHandler())
		p3 := env.runPhase(o.seed, o.seconds, false)
		rep.counts.add(&tp2.counts)
		rep.counts.add(&p3.counts)
		overhead(rep, p, tp2, p3)
		rep.metrics["traced.alloc_p50_us"] = tp2.lat[opAlloc].quantile(0.5) / 1e3
		chains := joinSpans(env.rec.spans[:env.rec.count()], nil)
		us := func(op opKind, f func(c *chain) (int64, bool)) float64 { return p50Of(chains, op, f) / 1e3 }
		clientMinusHandler := func(c *chain) (int64, bool) {
			if c.handler == nil {
				return 0, false
			}
			return dur(c.client) - dur(c.handler), true
		}
		backendSelf := func(c *chain) (int64, bool) {
			if c.backend == nil {
				return 0, false
			}
			return dur(c.backend), true
		}
		rep.metrics["wire.alloc_transport_us"] = us(opAlloc, clientMinusHandler)
		rep.metrics["wire.renew_transport_us"] = us(opRenew, clientMinusHandler)
		rep.metrics["wire.alloc_codec_us"] = us(opAlloc, func(c *chain) (int64, bool) {
			if c.backend == nil {
				return 0, false
			}
			return dur(c.handler) - dur(c.backend), true
		})
		rep.metrics["backend.alloc_us"] = us(opAlloc, backendSelf)
		rep.metrics["backend.free_us"] = us(opFree, backendSelf)
		rep.metrics["backend.renew_us"] = us(opRenew, backendSelf)
		rep.metrics["backend.migrate_us"] = us(opMigrate, backendSelf)
		if err := daemonProbes(rep, env, []string{udsPlatform}, resident, tp); err != nil {
			return nil, err
		}
		checkDaemonBooks(rep, env, "uds_churn traced")
	}
	teardownDaemon(rep, env, "uds_churn")
	env.collectProblems(rep)
	return rep, nil
}

// snapshotSlots copies the resident set a traced phase starts from.
func snapshotSlots(e *daemonEnv) [nClients][]slot {
	var out [nClients][]slot
	for c := range e.slots {
		out[c] = append([]slot(nil), e.slots[c]...)
	}
	return out
}

// daemonProbes runs the placement and tenant probes on a traced
// phase's streams.
func daemonProbes(rep *report, env *daemonEnv, platforms []string, resident [nClients][]slot, tenantsPath string) error {
	a, f, m, err := placementProbe(env, platforms, resident)
	if err != nil {
		return err
	}
	rep.metrics["placement.alloc_ns"] = a
	rep.metrics["placement.free_ns"] = f
	rep.metrics["placement.migrate_ns"] = m
	ch, err := tenantProbe(env, tenantsPath)
	if err != nil {
		return err
	}
	rep.metrics["tenant.charge_ns"] = ch
	return nil
}

// placementCounters reads the allocator's counters off a daemon's
// /metrics deltas: candidate-cache hit rate, fallback and split shares.
func placementCounters(rep *report, before, after string) {
	d := func(name string) float64 { return metricSum(after, name) - metricSum(before, name) }
	hits, misses := d("hetmemd_placement_cache_hits_total"), d("hetmemd_placement_cache_misses_total")
	if hits+misses > 0 {
		rep.metrics["placement.cache_hit_rate"] = hits / (hits + misses)
	}
	if allocs := d("hetmemd_alloc_total "); allocs > 0 {
		rep.metrics["placement.fallback_rate"] = d("hetmemd_alloc_fallback_total") / allocs
		rep.metrics["placement.partial_rate"] = d("hetmemd_alloc_partial_total") / allocs
	}
}

// transportBytes is the request and response bytes per request of one
// transport, from the /metrics deltas.
func transportBytes(rep *report, metric, transport, before, after string) {
	sel := fmt.Sprintf("{transport=%q}", transport)
	d := func(name string) float64 { return metricSum(after, name+sel) - metricSum(before, name+sel) }
	if reqs := d("hetmemd_transport_requests_total"); reqs > 0 {
		rep.metrics[metric] = (d("hetmemd_transport_bytes_rx_total") + d("hetmemd_transport_bytes_tx_total")) / reqs
	}
}

// checkDaemonBooks compares the daemon's lease table with the tally.
func checkDaemonBooks(rep *report, env *daemonEnv, what string) {
	got, err := env.cl.Leases(context.Background(), false)
	if err != nil {
		rep.failf("%s: /v1/leases: %v", what, err)
		return
	}
	counts, nodes, tenants := env.tally()
	checkBooks(rep, what, got, counts[0], nodes[0], tenants)
}

// teardownDaemon frees the resident set and checks that every node's
// bytes are back to zero.
func teardownDaemon(rep *report, env *daemonEnv, what string) {
	env.freeAll(rep)
	got, err := env.cl.Leases(context.Background(), false)
	if err != nil {
		rep.failf("%s teardown: /v1/leases: %v", what, err)
		return
	}
	checkBooks(rep, what+" after teardown", got, 0, nil, nil)
}

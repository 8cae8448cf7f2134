package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hetmem/internal/core"
	"hetmem/internal/journal"
	"hetmem/internal/server"
)

// durable_http: the uds_churn daemon and op mix over HTTP/JSON, with
// the group-commit journal (fsync) and the size-triggered checkpoint
// on. The set-up is a restart that replays a seeded journal — a
// checkpoint plus a WAL tail with frees — holding the resident set.
// Journal append and the fsync wait dominate the run; the set-up reads
// back the layer whose writes the run measures.

const (
	durablePlatform = "xeon"
	// durableRefOpsPerS is durable_http's median ops_per_s when its poll
	// cadence was fixed; see roundIters.
	durableRefOpsPerS = 1692
	seedJournalName   = "journal"
	// checkpointMaxWAL is below the seeded WAL tail and above what a
	// run appends, so every run checkpoints exactly once, on its first
	// append: the count does not depend on how fast the run goes.
	checkpointMaxWAL = 4 << 20
)

// durableConfig is the daemon's configuration: the serve defaults plus
// -journal, -group-commit, -checkpoint-bytes and -tenants.
func durableConfig(journalPath, tenantsPath string) server.Config {
	return serveDefaults(server.Config{
		JournalPath:      journalPath,
		GroupCommit:      true,
		CheckpointMaxWAL: checkpointMaxWAL,
		TenantsPath:      tenantsPath,
	})
}

// seedJournal writes the journal the set-up replays, through an
// in-process daemon: three quarters of the resident set, a checkpoint,
// then half the resident set's count in allocations and a quarter in
// frees, some of leases from before the checkpoint and some after. It
// returns the acknowledged leases per client.
func seedJournal(seed int64, dir string, resident int, env *daemonEnv) ([nClients][]slot, error) {
	var acked [nClients][]slot
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return acked, err
	}
	sys, err := core.NewSystem(durablePlatform, core.Options{})
	if err != nil {
		return acked, err
	}
	srv, err := server.NewWithConfig(sys, server.Config{JournalPath: filepath.Join(dir, seedJournalName)})
	if err != nil {
		return acked, err
	}
	defer srv.Close()
	rng := newRand(seed)
	spare := resident / 4
	place := func(n int) error {
		for c := 0; c < nClients; c++ {
			for done := 0; done < n/nClients; done += server.MaxBatchAllocs {
				k := min(server.MaxBatchAllocs, n/nClients-done)
				reqs := make([]server.AllocRequest, k)
				attrs, inis := make([]int, k), make([]int, k)
				for i := range reqs {
					reqs[i], attrs[i], inis[i] = env.newRequest(rng)
				}
				resp, err := srv.AllocBatch(env.ctx[c], reqs)
				if err != nil {
					return err
				}
				for i, it := range resp.Results {
					if it.Alloc == nil {
						return fmt.Errorf("seeding: item %d: %+v", i, it.Error)
					}
					_, node := env.placed(c, "seed alloc", it.Alloc.Placement, attrs[i], inis[i])
					acked[c] = append(acked[c], slot{lease: it.Alloc.Lease, name: nameID(reqs[i].Name),
						size: reqs[i].Size, attr: attrs[i], ini: inis[i], node: node})
				}
			}
		}
		return nil
	}
	if err := place(resident - spare); err != nil {
		return acked, err
	}
	if err := srv.CheckpointNow(); err != nil {
		return acked, err
	}
	if err := place(2 * spare); err != nil {
		return acked, err
	}
	for c := range acked {
		for f := 0; f < spare/nClients; f++ {
			j := rng.Intn(len(acked[c]))
			if _, err := srv.Free(env.ctx[c], server.FreeRequest{Lease: acked[c][j].lease}); err != nil {
				return acked, err
			}
			acked[c][j] = acked[c][len(acked[c])-1]
			acked[c] = acked[c][:len(acked[c])-1]
		}
	}
	return acked, nil
}

type durableDaemon struct {
	env *daemonEnv
	srv *server.Server
	hs  *http.Server
	sw  *switchHTTP
}

func (d *durableDaemon) close() {
	if d.env != nil && d.env.cl != nil {
		d.env.cl.Close()
	}
	if d.hs != nil {
		d.hs.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

// startDurable is the set-up: restart a daemon on a copy of the seeded
// journal and serve it over HTTP.
func startDurable(env *daemonEnv, journalDir, tenantsPath string) (*durableDaemon, float64, error) {
	d := &durableDaemon{env: env}
	t0 := time.Now()
	sys, err := core.NewSystem(durablePlatform, core.Options{})
	if err != nil {
		return nil, 0, err
	}
	if d.srv, err = server.NewWithConfig(sys, durableConfig(filepath.Join(journalDir, seedJournalName), tenantsPath)); err != nil {
		return nil, 0, err
	}
	d.sw = newSwitchHTTP(d.srv.Handler())
	hs, base, err := listenHTTP(d.sw)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	d.hs = hs
	setup := time.Since(t0).Seconds()
	env.cl = server.NewClient(base)
	return d, setup, nil
}

func runDurableHTTP(o runOpts) (*report, error) {
	rep := newReport()
	resident := 50000
	if o.small {
		resident = 1000
	}
	tp, err := writeTenants(o.dir)
	if err != nil {
		return nil, err
	}
	seedDir := filepath.Join(o.dir, "seed")
	seedEnv, err := newDaemonEnv("durable_http", []string{durablePlatform}, xeonInitiators(), 64<<10, 16<<20)
	if err != nil {
		return nil, err
	}
	acked, err := seedJournal(o.seed, seedDir, resident, seedEnv)
	if err != nil {
		return nil, err
	}
	seedEnv.collectProblems(rep)

	var d *durableDaemon
	var setups []float64
	for i := 0; i < setupRepeats(o); i++ {
		if d != nil {
			d.close()
		}
		env, err := newDaemonEnv("durable_http", []string{durablePlatform}, xeonInitiators(), 64<<10, 16<<20)
		if err != nil {
			return nil, err
		}
		env.advisor = true
		env.roundIters = roundIters(durableRefOpsPerS)
		if o.small {
			env.roundIters = 64
		}
		env.nextName.Store(seedEnv.nextName.Load())
		copyTo := filepath.Join(o.dir, fmt.Sprintf("restart%d", i))
		if err := copyDir(seedDir, copyTo); err != nil {
			return nil, err
		}
		var s float64
		if d, s, err = startDurable(env, copyTo, tp); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		for c := range acked {
			env.slots[c] = append([]slot(nil), acked[c]...)
		}
		checkDaemonBooks(rep, env, fmt.Sprintf("durable_http restart %d against the acknowledged seed", i))
	}
	defer d.close()
	env := d.env

	m0 := metricsText(d.srv)
	p := env.runPhase(o.seed, o.seconds, false)
	m1 := metricsText(d.srv)
	rep.counts = p.counts
	checkDaemonBooks(rep, env, "durable_http")

	if !o.trace {
		p.e2e(rep, setups)
	} else {
		p.layerCosts(rep)
		placementCounters(rep, m0, m1)
		transportBytes(rep, "http.bytes_per_op", "http", m0, m1)
		dm := func(name string) float64 { return metricSum(m1, name) - metricSum(m0, name) }
		if n := dm("hetmemd_journal_batch_size_count"); n > 0 {
			rep.metrics["journal.records_per_fsync"] = dm("hetmemd_journal_batch_size_sum") / n
		}
		rep.metrics["journal.checkpoints"] = dm("hetmemd_checkpoint_total")
		resident := snapshotSlots(env)
		env.rec = newRecorder(1 << 18)
		d.sw.set(&spanHandler{h: d.srv.Handler(), rec: env.rec, layer: layerHandler})
		tp2 := env.runPhase(o.seed, o.seconds, true)
		d.sw.set(d.srv.Handler())
		p3 := env.runPhase(o.seed, o.seconds, false)
		rep.counts.add(&tp2.counts)
		rep.counts.add(&p3.counts)
		overhead(rep, p, tp2, p3)
		chains := joinSpans(env.rec.spans[:env.rec.count()], nil)
		rep.metrics["http.alloc_transport_us"] = p50Of(chains, opAlloc, func(c *chain) (int64, bool) {
			if c.handler == nil {
				return 0, false
			}
			return dur(c.client) - dur(c.handler), true
		}) / 1e3
		rep.metrics["http.alloc_handler_us"] = p50Of(chains, opAlloc, func(c *chain) (int64, bool) {
			if c.handler == nil {
				return 0, false
			}
			return dur(c.handler), true
		}) / 1e3
		if err := daemonProbes(rep, env, []string{durablePlatform}, resident, tp); err != nil {
			return nil, err
		}
		var recs [nClients][]journal.Record
		for c := range recs {
			recs[c] = journalRecords(env, c)
		}
		if rep.metrics["journal.append_us"], _, rep.metrics["journal.bytes_per_record"], err = appendProbe(recs, filepath.Join(o.dir, "probe-journal"), true); err != nil {
			return nil, err
		}
		open, restore, err := replayProbe(seedDir, o.dir, durableConfig("", tp))
		if err != nil {
			return nil, err
		}
		rep.metrics["replay.open_s"], rep.metrics["replay.restore_s"] = open, restore
		checkDaemonBooks(rep, env, "durable_http traced")
	}
	teardownDaemon(rep, env, "durable_http")
	env.collectProblems(rep)
	return rep, nil
}

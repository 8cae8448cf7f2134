package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetmem/internal/alloc"
	"hetmem/internal/bitmap"
	"hetmem/internal/core"
	"hetmem/internal/journal"
	"hetmem/internal/memsim"
	"hetmem/internal/server"
	"hetmem/internal/tenant"
)

// Layer probes: layers with no seam on the request path — placement,
// quota charge, the journal, replay and the router's WAL — are timed
// by replaying the run's own request or record stream straight into
// their public functions, on an identical system, on the same
// filesystem and from as many goroutines as the run had clients.

// replayParallel runs one function per client stream and waits.
func replayParallel(n int, f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// placementProbe replays the traced phase's allocs, frees and migrates
// into fresh systems of the members' platforms, after placing the
// resident set the phase started from, and returns the p50 of
// AllocSpec, Machine.Free and MigrateToBestSpec in ns.
func placementProbe(e *daemonEnv, platforms []string, resident [nClients][]slot) (allocNs, freeNs, migrateNs float64, err error) {
	systems := make([]*core.System, len(platforms))
	for i, p := range platforms {
		if systems[i], err = core.NewSystem(p, core.Options{}); err != nil {
			return 0, 0, 0, err
		}
	}
	inis := make([]*bitmap.Bitmap, len(e.inis))
	for i, s := range e.inis {
		inis[i], _ = bitmap.ParseList(s)
	}
	var bufs [nClients]map[uint64]*memsim.Buffer
	for c := range resident {
		bufs[c] = make(map[uint64]*memsim.Buffer, len(resident[c]))
		for _, s := range resident[c] {
			b, _, err := systems[s.member].Allocator.AllocSpec("r", s.size, libAttrIDs[s.attr], inis[s.ini], alloc.Spec{})
			if err != nil {
				return 0, 0, 0, fmt.Errorf("placement probe: resident set: %w", err)
			}
			bufs[c][s.lease] = b
		}
	}
	var lat [nClients][nOps]hist
	replayParallel(nClients, func(c int) {
		for _, op := range e.streams[c] {
			sys := systems[op.member]
			t0 := time.Now()
			switch op.kind {
			case opAlloc:
				b, _, err := sys.Allocator.AllocSpec("b", op.size, libAttrIDs[op.attr], inis[op.ini], alloc.Spec{})
				if err != nil {
					continue
				}
				bufs[c][op.lease] = b
			case opFree:
				b := bufs[c][op.lease]
				if b == nil || sys.Machine.Free(b) != nil {
					continue
				}
			case opMigrate:
				b := bufs[c][op.lease]
				if b == nil {
					continue
				}
				if _, _, err := sys.Allocator.MigrateToBestSpec(b, libAttrIDs[op.attr], inis[op.ini], alloc.Spec{}); err != nil {
					continue
				}
			}
			lat[c][op.kind].record(uint64(time.Since(t0)))
		}
	})
	for c := 1; c < nClients; c++ {
		for k := range lat[0] {
			lat[0][k].merge(&lat[c][k])
		}
	}
	return lat[0][opAlloc].quantile(0.5), lat[0][opFree].quantile(0.5), lat[0][opMigrate].quantile(0.5), nil
}

// tenantProbe times a Tenant.Charge+Refund pair for every alloc of the
// traced phase, against a registry loaded from the workload's tenants
// file, and returns the p50 in ns.
func tenantProbe(e *daemonEnv, tenantsPath string) (float64, error) {
	reg := tenant.NewRegistry()
	if err := reg.Load(tenantsPath); err != nil {
		return 0, err
	}
	var lat [nClients]hist
	replayParallel(nClients, func(c int) {
		t := reg.Get(tenantNames[c])
		for _, op := range e.streams[c] {
			if op.kind != opAlloc {
				continue
			}
			t0 := time.Now()
			if err := t.Charge(op.node.kind, op.size); err != nil {
				continue
			}
			t.Refund(op.node.kind, op.size)
			lat[c].record(uint64(time.Since(t0)))
		}
	})
	lat[0].merge(&lat[1])
	return lat[0].quantile(0.5), nil
}

// journalRecords rebuilds the records the daemon journaled for a
// client's traced stream: an alloc's full lease state, a free, a
// migrate's new placement. The idempotency key the client library
// drew is not visible to the benchmark; a key of the same length
// stands in for it.
func journalRecords(e *daemonEnv, c int) []journal.Record {
	const key = "00000000000000000000000000000000"
	var recs []journal.Record
	for _, op := range e.streams[c] {
		switch op.kind {
		case opAlloc:
			recs = append(recs, journal.Record{
				Op: journal.OpAlloc, Lease: op.lease, Name: "b" + strconv.FormatUint(op.name, 10),
				Attr: attrNames[op.attr], Initiator: e.inis[op.ini], Key: key, Size: op.size,
				Tenant: tenantNames[c], Segments: []journal.Segment{{NodeOS: op.node.os, Bytes: op.size}},
			})
		case opFree:
			recs = append(recs, journal.Record{Op: journal.OpFree, Lease: op.lease})
		case opMigrate:
			recs = append(recs, journal.Record{Op: journal.OpMigrate, Lease: op.lease,
				Segments: []journal.Segment{{NodeOS: op.node.os, Bytes: op.size}}})
		}
	}
	return recs
}

// durableProbeRecords caps the records each goroutine appends under
// group commit: each waits for a flush (about a millisecond), and the
// p50 needs no more.
const durableProbeRecords = 2048

// appendProbe appends records to a fresh store at path, recs[c] from
// goroutine c, and returns the p50 of one append in us, the records
// per flush and the WAL bytes per record. durable appends the last
// durableProbeRecords of each stream with Store.AppendDurable under
// group commit, at the daemon's default batch and linger; otherwise
// it appends all of them with Store.Append, without fsync.
func appendProbe(recs [nClients][]journal.Record, path string, durable bool) (appendUs, perFlush, bytesPerRecord float64, err error) {
	if durable {
		for c := range recs {
			recs[c] = recs[c][max(0, len(recs[c])-durableProbeRecords):]
		}
	}
	st, _, err := journal.OpenStore(path, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	var flushes, flushed atomic.Uint64
	if durable {
		st.EnableGroupCommit(0, 0, func(n int) {
			flushes.Add(1)
			flushed.Add(uint64(n))
		})
	}
	var lat [nClients]hist
	var errs [nClients]error
	replayParallel(nClients, func(c int) {
		for _, r := range recs[c] {
			t0 := time.Now()
			if durable {
				_, errs[c] = st.AppendDurable(r)
			} else {
				errs[c] = st.Append(r)
			}
			if errs[c] != nil {
				return
			}
			lat[c].record(uint64(time.Since(t0)))
		}
	})
	for _, err := range errs {
		if err != nil {
			return 0, 0, 0, err
		}
	}
	lat[0].merge(&lat[1])
	if n := len(recs[0]) + len(recs[1]); n > 0 {
		bytesPerRecord = float64(st.WALBytes()) / float64(n)
	}
	if f := flushes.Load(); f > 0 {
		perFlush = float64(flushed.Load()) / float64(f)
	}
	return lat[0].quantile(0.5) / 1e3, perFlush, bytesPerRecord, nil
}

// readWAL reads a store's WAL records back from its file and deals
// them out alternately to one stream per client.
func readWAL(path string) ([nClients][]journal.Record, error) {
	var out [nClients][]journal.Record
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	recs, _, err := journal.Replay(f)
	if err != nil {
		return out, err
	}
	for i, r := range recs {
		out[i%nClients] = append(out[i%nClients], r)
	}
	return out, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// restartProbe splits a restart into the journal open and the restore
// behind it. Three times, it copies the journal twice (untimed), times
// open on one copy and restart — open plus restore — on the other;
// restore is the median restart less the median open.
func restartProbe(dir string, copyTo func(dst string) (string, error), open, restart func(path string) error) (openS, restoreS float64, err error) {
	var opens, restarts []float64
	for i := 0; i < 3; i++ {
		a, err := copyTo(filepath.Join(dir, fmt.Sprintf("probe-open%d", i)))
		if err != nil {
			return 0, 0, err
		}
		b, err := copyTo(filepath.Join(dir, fmt.Sprintf("probe-restart%d", i)))
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := open(a); err != nil {
			return 0, 0, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := restart(b); err != nil {
			return 0, 0, err
		}
		restarts = append(restarts, time.Since(t0).Seconds())
	}
	return median(opens), median(restarts) - median(opens), nil
}

// replayProbe is the restart probe of the seeded daemon journal:
// journal.OpenStoreWorkers, then server.NewWithConfig.
func replayProbe(seedDir, dir string, cfg server.Config) (openS, restoreS float64, err error) {
	copyTo := func(dst string) (string, error) {
		return filepath.Join(dst, seedJournalName), copyDir(seedDir, dst)
	}
	open := func(path string) error {
		st, _, err := journal.OpenStoreWorkers(path, nil, cfg.ReplayWorkers)
		if err != nil {
			return err
		}
		return st.Close()
	}
	restart := func(path string) error {
		c := cfg
		c.JournalPath = path
		sys, err := core.NewSystem(durablePlatform, core.Options{})
		if err != nil {
			return err
		}
		srv, err := server.NewWithConfig(sys, c)
		if err != nil {
			return err
		}
		return srv.Close()
	}
	return restartProbe(dir, copyTo, open, restart)
}

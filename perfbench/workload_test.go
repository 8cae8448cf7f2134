package main

import (
	"math"
	"testing"
	"time"
)

func runSmall(t *testing.T, name string, trace bool, delay time.Duration) *report {
	t.Helper()
	rep, err := workloads[name](runOpts{seed: 3, seconds: 0.5, trace: trace, dir: t.TempDir(), small: true, backendDelay: delay})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, p := range rep.problems {
		t.Errorf("%s: %s", name, p)
	}
	return rep
}

// TestWorkloadsRunClean runs every workload on a small resident set:
// every output check passes, and the only failures are the advisor
// polls uds_churn makes over the binary transport, one per round.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	for name := range workloads {
		rep := runSmall(t, name, false, 0)
		attempted, failed := rep.counts.totals()
		if attempted == 0 {
			t.Errorf("%s attempted nothing", name)
		}
		wantFailed := uint64(0)
		if name == "uds_churn" {
			wantFailed = rep.counts.attempted[opAdvisorPoll]
			if wantFailed == 0 {
				t.Errorf("uds_churn made no advisor poll")
			}
		}
		if failed != wantFailed || rep.counts.failed[opAdvisorPoll] != wantFailed {
			t.Errorf("%s: %d of %d operations failed (%v), want only the %d advisor polls", name, failed, attempted, rep.counts.failed, wantFailed)
		}
		for _, m := range e2eMetrics {
			if v := rep.metrics[m.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", name, m.name, v)
			}
		}
	}
}

// TestInjectedBackendDelay sleeps inside the timing Backend wrapper's
// Alloc span. The added time must show in backend.alloc_us and in the
// client-observed alloc latency of the traced phase, by about its
// size, and in no other layer's self time.
func TestInjectedBackendDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	const delay = 2 * time.Millisecond
	base := runSmall(t, "uds_churn", true, 0)
	slow := runSmall(t, "uds_churn", true, delay)
	d := float64(delay.Microseconds())
	rise := func(name string) float64 { return slow.metrics[name] - base.metrics[name] }
	for _, m := range []string{"backend.alloc_us", "traced.alloc_p50_us"} {
		if r := rise(m); r < 0.8*d || r > 1.5*d {
			t.Errorf("%s rose by %.1f us (%.1f -> %.1f), want about %.0f", m, r, base.metrics[m], slow.metrics[m], d)
		}
	}
	for _, m := range []string{"wire.alloc_transport_us", "wire.alloc_codec_us", "wire.renew_transport_us",
		"backend.free_us", "backend.renew_us", "backend.migrate_us"} {
		if r := rise(m); math.Abs(r) > 0.1*d {
			t.Errorf("%s moved by %.1f us (%.1f -> %.1f) under a delay in the Alloc span", m, r, base.metrics[m], slow.metrics[m])
		}
	}
}

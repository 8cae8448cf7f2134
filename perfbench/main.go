// Command perfbench is hetmem's end-to-end benchmark. It runs one
// workload against the program's public entry points — the in-process
// allocator, a hetmemd daemon over its binary protocol or HTTP, or the
// cluster router — checks every output against the benchmark's own
// model and tally, and prints the result as one JSON line:
//
//	perfbench --workload uds_churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is repeated with spans around each layer and the metrics are
// per layer. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runOpts is what every workload receives.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is the run's scratch directory, inside the checkout.
	dir string
	// small shrinks resident sets and rounds, for the package tests.
	small bool
	// backendDelay is added inside the timing Backend wrapper's Alloc
	// span; only the injected-delay test sets it.
	backendDelay time.Duration
}

type workloadFunc func(runOpts) (*report, error)

var workloads = map[string]workloadFunc{
	"lib_place":    runLibPlace,
	"uds_churn":    runUDSChurn,
	"durable_http": runDurableHTTP,
	"router_http":  runRouterHTTP,
}

// e2eMetrics are reported by every workload with --trace 0, in order.
var e2eMetrics = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"alloc_p50_us", "us"},
	{"alloc_p90_us", "us"},
	{"free_p50_us", "us"},
	{"migrate_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"heap_allocs_per_op", "count"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// layerMetrics are reported with --trace 1. A layer that is not on a
// workload's path reads 0 there (see README.md for where each applies).
var layerMetrics = []struct{ name, unit string }{
	{"placement.alloc_ns", "ns"},
	{"placement.free_ns", "ns"},
	{"placement.migrate_ns", "ns"},
	{"placement.cache_hit_rate", "ratio"},
	{"placement.fallback_rate", "ratio"},
	{"placement.partial_rate", "ratio"},
	{"wire.alloc_transport_us", "us"},
	{"wire.renew_transport_us", "us"},
	{"wire.alloc_codec_us", "us"},
	{"wire.bytes_per_op", "B"},
	{"http.alloc_transport_us", "us"},
	{"http.alloc_handler_us", "us"},
	{"http.bytes_per_op", "B"},
	{"backend.alloc_us", "us"},
	{"backend.free_us", "us"},
	{"backend.renew_us", "us"},
	{"backend.migrate_us", "us"},
	{"backend.batch_item_us", "us"},
	{"tenant.charge_ns", "ns"},
	{"journal.append_us", "us"},
	{"journal.records_per_fsync", "count"},
	{"journal.bytes_per_record", "B"},
	{"journal.checkpoints", "count"},
	{"replay.open_s", "s"},
	{"replay.restore_s", "s"},
	{"router.alloc_self_us", "us"},
	{"router.free_self_us", "us"},
	{"router.renew_self_us", "us"},
	{"router.wal_append_us", "us"},
	{"router.member_calls_per_op", "count"},
	{"member.alloc_handler_us", "us"},
	{"gc.cycles_per_kop", "count"},
	{"gc.pause_us_per_kop", "us"},
	{"heap.bytes_per_lease", "B"},
	{"trace.overhead_pct", "%"},
}

// Operation types, as counted in attempted/failed.
type opKind int

const (
	opAlloc opKind = iota
	opFree
	opRenew
	opMigrate
	opMetricsPoll
	opAdvisorPoll
	nOps
)

var opNames = [nOps]string{"alloc", "free", "renew", "migrate", "metrics_poll", "advisor_poll"}

type opCounts struct {
	attempted, failed [nOps]uint64
}

func (c *opCounts) add(o *opCounts) {
	for i := range c.attempted {
		c.attempted[i] += o.attempted[i]
		c.failed[i] += o.failed[i]
	}
}

func (c *opCounts) totals() (attempted, failed uint64) {
	for i := range c.attempted {
		attempted += c.attempted[i]
		failed += c.failed[i]
	}
	return
}

// report is what a workload hands back: the verdict of its output
// checks, its operation counts and its metrics.
type report struct {
	problems []string
	counts   opCounts
	metrics  map[string]float64
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// failf records a failed output check.
func (r *report) failf(format string, args ...any) {
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: lib_place, uds_churn, durable_http or router_http")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool) error {
	wf, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		if dir, err = os.MkdirTemp(".bench_build", "run-"); err != nil {
			return err
		}
	}
	defer os.RemoveAll(dir)
	printMachine(dir)

	rep, err := wf(runOpts{seed: seed, seconds: seconds, trace: trace, dir: dir})
	if err != nil {
		return err
	}
	for _, p := range rep.problems {
		fmt.Println("check failed:", p)
	}
	fmt.Printf("%-14s %10s %8s\n", "op", "attempted", "failed")
	for k := opKind(0); k < nOps; k++ {
		if rep.counts.attempted[k] > 0 {
			fmt.Printf("%-14s %10d %8d\n", opNames[k], rep.counts.attempted[k], rep.counts.failed[k])
		}
	}
	res := result{Correct: len(rep.problems) == 0, Metrics: make(map[string]metricValue)}
	res.Attempted, res.Failed = rep.counts.totals()
	list := e2eMetrics
	if trace {
		list = layerMetrics
	}
	for _, m := range list {
		v, ok := rep.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printMachine prints what a result must be read against: CPUs, Go
// runtime and the filesystem the journals are written to.
func printMachine(dir string) {
	fs := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		fs = fsName(int64(st.Type))
	}
	abs, _ := filepath.Abs(dir)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s journal_fs=%s (%s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fs, abs)
}

func fsName(magic int64) string {
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[magic]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(magic, 16)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// logUniform draws a size spread evenly over orders of magnitude.
func logUniform(rng *rand.Rand, lo, hi uint64) uint64 {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	return uint64(math.Exp(l + rng.Float64()*(h-l)))
}

// median of a sample; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// nameID encodes a buffer name "b<N>" as N; 0 when the name has
// another shape.
func nameID(name string) uint64 {
	s, ok := strings.CutPrefix(name, "b")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
